(** Per-pass sandboxing with verified fallback.

    A speculative, region-restructuring optimization can trip — on its
    own invariants ([Invalid_argument] from structural validation), on
    the static verifier ({!Cpr_verify.Verify.Verify_error}), or on an
    injected chaos fault.  {!protect} turns any of those into a
    {e degraded} result instead of a dead run: the failing stage's
    output is discarded, the caller-supplied fallback (the last
    known-good IR — correct but unoptimized) is returned, and the
    failure is recorded as data.

    The fallback is always the {e pre-pass} IR, never a partially
    transformed program: the pipeline's passes mutate their working copy
    in place, so mid-pass state may violate invariants the next stage
    relies on, while the pre-pass IR was validated on the way in.

    Transient faults (anything but a verifier rejection, which is
    deterministic) are retried once before falling back, so a one-shot
    glitch costs a retry rather than an optimization level.  Counters:
    [recover.fallbacks], [recover.retries]. *)

type failure = {
  stage : string;
  reason : string;  (** printable rendering of the exception *)
  findings : Cpr_verify.Finding.t list;
      (** the verifier's error findings when the failure was a
          [Verify_error]; [[]] otherwise *)
  retries : int;  (** attempts re-run before giving up *)
  bundle : string option;  (** crash-bundle directory, when one was written *)
}

type 'a protected =
  | Committed of 'a  (** the stage ran (and verified) clean *)
  | Fell_back of 'a * failure
      (** the stage failed; the value is the fallback *)

val value : 'a protected -> 'a
val failure : 'a protected -> failure option
val degraded : 'a protected -> bool

val pp_failure : Format.formatter -> failure -> unit

val protect :
  ?on_failure:(failure -> string option) ->
  stage:string ->
  fallback:(unit -> 'a) ->
  (unit -> 'a) ->
  'a protected
(** [protect ~stage ~fallback f] runs [f ()].  On success the result is
    [Committed].  On [Verify_error] it falls back immediately (the
    verifier is deterministic); on any other exception it retries once
    and then falls back.  [on_failure] runs once, after the failure
    record is built but before the fallback is computed — the hook for
    writing a crash bundle; its return value lands in [failure.bundle],
    and an exception it raises is swallowed (recovery must not crash on
    a full disk).

    The fallback thunk itself is {b not} sandboxed: it must be
    infallible (a pre-validated copy of the input IR).  If it raises,
    the exception escapes — that is the fatal path. *)

val bundle_to :
  ?dir:string ->
  ?inputs:Cpr_sim.Equiv.input list ->
  Cpr_ir.Prog.t ->
  failure ->
  string option
(** An [on_failure] hook that writes a {!Bundle} for the given input
    program and returns its directory (or [None] if the write failed). *)
