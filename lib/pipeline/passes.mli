open Cpr_ir

(** Pass composition: the two compiled codes the paper compares.

    The {e baseline} is the input superblock program with its training
    profile.  The {e height-reduced} code is the baseline after FRP
    conversion and the ICBM schema (predicate speculation, match,
    restructure, off-trace motion, DCE), re-profiled on the same training
    inputs so that the estimator and Table 3 see the transformed program's
    own execution frequencies. *)

type compiled = {
  prog : Prog.t;
  icbm : Cpr_core.Icbm.region_stats option;  (** None for the baseline *)
}

val profile : Prog.t -> Cpr_sim.Equiv.input list -> unit
(** Clear and re-record region profiles by interpreting each input. *)

val prepare : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t
(** Profile a copy, form superblocks along the hot fall-through edges
    (tail-duplicating join points), prune unreachable regions, and
    re-profile — the IMPACT role; both compiled codes start here. *)

val baseline :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!prepare} only; the input program is untouched.

    Every entry point statically verifies its own output by default
    ([verify] defaults to [true]): the {!Cpr_verify} lint plus per-stage
    translation validation against the pre-transformation program, with
    error findings raised as {!Cpr_verify.Verify.Verify_error}.  Pass
    [~verify:false] to skip (micro-benchmarks; drivers that verify
    separately), and [~verify_time] to accumulate the wall time spent
    verifying.

    Every entry point also runs inside a [pass/<stage>] {!Cpr_obs.Obs}
    span, with the verifier under a nested [verify/<stage>] span and
    op-count/ICBM counters alongside — all dark unless a [--trace] sink
    enabled telemetry.  [~verify_time] keeps working either way. *)

val height_reduce :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** Full pipeline on a fresh copy: profile, FRP-convert, ICBM, validate,
    re-profile.  Raises [Invalid_argument] if the transformed program
    fails structural validation. *)

(** {2 Per-stage entry points}

    Each runs one transformation (with its prerequisites) on a
    {!prepare}d copy, then re-validates and re-profiles.  The
    differential fuzzer ({!Cpr_fuzz}) drives these individually so that a
    miscompile is attributed to the narrowest stage exhibiting it; they
    are also convenient for ablation benches.  All raise
    [Invalid_argument] on a validation failure, like {!height_reduce}. *)

val superblock_only :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** Alias of {!baseline}: superblock formation is the whole stage. *)

val if_convert :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!prepare} + classic if-conversion of unbiased side exits. *)

val frp_convert :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!prepare} + FRP conversion of every region. *)

val speculate :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!prepare} + FRP conversion + predicate speculation. *)

val full_cpr :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!prepare} + per-region FRP conversion, speculation and the full
    (redundant) CPR scheme of Schlansker & Kathail. *)

val unroll :
  ?factor:int -> ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** {!prepare} + unrolling of every unrollable self-loop ([factor]
    default 2). *)

(** {2 Stage dispatch and sandboxed execution} *)

type entry =
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled

val stage_names : string list
(** Every dispatchable stage name, in pipeline order: [superblock],
    [ifconv], [frp], [spec], [unroll], [fullcpr], [icbm]. *)

val by_name : string -> entry option
(** The entry point for a stage name ([baseline] is an alias of
    [superblock]); [None] for unknown names.  Crash-bundle replay and
    the chaos harness dispatch through this. *)

val fallback_compiled : Prog.t -> Cpr_sim.Equiv.input list -> compiled
(** The verified fallback for a failed stage: a plain profiled copy of
    the {e pre-pass} IR — never a partially transformed working copy,
    whose in-place mid-pass state may violate invariants downstream
    stages rely on.  Infallible by construction (profiling is
    best-effort): {!Cpr_resilience.Recover.protect} does not sandbox
    the fallback thunk. *)

val protected :
  ?heur:Cpr_core.Heur.t ->
  ?verify:bool ->
  ?verify_time:float ref ->
  ?retries:int ->
  ?bundle_dir:string ->
  ?machine:string ->
  stage:string ->
  Prog.t ->
  Cpr_sim.Equiv.input list ->
  compiled Cpr_resilience.Recover.protected
(** Run the named stage under {!Cpr_resilience.Recover.protect}: on an
    exception or a verifier rejection the result is
    [Fell_back (fallback_compiled prog inputs, failure)] instead of a
    raised exception, with one retry for transient faults (default
    [retries = 1]).  [bundle_dir] additionally writes a replayable
    crash bundle on failure ([machine] is recorded in its metadata;
    [heur] applies to the [icbm] stage).  Raises [Invalid_argument] on
    an unknown stage name. *)
