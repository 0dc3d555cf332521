(** Pass-level fault injection for the chaos harness.

    A domain-local injection point is {!arm}ed with a pipeline stage
    name and a fault kind; when the pipeline's instrumentation reaches
    that stage it calls {!trip}, which fires the fault.  Everything is
    per-domain ([Domain.DLS]), so a pool fanning chaos seeds across
    domains keeps each seed's injection isolated.

    Kinds model the two failure classes the resilience layer must
    absorb:

    - {!Raise}: a pass exception.  Fires {e once} — a transient fault,
      so {!Recover.protect}'s single retry recovers it cleanly.
    - {!Corrupt}: silently drops an op — preferring a store, then an op
      defining a predicate a later op in its region consumes, the two
      corruption classes the translation validator and the dataflow
      lint provably flag — a miscompile the static verifier must catch.
      Fires on {e every} attempt (the corruption is deterministic), so
      the retry fails too and the run degrades to the verified
      fallback. *)

type kind = Raise | Corrupt

val kind_name : kind -> string
val all_kinds : kind list

exception Chaos_fault of string

val arm : stage:string -> kind -> unit
(** Arm this domain's injection point.  Replaces any previous one. *)

val disarm : unit -> unit
val armed : unit -> (string * kind) option

val trip : stage:string -> Cpr_ir.Prog.t -> unit
(** Called by the pipeline at each pass's injection point.  Fires the
    armed fault iff its stage matches; a no-op otherwise (and always a
    no-op in production, where nothing is armed).  Bumps
    [chaos.injected] when it fires. *)
