open Cpr_ir

(** Per-stage translation validation.

    Matches a transformed program against its input through op identity:
    an operation of the input is {e instantiated} in the output by the op
    with the same id (in-place transformation) and by every op whose
    [orig] field points at it (copies made by tail duplication,
    if-conversion inlining, unrolling, lookahead insertion, off-trace
    splitting).  On that matching the validator proves, per stage:

    - [tv-exit] (error): every program exit label reachable in the input
      is still reachable in the output — a transformation must not lose a
      way out of the program.
    - [tv-store] (error): every store of a reachable input region has at
      least one instance — the "emitted the bypass, forgot the off-trace
      code" miscompile deletes instances wholesale.
    - [tv-liveout] (error): every definition of a program live-out
      register in a reachable input region has at least one instance.
    - [tv-branch] (error): every exit branch of a reachable input region
      has an instance that still targets the original label, targets a
      region from which that label is reachable (bypass/compensation
      indirection), or targets a static successor of the original region
      (condition-inverted loop exits of unrolling).  Disabled for
      if-conversion, whose whole point is deleting converted branches.
    - [tv-order] (error): for every register/memory dependence edge of a
      reachable input region, instances placed in a common output region
      must not have {e all} sources after {e all} destinations — the
      sunk-past-a-dependence bug class, checked when the dependence is
      still real on the instances (off-trace rewiring may retire it).
    - [tv-store-guard] (error): for a store present under the same id on
      both sides, the execution conditions (path condition conjoined with
      the guard expression) are compared as {!Cpr_analysis.Pqs}
      expressions.  {!Cpr_analysis.Pqs.subst} rewrites the output
      condition onto the input's literals: condition literals through
      [orig], and, for an instance in another region, entry literals by
      their values along that region's entering edge.  The store is
      proved when the rewritten condition is the input's (hash-consing
      makes that a physical equality); otherwise the finding prints the
      condition under which the two differ.  Enabled for the FRP-based
      stages ([frp], [spec], [fullcpr], [icbm]), where store guards must
      be exactly the original path conditions.

    Checks that cannot decide (entry literals of a region without a
    unique entering edge from the input region's own output) count as
    [unknown] in the stats rather than reporting. *)

val validate :
  ?table:Cpr_sched.Sched_table.t -> ?delta:Delta.t -> stats:Finding.stats
  -> stage:string -> before:Prog.t -> Prog.t -> Finding.t list
(** [validate ~stats ~stage ~before after].  [stage] is a
    {!Cpr_fuzz.Stage} name ([ifconv], [frp], [spec], [unroll],
    [fullcpr], [icbm], [fullpipe]); unknown names get every check except
    [tv-store-guard].  [tv-order] takes the input's dependence graphs for
    {!Cpr_machine.Descr.medium} from [table] (a fresh one by
    default).

    With a [delta] of [before] and the output (the errors-only stage
    check, {!Verify.stage_errors}), an input region is not validated
    when its output region is unchanged and no other output region holds
    an instance of its ops: each op's one instance is then itself, in
    its own place, so tv-store, tv-liveout, tv-branch and tv-order hold
    trivially, and each store's tv-store-guard is proved by identity
    (and counted proved).  The instance index, the [orig] map and the
    input op ids are then built from the regions validation reads — the
    changed ones and the unchanged ones of validated input regions —
    plus every copy's [orig].  The validated input regions are
    {!Delta.mark}ed. *)
