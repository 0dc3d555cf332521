(** Static height analysis of one region.

    Answers, without running the scheduler or simulator, "how short can
    this region's schedule possibly be, and is the branch chain the
    reason it is not shorter?" — the profitability question Schlansker et
    al. leave open (Section 8).  Two lower bounds over the region's
    {!Depgraph}:

    - {e dependence height}: the longest latency-weighted dependence
      chain ([max over ops of asap + latency]);
    - {e branch height}: the same chain restricted to branch and [pbr]
      operations — the quantity control CPR exists to reduce.  It is
      predicate-aware for free: {!Depgraph.build} already omits Ctrl
      edges between branches whose taken-conditions {!Pqs.disjoint}
      proves incompatible, so disjointly-guarded branches do not
      serialize.

    Combined with the {!Resbound} resource bound,
    [bound = max dep_height res_bound] is a true lower bound on every
    {!List_sched} schedule length (soundness: any legal schedule
    satisfies [cycle op >= asap op] edge by edge, and its length is
    [max (cycle + latency)]; the resource argument is {!Resbound}'s).
    The QCheck battery in [test/test_height.ml] checks the inequality on
    fuzz-generated programs across every machine description.

    This module also owns the list scheduler's critical-path priority
    (longest path from each op to a sink) — one implementation serves
    the scheduler and the slack analysis behind [lint --heights], so
    their notions of "critical path" cannot drift. *)

type summary = {
  dep_height : int;
  branch_height : int;
  res_bound : int;
  bound : int;  (** [max dep_height res_bound] *)
}

val asap : Depgraph.t -> int array
(** Earliest issue cycle of each op ignoring resources
    (re-export of {!Depgraph.asap}). *)

val dep_height : Depgraph.t -> int
(** Longest dependence chain: [max (asap + latency)] over all ops. *)

val branch_height : Depgraph.t -> int
(** Longest dependence chain through branch/[pbr] ops only. *)

val priority : Depgraph.t -> int array
(** List-scheduling priority: longest latency-weighted path from each op
    to any sink (critical-path height at and below the op). *)

val slack : Depgraph.t -> int array
(** Per-op scheduling freedom: [dep_height - (asap + priority)].
    Zero exactly on the critical path(s); always non-negative. *)

val summarize : Cpr_machine.Descr.t -> Depgraph.t -> summary
(** All four numbers for one region.  Counts one [height.bound_queries]
    observation. *)
