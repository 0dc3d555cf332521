open Cpr_ir

(** Cycle-based list scheduling for one region.

    Greedy: at each cycle the dependence-ready operations are considered in
    decreasing critical-path priority (ties broken by program order) and
    issued while the machine has free slots of their unit class.  The EPIC
    branch rules (no branch taking inside another taken branch's latency
    window, speculation/anticipation constraints) are entirely encoded in
    the dependence graph, so the scheduler itself is machine-generic. *)

val of_graph :
  Cpr_machine.Descr.t -> Region.t -> Cpr_analysis.Depgraph.t -> Schedule.t
(** Schedule a region from its dependence graph for this machine (built
    by {!Cpr_analysis.Depgraph.build} with the same machine's latencies).
    Per-op unplaced-predecessor counters and cycle-keyed release buckets
    replace a rescan of the unscheduled ops every cycle, and one ready
    heap per unit class with a per-class slot count replaces a sort of
    every candidate per round, preserving that greedy policy (and its
    output) exactly in O(edges + n log n) work. *)

val schedule :
  Cpr_machine.Descr.t -> Prog.t -> Cpr_analysis.Liveness.t -> Region.t
  -> Schedule.t
(** {!of_graph} on a freshly built graph.  Consumers that schedule a
    finished program go through {!Sched_table}, which builds each distinct
    graph and schedule once. *)
