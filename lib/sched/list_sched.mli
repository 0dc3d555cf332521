open Cpr_ir

(** Cycle-based list scheduling for one region.

    Greedy: at each cycle the dependence-ready operations are considered in
    decreasing critical-path priority (ties broken by program order) and
    issued while the machine has free slots of their unit class.  The EPIC
    branch rules (no branch taking inside another taken branch's latency
    window, speculation/anticipation constraints) are entirely encoded in
    the dependence graph, so the scheduler itself is machine-generic. *)

val schedule :
  Cpr_machine.Descr.t -> Prog.t -> Cpr_analysis.Liveness.t -> Region.t
  -> Schedule.t
(** Ready-queue implementation: per-op unplaced-predecessor counters and
    cycle-keyed release buckets replace a full rescan of the unscheduled
    ops every cycle, preserving that greedy policy (and its output)
    exactly. *)

val schedule_prog :
  ?pool:Cpr_par.Pool.t -> ?budget_ms:float -> Cpr_machine.Descr.t -> Prog.t
  -> (string * Schedule.t) list
(** Schedule every region of the program (computing liveness once);
    association list keyed by region label in layout order.  [?pool]
    distributes regions across domains (results stay in layout order);
    do not pass a pool whose worker is executing the caller.

    [?budget_ms] bounds each region's scheduling time: the scheduler
    checkpoints ({!Cpr_deadline.Deadline.check_current}) once per cycle
    of its main loop and unwinds with [Deadline_exceeded] when over
    budget (with a pool, also when the pool watchdog poisons the task).
    Exceptions surface as [Cpr_par.Pool.Task_failed] on the pool path
    and bare on the sequential path. *)
