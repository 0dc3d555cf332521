open Cpr_ir

(** Predicate-aware register-pressure (MAXLIVE) analysis.

    Control CPR spends predicate registers and longer live ranges to buy
    branch height; this module measures that cost statically, per
    register class ({!Reg.cls}), two ways:

    - {!sweep} counts live registers at every program point of an
      {e unscheduled} region, walking the {!Liveness} transfer backward —
      a cheap pre-schedule estimate; [lint --pressure] checks the
      larger of it and the scheduled count against the register file.
    - {!of_schedule} counts live values at every {e cycle} of a
      {!Cpr_sched}-style schedule (passed as parallel ops/cycle arrays so
      this library does not depend on the scheduler): each demand for a
      value pins its register from the last unconditional write before it
      to the demand's cycle.  This is what a post-scheduling allocator
      sees, so allocatability checks use it.

    Both refine the count through {!Pqs.disjoint}: two registers whose
    occupancy conditions (definition-site guard expressions from
    {!Pred_env}; [tru] for entry values that some demand can actually
    consume — a guarded def covering all its uses makes the entry value
    dead even though the predicate-blind {!Liveness} keeps it live-in)
    are provably mutually exclusive can share one physical register —
    the predicate-cognizant counting of Johnson & Schlansker.  The refined
    figure is sandwiched between the true dynamic maximum and the
    predicate-blind count; [test/test_pressure.ml] holds the oracle.

    Note the sweep and the schedule counts are not ordered in general:
    scheduling can overlap lifetimes that program order kept apart, so
    neither bounds the other.  Consumers wanting a single conservative
    figure take the max of both. *)

type class_stat = {
  cls : Reg.cls;
  maxlive : int;  (** predicate-aware maximum over points/cycles *)
  maxlive_blind : int;  (** without the disjointness refinement *)
}

type t = {
  n_points : int;
  per_point : int array array;
      (** predicate-aware count, indexed [Reg.cls_rank cls].(point) *)
  per_point_blind : int array array;
  stats : class_stat array;  (** indexed by {!Reg.cls_rank} *)
}

val stat : t -> Reg.cls -> class_stat
val maxlive : t -> Reg.cls -> int
val maxlive_blind : t -> Reg.cls -> int

type context
(** What both counts read of a region before walking it: its predicate
    environment, def and kill sites, live sets at branch targets, which
    registers are occupied from region entry, and per class the number
    of registers live through it. *)

val context : ?env:Pred_env.t -> Liveness.t -> Region.t -> context
(** [env] is the region's {!Pred_env.analyze}, when the caller already
    has it.  A caller that runs both counts on one region builds one
    context and hands it to both, with the same liveness and region. *)

val sweep : ?cx:context -> Liveness.t -> Region.t -> t
(** Program-point sweep over the unscheduled region: point [i] is just
    before op [i]; point [n] is the region exit. *)

val of_schedule :
  ?cx:context -> Liveness.t -> Region.t -> ops:Op.t array
  -> cycle:int array -> length:int -> t
(** Exact per-cycle live counts for a schedule of the region given as
    program-ordered [ops] with per-op issue [cycle]s (the fields of
    [Cpr_sched.Schedule.t]).  Each register is visited only over the
    cycles its occupancy intervals span, so the work is the sum of the
    interval lengths.  A register the region never writes is live over
    one prefix of the cycles under one constant condition, so it is
    counted per class with a difference array instead of being visited
    cycle by cycle (likewise in {!sweep}).  Those that are also live out
    are not visited at all: they are occupied over every cycle, and are
    added per class from {!Liveness.live_out_count}.  So the walks visit
    one by one only the registers the region writes and the demanded
    unwritten ones not live out (counted by the [Obs] counter
    [pressure.reg_visits]), and a cold region costs what it contains,
    however many registers live through it. *)
