open Cpr_ir

(** Schedule-quality lint: static lower bound vs achieved schedule.

    For every reachable non-empty region, computes the {!Height} /
    {!Resbound} lower bound and the length {!List_sched} actually
    achieves, and reports:

    - [height-bound] (error): the achieved length is {e below} the
      static bound.  The bound is proved sound, so this can only mean an
      analyzer or scheduler bug — it is the lint that keeps the two
      honest against each other.
    - [sched-quality] (warning): the achieved length exceeds twice the
      bound plus a 2-cycle grace, i.e. the scheduler left cycles on the
      table that neither dependences nor resources account for.
    - [height-missed-cpr] (warning, only with [missed:true] — callers
      pass it for post-CPR programs): a cold side exit (taken fraction
      at most the exit-weight threshold of {!Cpr_core.Heur}) whose
      branch still sits on the region's critical path with zero slack
      while the region is dependence-bound — exactly the opportunity
      height reduction exists to take.

    None of this runs in the default pipeline verification: the checks
    are quality lint, not correctness, and are surfaced through
    [lint --heights]. *)

type row = {
  region : string;
  n_ops : int;
  dep_height : int;
  branch_height : int;
  res_bound : int;
  bound : int;  (** [max dep_height res_bound] *)
  achieved : int;  (** {!List_sched} schedule length *)
}

val check :
  ?machine:Cpr_machine.Descr.t ->
  ?missed:bool ->
  stats:Finding.stats ->
  Prog.t ->
  row list * Finding.t list
(** One row per reachable non-empty region, in program order, and the
    findings, from one dependence graph and one schedule per region.
    Every region whose achieved length respects the bound counts as one
    proved query in [stats]. *)
