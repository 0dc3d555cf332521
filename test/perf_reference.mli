open Cpr_ir

(** Every-region estimators: the oracle for {!Cpr_pipeline.Perf}, which
    skips the regions whose charge is 0 without a schedule. *)

val estimate :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int

val estimate_exit_aware :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int

val bound_estimate :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int
