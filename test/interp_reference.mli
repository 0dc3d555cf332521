open Cpr_ir

(** The interpreter that {!Cpr_sim.Interp} replaced, kept as an oracle
    for it: it walks [Op.t] lists, holds registers in {!Reg.Tbl} hash
    tables, looks every label up by name on each transfer, and records
    profile counts into the regions as they happen.  Failures raise
    {!Cpr_sim.Interp.Stuck} with the same messages. *)

type state

val read_gpr : state -> Reg.t -> int
val read_pred : state -> Reg.t -> bool
val store_trace : state -> (int * int) list
val memory_snapshot : state -> (int * int) list

type outcome = {
  state : state;
  exit_label : string option;
  ops_executed : int;
  ops_issued : int;
  branches_executed : int;
  steps : int;
}

val run :
  ?max_steps:int -> ?profile:bool -> Prog.t -> Cpr_sim.Equiv.input -> outcome
(** Interpret the program on a fresh state loaded with the input. *)
