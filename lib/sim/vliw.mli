open Cpr_ir

(** Cycle-level execution of scheduled code under the EQ (equals) model:

    - operations read their sources and guards at their issue cycle;
    - register and memory writes land exactly [latency] cycles after
      issue;
    - a taken branch redirects control [latency] cycles after issue;
      operations issued before that cycle complete, operations issued at
      or after it never issue;
    - two branches must never take with the same redirect cycle (the
      schedule checker and the dependence graph guarantee it; this
      executor treats it as a fatal error);
    - region boundaries synchronize pending writes.

    Running the scheduled program and comparing with the architectural
    interpreter validates the entire scheduling model: dependence graph,
    latencies, speculation and branch rules. *)

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;  (** total machine cycles across all region executions *)
  region_entries : int;
}

exception Vliw_error of string

val run : ?state:State.t -> Cpr_machine.Descr.t -> Prog.t -> outcome
(** Schedules every region with {!Cpr_sched.List_sched} and executes the
    schedules cycle by cycle from the program entry.  Raises
    {!Vliw_error} past 10,000,000 cycles. *)

val check_against_interp :
  Cpr_machine.Descr.t -> Prog.t -> Equiv.input list -> (unit, string) result
(** Execute both the interpreter and the scheduled code on each input and
    compare exit labels, final memories and per-address store sequences. *)
