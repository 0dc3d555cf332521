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

    What an operation computes is {!Interp.issue}'s, the same code the
    interpreter runs; this module adds only the schedule and the timing.
    Running the scheduled program and comparing with the architectural
    interpreter therefore validates the scheduling model alone:
    dependence graph, latencies, speculation and branch rules. *)

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;  (** total machine cycles across all region executions *)
  region_entries : int;
}

exception Vliw_error of string

val run : Cpr_machine.Descr.t -> Prog.t -> Equiv.input list -> outcome list
(** Decodes the program and schedules every region once with
    {!Cpr_sched.List_sched}, then executes the schedules cycle by cycle
    from the program entry on {!Equiv.state_of} of each input, one
    outcome per input.  Raises {!Vliw_error} past 10,000,000 cycles in
    one run, and with the interpreter's message where {!Interp.issue}
    raises {!Interp.Stuck}. *)

val check :
  Cpr_machine.Descr.t ->
  Prog.t ->
  reference:Equiv.side ->
  Equiv.input list ->
  outcome list * (unit, string) result
(** For each input in turn, take the [reference] observation of the
    program ({!Equiv.observer}: recorded, or interpreted now), execute
    the scheduled code, and compare the two with {!Equiv.diff}: exit
    label, final memory, per-address store sequences and live-out
    registers.  Stops at the first difference, or at a {!Vliw_error}
    (["vliw error: ..."]); a stuck reference raises {!Interp.Stuck}.
    Returns the outcomes of the executions that finished, in input
    order, beside the verdict.  The program is scheduled once, after
    the reference observation of the first input. *)

val check_against_interp :
  Cpr_machine.Descr.t -> Prog.t -> Equiv.input list -> (unit, string) result
(** The verdict of {!check} against the interpreter on the same
    program ([reference:(Run prog)]). *)
