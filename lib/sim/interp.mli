open Cpr_ir

(** Architectural (sequential, in-program-order) interpreter.

    This is the reference semantics against which every transformation is
    differentially tested, and the profiler that produces the branch
    statistics driving the exit-weight and predict-taken heuristics.
    {!issue} is the one definition of what an operation does; the
    cycle-level executor ({!Vliw}) issues through it too and differs only
    in when the writes land. *)

type sink = {
  gpr : Reg.t -> int -> unit;
  pred : Reg.t -> bool -> unit;
  btr : Reg.t -> string -> unit;
  mem : int -> int -> unit;
}
(** Where {!issue} hands an operation's writes. *)

exception Stuck of string

val issue : sink -> State.t -> Op.t -> string option
(** Execute one operation: read its guard and operands from the state,
    hand each write to the sink in order, and return the target label
    when it is a taken branch.  Under a false guard nothing is written,
    except a [cmpp]'s unconditional destinations (Table 1).  Raises
    [Stuck] on a malformed operation, a btr or label read as a value,
    or a branch through an unset btr. *)

type outcome = {
  state : State.t;
  exit_label : string option;
      (** the exit label reached, or [None] when a region with no
          fallthrough ran off the end *)
  ops_executed : int;  (** guard-true operations, the paper's dynamic count *)
  ops_issued : int;  (** all operations of entered regions *)
  branches_executed : int;  (** branches whose region was entered *)
  steps : int;
}

val run : ?max_steps:int -> ?profile:bool -> Prog.t -> State.t -> outcome
(** Execute from the program entry on the given state, writing it in
    place ({!Equiv.state_of} loads an input into a fresh one).
    [profile] (default false) records entry and branch-taken counts into
    the program's regions (on top of whatever is already recorded).
    [max_steps] (default 1_000_000) bounds executed operations;
    exceeding it raises [Stuck], as do malformed programs (branch through
    an unset btr, unknown label). *)
