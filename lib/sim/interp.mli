(** Architectural (sequential, in-program-order) interpreter over a
    decoded program ({!Code}).

    This is the reference semantics against which every transformation is
    differentially tested, and the profiler that produces the branch
    statistics driving the exit-weight and predict-taken heuristics.
    {!issue} is the one definition of what an operation does; the
    cycle-level executor ({!Vliw}) issues through it too and differs only
    in when the writes land. *)

type sink = {
  gpr : int -> int -> unit;
  pred : int -> bool -> unit;
  btr : int -> int -> unit;
  mem : int -> int -> unit;
}
(** Where {!issue} hands an operation's writes: register writes by file
    index, a branch-target write as a label index, a memory write by
    address. *)

exception Stuck of string

val issue : sink -> State.t -> Code.op -> int
(** Execute one operation: read its guard and operands from the state,
    hand each write to the sink in order, and return the label index
    ({!Code.t}[.targets]) of a taken branch, or -1.  Under a false guard
    nothing is written, except a [cmpp]'s unconditional destinations
    (Table 1).  Raises [Stuck] on a malformed operation (a [cmpp] under
    any guard, any other only when its guard holds), a btr or label read
    as a value, or a branch through an unset btr. *)

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

val run : ?max_steps:int -> ?profile:bool -> Code.t -> State.t -> outcome
(** Execute from the program entry on the given state, writing it in
    place.  The state must be one of this decoded program
    ({!Equiv.state_of}); raises [Invalid_argument] otherwise.  [profile] (default
    false) counts region entries and taken branches into the decoded
    program's counters, which {!Code.commit_profile} adds to the
    program's regions.  [max_steps] (default 1_000_000) bounds executed
    operations; exceeding it raises [Stuck], as do malformed programs
    (branch through an unset btr, unknown label). *)
