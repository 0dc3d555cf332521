open Cpr_ir

(** Differential equivalence checking between a program and its
    transformed version.

    Two programs are considered equivalent on an input when they reach the
    same exit label, leave the same final memory, produce the same
    per-address store sequences (transformations may not reorder writes to
    one cell), and agree on the program's declared live-out registers.

    A run is reduced to an {!observation} holding exactly those four
    things, and {!diff} is the one comparison; the cycle-level executor
    ({!Vliw.check}) is judged by it too.  A caller that has
    already interpreted a program on the inputs (the pipeline's final
    profiling run does) keeps the observations and passes them to
    {!verdict} as [Observed], so the program is not interpreted again. *)

type input = {
  memory : (int * int) list;
  gprs : (Reg.t * int) list;
  preds : (Reg.t * bool) list;
}

val no_input : input
val input_of_memory : (int * int) list -> input

val input_to_string : input -> string
(** One-line rendering ([mem a=v ... ; gpr rN=v ... ; pred pN=0/1 ...])
    used by the fuzz-corpus artifacts and the crash bundles. *)

val input_of_string : string -> input
(** Inverse of {!input_to_string}.  Raises [Invalid_argument] or
    [Failure] on malformed text. *)

val state_of : Code.t -> input -> State.t
(** A fresh state of the decoded program loaded with the input: the one
    loader, shared by the interpreter and the cycle-level executor. *)

val run_each :
  ?profile:bool -> Prog.t -> input list -> (Interp.outcome -> 'a) -> 'a list
(** [run_each prog inputs f] decodes the program once and interprets it
    on each input in order, keeping [f] of each outcome.  [profile]
    (default false) records entry and branch-taken counts into the
    program's regions, on top of what is already recorded; they are
    added once, after the last run or when a run raises.  Raises
    {!Interp.Stuck} like the interpreter. *)

val run_on : ?profile:bool -> Prog.t -> input -> Interp.outcome
(** {!run_each} on one input. *)

(** {2 Observations} *)

type observation
(** What equivalence compares of one run: the exit label reached, the
    final memory, the values stored at each address in store order, and
    the program's non-predicate [live_out] registers with their final
    values, in declaration order.  Holds no interpreter state. *)

val observation_of : Prog.t -> string option -> State.t -> observation
(** [observation_of prog exit_label state]: the observation of a
    finished run of the given program, by the interpreter or the
    cycle-level executor, that reached [exit_label] and left [state]. *)

val observe_all : Prog.t -> input list -> observation list
(** The observations of interpreting the program on each input, decoded
    once: raises {!Interp.Stuck} like the interpreter, at the first
    input that gets stuck. *)

val diff : observation -> observation -> (unit, string) result
(** [diff reference candidate]: [Ok] when they agree, else the first
    difference, checked in the order exit label, final memory, store
    sequences, live-out registers (those of the reference, looked up in
    the candidate; both programs of a pipeline declare the same set). *)

(** {2 Verdicts} *)

type side =
  | Observed of observation list  (** one per input, in input order *)
  | Run of Prog.t  (** interpret this program on each input as needed *)

val observer : side -> int -> input -> observation
(** [observer side] gives the observation of the [i]th input: the
    recorded one of an [Observed] side; for a [Run] side, the program is
    decoded on first use and interpreted on the input at each call. *)

val verdict : side -> side -> input list -> (unit, string) result
(** [verdict reference candidate inputs] compares the two sides input
    by input and stops at the first difference.  A [Run] side is
    decoded once and interpreted lazily, candidate before reference, so
    inputs after a difference are never run; a stuck interpreter gives
    [Error "interpreter stuck: ..."]. *)

val judge :
  side -> side -> input list -> (observation list, string) result
(** {!verdict}, returning on agreement the candidate's observations of
    every input, for a further check that compares with them. *)

val check_many : Prog.t -> Prog.t -> input list -> (unit, string) result
(** [check_many reference candidate inputs] is
    [verdict (Run reference) (Run candidate) inputs]. *)

val check : Prog.t -> Prog.t -> input -> (unit, string) result
(** [check reference candidate input]: observe both, compare. *)
