open Cpr_ir

(** Differential equivalence checking between a program and its
    transformed version.

    Two programs are considered equivalent on an input when they reach the
    same exit label, leave the same final memory, produce the same
    per-address store sequences (transformations may not reorder writes to
    one cell), and agree on the program's declared live-out registers.

    A run is reduced to an {!observation} holding exactly those four
    things, and {!diff} is the one comparison; the cycle-level executor
    ({!Vliw.check_against_interp}) is judged by it too.  A caller that has
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

val state_of : input -> State.t
(** A fresh state loaded with the input: the one loader, shared by the
    interpreter and the cycle-level executor. *)

val run_on : ?profile:bool -> Prog.t -> input -> Interp.outcome
(** Interpret the program on [state_of input].  [profile] is passed to
    {!Interp.run}. *)

(** {2 Observations} *)

type observation = {
  exit_label : string option;
  final_memory : (int * int) list;  (** sorted by address *)
  stores : (int * int list) list;
      (** per address (sorted), the values stored there, oldest first *)
  live : (Reg.t * int) list;
      (** the program's non-predicate [live_out] registers and their
          final values, in declaration order *)
}
(** What equivalence compares of one run.  Holds no interpreter state. *)

val observation_of : Prog.t -> string option -> State.t -> observation
(** [observation_of prog exit_label state]: the observation of a
    finished run of the given program, by the interpreter or the
    cycle-level executor, that reached [exit_label] and left [state]. *)

val observe : Prog.t -> input -> observation
(** The observation of [run_on prog input]: raises {!Interp.Stuck} like
    the interpreter. *)

val diff : observation -> observation -> (unit, string) result
(** [diff reference candidate]: [Ok] when they agree, else the first
    difference, checked in the order exit label, final memory, store
    sequences, live-out registers (those of the reference, looked up in
    the candidate; both programs of a pipeline declare the same set). *)

(** {2 Verdicts} *)

type side =
  | Observed of observation list  (** one per input, in input order *)
  | Run of Prog.t  (** interpret this program on each input as needed *)

val verdict : side -> side -> input list -> (unit, string) result
(** [verdict reference candidate inputs] compares the two sides input
    by input and stops at the first difference.  A [Run] side is
    interpreted lazily, candidate before reference, so inputs after a
    difference are never run; a stuck interpreter gives
    [Error "interpreter stuck: ..."]. *)

val check_many : Prog.t -> Prog.t -> input list -> (unit, string) result
(** [check_many reference candidate inputs] is
    [verdict (Run reference) (Run candidate) inputs]. *)

val check : Prog.t -> Prog.t -> input -> (unit, string) result
(** [check reference candidate input]: observe both, compare. *)
