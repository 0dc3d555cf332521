open Cpr_ir

(** The registry of pipeline stage combinations the fuzzer exercises.

    A stage takes the raw generated program plus the training inputs and
    returns a transformed copy (the input program is never mutated:
    every stage starts from {!Cpr_pipeline.Passes.prepare}, which works
    on a deep copy).  The differential driver checks each stage's output
    against the raw program under the architectural interpreter, so a
    stage is the unit of blame when a miscompile is found. *)

type t = {
  name : string;
  apply : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t;
}

val all : t list
(** Every row of {!Cpr_pipeline.Passes.stages}, in pipeline order, then
    [fullpipe]: if-conversion, unrolling and ICBM composed from those
    rows' transforms. *)

val find : string -> t option

val parse : string -> (t list, string) result
(** Comma-separated stage names, or ["all"].  [Error] names the first
    unknown stage. *)

val names : string
(** Comma-separated list of every stage name, for usage messages. *)
