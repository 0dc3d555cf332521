open Cpr_ir

(** The differential fuzzing driver.

    For each seed the driver generates a terminating program
    ({!Cpr_workloads.Gen}), pushes it through each requested stage, and
    checks the transformed code against the raw program with two
    oracles: architectural equivalence on a battery of seeded inputs
    ({!Cpr_sim.Equiv}), and scheduled-VLIW execution agreement on the
    medium machine ({!Cpr_sim.Vliw.check}, against the observations the
    equivalence verdict took of the candidate).  Everything is a
    deterministic function of the seed and the configuration. *)

type check = {
  vliw : bool;  (** also require scheduled-VLIW / interpreter agreement *)
  extra_inputs : int;
      (** seeded inputs added on top of [Gen.inputs_of_seed]'s battery *)
  fault : Fault.t option;  (** miscompile to inject after each transform *)
  verify : bool;
      (** run the static verifier ({!Cpr_verify.Verify.check_stage}) on
          each candidate before any simulation — error findings [Fail]
          without an oracle run, making the verifier itself subject to
          the fuzzer's fault-injection validation *)
}

val default_check : check
(** VLIW on, 2 extra inputs, no fault, no static verification. *)

type outcome =
  | Pass
  | Fail of string  (** an oracle rejected the transformed program *)
  | Skip of string
      (** the reference itself is unusable (invalid or stuck) — possible
          only for shrinker-mutated programs, never for generator output *)

val inputs_for : check -> int -> Cpr_sim.Equiv.input list
(** The input battery for a seed: [Gen.inputs_of_seed] plus
    [check.extra_inputs] further seeded inputs. *)

val run_prog :
  check -> Stage.t -> Prog.t -> Cpr_sim.Equiv.input list -> outcome
(** Check one explicit program (the shrinker's entry point). *)

val run_stage : check -> Stage.t -> seed:int -> outcome
(** Generate the seed's program and inputs, then {!run_prog}. *)

val run_seeds :
  ?pool:Cpr_par.Pool.t -> check -> Stage.t list -> lo:int -> hi:int
  -> (int * (Stage.t * outcome) list) list
(** {!run_stage} for every seed in the half-open range [lo..hi), every
    stage.  [?pool] fans seeds out across domains; results are returned
    in ascending seed order regardless, so recording and printing them
    afterwards is byte-identical to the sequential run. *)

(** {2 Summary accounting} *)

type tally = {
  mutable runs : int;
  mutable fails : int;
  mutable skips : int;
}

type summary = {
  tallies : (string * tally) list;  (** per stage, in registry order *)
  mutable seeds : int;
  mutable failures : (int * string * string) list;
      (** seed, stage, reason — newest first *)
}

val new_summary : Stage.t list -> summary
val record : summary -> Stage.t -> seed:int -> outcome -> unit

val pp_summary : Format.formatter -> summary -> unit
(** Stage-coverage and failure-rate table; deterministic (no clocks). *)
