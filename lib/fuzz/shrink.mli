open Cpr_ir

(** Counterexample auto-shrinking.

    Given a failing (seed, stage) pair, the shrinker greedily minimizes
    along three axes, in order:

    + {b shape}: regenerate the program from structurally smaller
      generator shapes (fewer superblock basic blocks, fewer ops per
      block, fewer exit stubs, no loop / stores / loads / fp) via
      {!Cpr_workloads.Gen.prog_of}, keeping any variant that still
      fails;
    + {b ops}: drop individual operations from the failing program, one
      at a time to a fixpoint;
    + {b inputs}: reduce the input battery to a single failing input,
      then delta-debug its memory cells away in halving chunks.

    A candidate is accepted only when the driver still reports [Fail] —
    a mutation that breaks the {e reference} program ([Skip]) is never
    taken, so the minimized reproducer is always a well-formed,
    terminating program.  All steps are deterministic. *)

type t = {
  seed : int;
  stage : string;
  reason : string;  (** failure reason of the {e minimized} reproducer *)
  shape : Cpr_workloads.Gen.shape;
      (** advisory: the smallest generator shape reached in phase 1
          (phases 2-3 edit the program directly) *)
  prog : Prog.t;
  inputs : Cpr_sim.Equiv.input list;
  steps : int;  (** accepted shrink steps *)
}

val minimize : Driver.check -> Stage.t -> seed:int -> t
(** Shrink to a local minimum.  Raises [Invalid_argument] when the seed
    does not fail the stage. *)
