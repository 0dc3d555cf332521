open Cpr_ir

(** Predicate-aware dataflow lint over a single program.

    Checks (reachable regions only):
    - [pred-undef] / [btr-undef] (errors): a use of a predicate or branch
      target register whose use condition is provably disjoint from its
      definedness condition — the register is undefined on {e every}
      execution that reaches the use.  Definedness is tracked as a {!Pqs}
      expression per region ([Un]/[Uc] compare destinations and unguarded
      [Pred_init] define unconditionally; guarded writes and accumulator
      fires define under their guard expression); registers that are
      may-defined on region entry, or never defined anywhere (program
      inputs), count as defined.
    - [gpr-undef] (warning): plain boolean use-before-def for data
      registers, same entry/input conventions.
    - [dead-pbr] (warning): a [pbr] whose btr is never read by any branch
      in a reachable region.
    - [unreachable-guard] (warning): an op whose guard expression is
      provably constant false — dead code under every input.
    - [comp-coverage] (error): for a bypass branch into a compensation
      region whose fallthrough is {!Cpr_core.Restructure.unreachable_label},
      prove that taking the bypass implies one of the compensation
      branches takes; a satisfiable path to the unreachable label is the
      classic "bypass without compensation" miscompile. *)

val lint :
  ?only_checks:string list -> ?delta:Delta.t -> stats:Finding.stats
  -> Prog.t -> Finding.t list
(** [only_checks] restricts the lint to the named checks (as they appear
    in {!Finding.t}[.check]); the baseline-subtraction pass of
    {!Verify.check_stage} uses it to re-check the stage input against
    only the check kinds its output actually reported.

    With a [delta] whose output is the program (the errors-only stage
    check, {!Verify.stage_errors}), findings the stage input already
    exhibits may be left out, and so may the proved/unknown counts of
    the queries behind them:
    - a region's pred/btr queries are not posed when every one of its
      entry contexts (the merged may-defined set, each incoming edge's
      out-set, the program entry), restricted to the registers it
      queries before an unguarded op of the region defines them, defines
      them all — no verdict can be Undefined — or, for an unchanged
      region, contains one of the contexts the region had in the input:
      Undefined verdicts only shrink as definedness grows, so the region
      can report only what the input reports there.  A register an
      unguarded op defines is defined, for every later use, wherever
      that op was reached, whatever held on entry.  A program's contexts
      are computed only when some region needs them;
    - a bypass branch is not re-proved when its region and the
      compensation region are both unchanged.
    The regions whose queries do run are {!Delta.mark}ed. *)

type verdict =
  | Undefined  (** reported: use provably disjoint from definedness *)
  | Proved  (** use condition implies definedness *)
  | Unknown

type query = {
  region : string;
  op_id : int;
  reg : Reg.t;
  use : Cpr_analysis.Pqs.t;  (** condition under which the use executes *)
  defined : Cpr_analysis.Pqs.t;  (** condition under which the register
                                     is defined at that point *)
  verdict : verdict;
}

val queries : Prog.t -> query list
(** Every predicate/btr use-before-def query {!lint} poses, with both
    sides of the Pqs comparison — the hook the soundness property tests
    brute-force with {!Cpr_analysis.Pqs.eval}. *)
