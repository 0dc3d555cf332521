open Cpr_ir

(** The match phase (Section 5.2, Figure 5): cover the branches of a
    hyperblock with CPR blocks, each grown branch-by-branch until one of
    the four tests terminates it:

    - {b suitability}: the candidate branch's guard must be computed
      unconditionally (UN) by a compare whose own guard belongs to the
      suitable-predicate set, so the schematic off-trace FRP
      [root /\ (bc1 \/ ... \/ bcn)] is exact;
    - {b separability}: the candidate's compare must not be a (transitive)
      flow-dependence successor of the compares already in the block
      (which ICBM moves off-trace), ignoring the dependence through a
      fall-through predicate used as a later compare's guard;
    - {b exit-weight}: profile heuristic bounding cumulative exit
      frequency;
    - {b predict-taken}: a predominantly taken candidate closes the block
      as a likely-taken block (taken restructure variation). *)

type cpr_block = {
  branch_idxs : int list;  (** op indexes of the branches, in order *)
  compare_idxs : int list;  (** aligned op indexes of the guarding compares *)
  root_guard : Op.guard;
      (** guard of the first compare: the block's root predicate *)
  taken_variation : bool;
  entry_freq : int;  (** profiled frequency of reaching the first branch *)
}

val nontrivial : cpr_block -> bool
(** More than one branch, or a single likely-taken branch: worth
    restructuring. *)

val run : Heur.t -> Prog.t -> Region.t -> cpr_block list
(** The blocks cover all branches of the region in order; branches that
    fail suitability on their own (e.g. guard defined by no unique UN
    compare) appear as trivial single-branch blocks with
    [compare_idxs = []]. *)

val pp : Format.formatter -> cpr_block -> unit
