open Cpr_ir

(** The restructure phase (Section 5.3): insert lookahead compares,
    initialize and compute the on-trace / off-trace FRPs, insert the
    bypass branch (fall-through variation) or re-wire the final branch
    (taken variation), create the empty compensation region, and re-wire
    uses of the block's fall-through predicates past the bypass to the
    on-trace FRP. *)

(** An id-based reference to a CPR block, stable under op insertion
    (match produces index-based blocks against the pre-transformation op
    list; the driver converts them). *)
type block_ref = {
  compare_ids : int list;
  branch_ids : int list;  (** aligned with [compare_ids] *)
  root_guard : Op.guard;
  taken_variation : bool;
}

type plan = {
  block : block_ref;
  bypass_id : int;
      (** the inserted bypass branch (fall-through variation) or the
          re-wired final branch (taken variation) *)
  p_on : Reg.t;
  p_off : Reg.t;
  comp_label : string;
  uc_dests : Reg.t list;  (** fall-through predicates of the compares *)
}

val unreachable_label : string
(** Fallthrough label of fall-through-variation compensation blocks; the
    off-trace FRP is exact, so executing past the last compensation branch
    is impossible — reaching this label in the interpreter signals a
    transformation bug. *)

val uc_dests_of : Op.t -> Reg.t list
(** The [Uc] destinations of a [cmpp]: its fall-through predicates when
    it is a compare of a CPR block.  [[]] for any other op. *)

val transform_block :
  Prog.t -> Region.t -> subst:Reg.t Reg.Tbl.t -> block_ref -> plan
(** Restructure one non-trivial CPR block of the region (in place),
    creating the (empty) compensation region.  [subst] maps fall-through
    predicates of earlier blocks to their on-trace FRPs; it is consulted
    to resolve the root guard and extended with this block's re-wirings.
    The [Pred_init] initializations are accumulated by the caller via
    {!pred_init_pairs}. *)

val pred_init_pairs : plan -> (Reg.t * bool) list
(** Predicate initializations this plan requires at region top:
    always [p_off = 0]; additionally [p_on = 1] when the root predicate is
    true (otherwise the on-trace FRP was initialized in place with the
    [cmpp.un eq (0,0) if root] idiom). *)
