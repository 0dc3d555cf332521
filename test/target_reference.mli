open Cpr_ir

(** The per-branch target resolution that {!Region.branch_targets} and
    {!Cpr_analysis.Liveness.live_at_branches} replaced, kept as an
    oracle for them: each query rescans the region from its first op. *)

val branch_target : Region.t -> Op.t -> string option
(** Static target of a branch: the label prepared by the last [pbr]
    before the branch (found by op id) that writes the branch's btr
    source.  [None] when the branch has no btr source or no preceding
    [pbr] defines it. *)

val live_at_target :
  Cpr_analysis.Liveness.t -> Region.t -> Op.t -> Reg.Set.t
(** Registers live at the target of a branch of the region: the
    target's live-in set, or the program's [live_out] when the branch
    has no target. *)
