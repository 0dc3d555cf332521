open Cpr_ir

(** Off-trace motion (Section 5.4): move the block's original compares
    and branches — and everything data-dependent on them — into the
    compensation region; split the subset whose effect the on-trace path
    also needs (most commonly stores), placing the on-trace copies right
    after the bypass branch guarded by the on-trace FRP; and additionally
    move operations whose results are used only off-trace (set 3, e.g.
    the prepare-to-branch ops feeding moved branches). *)

type stats = {
  moved : int;
  split : int;
}

val apply :
  Prog.t -> Cpr_analysis.Liveness.t -> Region.t -> Restructure.plan -> stats
(** Fill the plan's compensation region and rewrite the on-trace region
    in place.  For the taken variation, every op past the final branch
    (the hyperblock tail) also moves to the compensation region.  The
    liveness must describe the program as it stands (after the block's
    restructure). *)
