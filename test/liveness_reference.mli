open Cpr_ir

(** The round-robin liveness solver that {!Cpr_analysis.Liveness}
    replaced, kept as its oracle: it compiles every region afresh on
    each call and sweeps all regions, in reverse layout order, until a
    sweep changes nothing.  Same transfer ({!Cpr_analysis.Liveness.kills},
    [Op.uses], branch targets merged) and the same boundary (the
    program's [live_out] at exit labels). *)

type t

val analyze : Prog.t -> t

val live_in : t -> string -> Reg.Set.t
(** Registers live on entry to a label (program [live_out] for exit
    labels, empty for a label that is neither an exit nor a region). *)

val live_out_region : t -> Region.t -> Reg.Set.t
(** Registers live when the region is exited by falling through. *)
