(** Oracles for {!Cpr_analysis.Pressure}: the per-cycle rescan that
    [of_schedule] replaced, which at every cycle scans every register's
    occupancy intervals, then sorts the live registers and greedily packs
    all of them, [tru]-conditioned ones included; and the program-point
    sweep that puts every live register, written in the region or not,
    in every point's list.  Same arguments and results as the analyses
    they check. *)

open Cpr_ir

val sweep : Cpr_analysis.Liveness.t -> Region.t -> Cpr_analysis.Pressure.t

val of_schedule :
  Cpr_analysis.Liveness.t -> Region.t -> ops:Op.t array -> cycle:int array
  -> length:int -> Cpr_analysis.Pressure.t
