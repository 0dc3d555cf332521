(** The per-cycle rescan that {!Cpr_analysis.Pressure.of_schedule}
    replaced, kept as an oracle for it: every cycle scans every
    register's occupancy intervals, then sorts the live registers and
    greedily packs all of them, [tru]-conditioned ones included.  Same
    arguments and result as [of_schedule]. *)

open Cpr_ir

val of_schedule :
  Cpr_analysis.Liveness.t -> Region.t -> ops:Op.t array -> cycle:int array
  -> length:int -> Cpr_analysis.Pressure.t
