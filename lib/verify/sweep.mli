open Cpr_ir

(** Shared per-region sweep scaffolding for the quality lints.

    {!Heightcheck} and {!Pressurecheck} both analyze every reachable
    non-empty region of a program against one liveness solution; this
    module owns that enumeration so the two checks (and any future
    per-region lint) agree on which regions count. *)

val regions_of : Prog.t -> Region.t list
(** Reachable (from the program entry) regions with at least one op, in
    program layout order. *)

val map_regions :
  Prog.t -> f:(Cpr_analysis.Liveness.t -> Region.t -> 'a) -> 'a list
(** Run [f] over {!regions_of}, computing liveness once. *)
