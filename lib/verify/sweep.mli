open Cpr_ir

(** Shared per-region sweep scaffolding for the quality lints and the
    schedule hazard check.

    {!Heightcheck}, {!Pressurecheck} and {!Schedcheck} analyze every
    reachable non-empty region of a program against one liveness
    solution; this module owns that enumeration so the checks (and any
    future per-region lint) agree on which regions count. *)

val regions_of : Prog.t -> Region.t list
(** Reachable (from the program entry) regions with at least one op, in
    program layout order. *)

val map_regions :
  Cpr_sched.Sched_table.t -> Prog.t
  -> f:(Cpr_sched.Sched_table.version -> Region.t -> 'a) -> 'a list
(** Run [f] over {!regions_of} with the program's version in the table
    (its liveness computed once, its graphs and schedules shared). *)
