open Cpr_ir
module Sched_table = Cpr_sched.Sched_table

(* Shared scaffolding for the per-region checks (Heightcheck,
   Pressurecheck, Schedcheck): which regions a per-region analysis runs
   over, and a runner that hands each the program's {!Sched_table}
   version.  Unreachable regions are dead text — scheduling or counting
   them would lint code the program cannot execute — and empty regions
   have nothing to analyze. *)

let regions_of prog =
  List.filter
    (fun (r : Region.t) -> r.Region.ops <> [])
    (Delta.side prog).Delta.regions

let map_regions table prog ~f =
  let v = Sched_table.version table prog in
  List.map (f v) (regions_of prog)
