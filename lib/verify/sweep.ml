open Cpr_ir
module Liveness = Cpr_analysis.Liveness

(* Shared scaffolding for the whole-program quality lints (Heightcheck,
   Pressurecheck): which regions a per-region analysis runs over, and a
   runner that computes liveness once for all of them.  Unreachable
   regions are dead text — scheduling or counting them would lint code
   the program cannot execute — and empty regions have nothing to
   analyze. *)

let regions_of prog =
  let reachable = Dataflow.reachable_labels prog in
  List.filter
    (fun (r : Region.t) ->
      Hashtbl.mem reachable r.Region.label && r.Region.ops <> [])
    (Prog.regions prog)

let map_regions prog ~f =
  let live = Liveness.analyze prog in
  List.map (f live) (regions_of prog)
