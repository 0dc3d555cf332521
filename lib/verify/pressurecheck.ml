open Cpr_ir
module Pressure = Cpr_analysis.Pressure
module Pred_env = Cpr_analysis.Pred_env
module Descr = Cpr_machine.Descr
module Sched_table = Cpr_sched.Sched_table

type row = {
  region : string;
  cls : Reg.cls;
  sweep_maxlive : int;
  sched_maxlive : int;
  file_size : int;
  margin : int;
}

let cls_name = function
  | Reg.Gpr -> "gpr"
  | Reg.Pred -> "pred"
  | Reg.Btr -> "btr"

let classes = [ Reg.Gpr; Reg.Pred; Reg.Btr ]

(* The per-cycle counts over the region's list schedule. *)
let scheduled ?env ?cx machine v (r : Region.t) =
  let sched = Sched_table.schedule ?env v machine r in
  Pressure.of_schedule ?cx (Sched_table.liveness v) r
    ~ops:sched.Cpr_sched.Schedule.ops ~cycle:sched.Cpr_sched.Schedule.cycle
    ~length:sched.Cpr_sched.Schedule.length

(* One predicate environment per region, shared by the pressure context,
   the schedule and (when the graph is built here) the graph; one
   pressure context, shared by the sweep and the schedule count. *)
let region_rows machine v (r : Region.t) =
  let env = Pred_env.analyze r in
  let live = Sched_table.liveness v in
  let cx = Pressure.context ~env live r in
  let sw = Pressure.sweep ~cx live r in
  let sc = scheduled ~env ~cx machine v r in
  List.map
    (fun cls ->
      let sweep_maxlive = Pressure.maxlive sw cls in
      let sched_maxlive = Pressure.maxlive sc cls in
      let file_size = Descr.regfile_size machine cls in
      {
        region = r.Region.label;
        cls;
        sweep_maxlive;
        sched_maxlive;
        file_size;
        margin = file_size - max sweep_maxlive sched_maxlive;
      })
    classes

let rows_in table machine prog =
  List.concat (Sweep.map_regions table prog ~f:(region_rows machine))

let rows ?(machine = Descr.medium) prog =
  rows_in (Sched_table.create ()) machine prog

(* Program-level figure per class: the worst region's scheduled
   (allocator-visible) predicate-aware MAXLIVE, read from each item by
   [maxlive item cls]. *)
let worst_per_class maxlive items =
  List.map
    (fun cls ->
      (cls, List.fold_left (fun acc x -> max acc (maxlive x cls)) 0 items))
    classes

(* Only the scheduled count: the unscheduled sweep is for the lint rows. *)
let summary ?(machine = Descr.medium) ?(table = Sched_table.create ()) prog =
  worst_per_class Pressure.maxlive
    (Sweep.map_regions table prog ~f:(scheduled machine))

let check ?(machine = Descr.medium) ?(growth_factor = 1.5) ?baseline ~stats
    prog =
  let table = Sched_table.create () in
  let rs = rows_in table machine prog in
  let findings = ref [] in
  List.iter
    (fun row ->
      (* Allocatability is judged on the scheduled count — that is the
         pressure a post-scheduling allocator actually faces; the sweep
         is reported for context but scheduling may legitimately exceed
         it by overlapping lifetimes. *)
      if row.sched_maxlive > row.file_size then
        findings :=
          Finding.make ~check:"pressure-unallocatable"
            ~region:row.region ~subject:(cls_name row.cls)
            (Printf.sprintf
               "%s MAXLIVE %d exceeds the %d-register %s file of %s — the \
                region cannot be allocated without spill code"
               (cls_name row.cls) row.sched_maxlive row.file_size
               (cls_name row.cls) machine.Descr.name)
          :: !findings
      else stats.Finding.proved <- stats.Finding.proved + 1)
    rs;
  (match baseline with
  | None -> ()
  | Some before ->
    let base = summary ~machine ~table before in
    List.iter
      (fun (cls, cur) ->
        let b = List.assoc cls base in
        (* Small absolute grace on top of the ratio: CPR legitimately
           mints a handful of FRPs, and tiny baselines (maxlive 1-2)
           would otherwise flag any growth at all. *)
        if cur > int_of_float (growth_factor *. float_of_int b) + 4 then
          findings :=
            Finding.make ~check:"pressure-growth"
              ~region:"(program)" ~subject:(cls_name cls)
              (Printf.sprintf
                 "%s MAXLIVE grew from %d to %d (more than %.1fx + 4) across \
                  the transformation — CPR is trading register pressure for \
                  height"
                 (cls_name cls) b cur growth_factor)
            :: !findings)
      (worst_per_class
         (fun row cls -> if row.cls = cls then row.sched_maxlive else 0)
         rs));
  (rs, List.rev !findings)
