(* The estimators as they were before they skipped zero-charge regions:
   every region of the program is scheduled (or, for the bound, has its
   graph summarized) and charged, entered or not.  Kept as the oracle
   that Perf's estimates equal. *)

open Cpr_ir
module Sched_table = Cpr_sched.Sched_table

let sum_schedules ?(table = Sched_table.create ()) machine prog charge =
  let v = Sched_table.version table prog in
  List.fold_left
    (fun acc (r : Region.t) ->
      acc + charge r (Sched_table.schedule v machine r))
    0 (Prog.regions prog)

let estimate ?table machine prog =
  sum_schedules ?table machine prog (fun region s ->
      s.Cpr_sched.Schedule.length * region.Region.entry_count)

let estimate_exit_aware ?table machine prog =
  sum_schedules ?table machine prog (fun region s ->
      let taken_total = ref 0 in
      let exit_cycles = ref 0 in
      List.iter
        (fun (br : Op.t) ->
          let taken = Region.taken_count region br.Op.id in
          if taken > 0 then begin
            taken_total := !taken_total + taken;
            match Cpr_sched.Schedule.branch_issue s br.Op.id with
            | Some c ->
              exit_cycles :=
                !exit_cycles
                + (taken * (c + Cpr_machine.Descr.latency_of machine br))
            | None -> exit_cycles := !exit_cycles + (taken * s.length)
          end)
        (Region.branches region);
      let fallthrough_entries =
        max 0 (region.Region.entry_count - !taken_total)
      in
      !exit_cycles + (fallthrough_entries * s.Cpr_sched.Schedule.length))

let bound_estimate ?(table = Sched_table.create ()) machine prog =
  let v = Sched_table.version table prog in
  List.fold_left
    (fun acc (r : Region.t) ->
      if r.Region.ops = [] then acc
      else
        let g = Sched_table.graph v machine r in
        let s = Cpr_analysis.Height.summarize machine g in
        acc + (s.Cpr_analysis.Height.bound * r.Region.entry_count))
    0 (Prog.regions prog)
