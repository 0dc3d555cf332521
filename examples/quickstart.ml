(* Quickstart: the paper's Section 6 walk-through.

   Builds the unrolled strcpy inner loop of Figure 6(b), applies each
   ICBM phase separately — FRP conversion (Fig. 6(c)), predicate
   speculation (Fig. 7(a)), restructure + off-trace motion with the
   paper's exact two-block partition (Figs. 7(b)/(c)) — and reports the
   op counts and dependence heights the paper quotes: 30 loop ops becoming
   28 on-trace + 11 compensation ops, height 8 -> 7.

   Run with: dune exec examples/quickstart.exe *)

open Cpr_ir
module W = Cpr_workloads
module P = Cpr_pipeline

let banner fmt = Format.printf ("@.==== " ^^ fmt ^^ " ====@.")

(* The controlling compare of each branch: the unique op defining its
   guard predicate. *)
let branch_compare_pairs (region : Region.t) =
  List.filter_map
    (fun (br : Op.t) ->
      match br.Op.guard with
      | Op.True -> None
      | Op.If p ->
        List.find_opt
          (fun (op : Op.t) -> List.exists (Reg.equal p) (Op.defs op))
          region.Region.ops
        |> Option.map (fun (cmp : Op.t) -> (cmp.Op.id, br.Op.id)))
    (Region.branches region)

let () =
  let prog = W.Strcpy.paper_example () in
  let inputs = W.Strcpy.inputs () in
  banner "Figure 6(b): unrolled strcpy superblock";
  let loop = Prog.find_exn prog "Loop" in
  Format.printf "%s@." (Printer.region_to_text loop);
  Format.printf "loop ops: %d@." (Region.static_op_count loop);

  P.Passes.profile prog inputs;
  let baseline = Prog.copy prog in

  banner "Figure 6(c): after FRP conversion";
  let converted = Cpr_core.Frp.convert_region prog loop in
  assert converted;
  Format.printf "%s@." (Printer.region_to_text loop);

  banner "Figure 7(a): after predicate speculation";
  let stats = Cpr_core.Spec.speculate_region prog loop in
  Format.printf "promoted %d ops, demoted %d@." stats.Cpr_core.Spec.promoted
    stats.Cpr_core.Spec.demoted;
  Format.printf "%s@." (Printer.region_to_text loop);

  banner "Figures 7(b)/(c): restructure + off-trace motion, paper blocking";
  (* The paper groups the first two exit branches into a fall-through CPR
     block and the last exit + loop-back into a likely-taken block. *)
  let pairs = branch_compare_pairs loop in
  let cmp = List.map fst pairs and brs = List.map snd pairs in
  let nth = List.nth in
  let guard_of id =
    match Region.find_op loop id with
    | Some op -> op.Op.guard
    | None -> Op.True
  in
  let blocks =
    [
      {
        Cpr_core.Restructure.compare_ids = [ nth cmp 0; nth cmp 1 ];
        branch_ids = [ nth brs 0; nth brs 1 ];
        root_guard = guard_of (nth cmp 0);
        taken_variation = false;
      };
      {
        Cpr_core.Restructure.compare_ids = [ nth cmp 2; nth cmp 3 ];
        branch_ids = [ nth brs 2; nth brs 3 ];
        root_guard = guard_of (nth cmp 2);
        taken_variation = true;
      };
    ]
  in
  let s = Cpr_core.Icbm.transform_region_with_blocks prog loop blocks in
  Format.printf "%a@." Cpr_core.Icbm.pp_stats s;
  let removed = Cpr_core.Dce.run prog in
  Format.printf "dce removed %d ops@." removed;
  Validate.check_exn prog;
  Format.printf "%s@." (Printer.region_to_text (Prog.find_exn prog "Loop"));
  List.iter
    (fun (r : Region.t) ->
      if String.length r.Region.label >= 3 && String.sub r.Region.label 0 3 = "Cmp"
      then Format.printf "%s@." (Printer.region_to_text r))
    (Prog.regions prog);

  banner "Section 6 summary";
  let on_trace = Region.static_op_count (Prog.find_exn prog "Loop") in
  let comp =
    List.fold_left
      (fun acc (r : Region.t) ->
        if
          String.length r.Region.label >= 3
          && String.sub r.Region.label 0 3 = "Cmp"
        then acc + Region.static_op_count r
        else acc)
      0 (Prog.regions prog)
  in
  Format.printf
    "paper: 30 loop ops -> 28 on-trace + 11 compensation; measured: %d -> %d \
     on-trace + %d compensation@."
    (Region.static_op_count (Prog.find_exn baseline "Loop"))
    on_trace comp;
  (match Cpr_sim.Equiv.check_many baseline prog inputs with
  | Ok () -> Format.printf "transformed code is equivalent to the original@."
  | Error e -> Format.printf "EQUIVALENCE FAILURE: %s@." e);
  P.Passes.profile prog inputs;
  List.iter
    (fun (m : Cpr_machine.Descr.t) ->
      let lb = Cpr_sched.Sched_table.schedule_prog m baseline in
      let lr = Cpr_sched.Sched_table.schedule_prog m prog in
      Format.printf "%s: loop schedule length %d -> %d@."
        m.Cpr_machine.Descr.name
        (List.assoc "Loop" lb).Cpr_sched.Schedule.length
        (List.assoc "Loop" lr).Cpr_sched.Schedule.length)
    Cpr_machine.Descr.all
