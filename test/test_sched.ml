open Cpr_ir
module A = Cpr_analysis
module S = Cpr_sched
module M = Cpr_machine.Descr
open Helpers

let schedule machine prog label =
  let l = A.Liveness.analyze prog in
  S.List_sched.schedule machine prog l (Prog.find_exn prog label)

let strcpy_lengths () =
  let prog, _ = profiled_strcpy () in
  (* sequential: one op per cycle, 30 ops *)
  checki "sequential length = op count" 30
    (schedule M.sequential prog "Loop").S.Schedule.length;
  (* paper: the unroll-4 superblock has height 8 on a wide machine *)
  checki "wide length = dependence height" 8
    (schedule M.wide prog "Loop").S.Schedule.length;
  checkb "narrow between" true
    (let l = (schedule M.narrow prog "Loop").S.Schedule.length in
     l >= 8 && l <= 30)

let checker_accepts_all_machines () =
  let prog, _ = profiled_strcpy () in
  let l = A.Liveness.analyze prog in
  List.iter
    (fun m ->
      List.iter
        (fun (r : Region.t) ->
          let g = A.Depgraph.build m prog l r in
          let s = S.List_sched.schedule m prog l r in
          check
            Alcotest.(list string)
            (Printf.sprintf "%s/%s valid" m.M.name r.Region.label)
            [] (S.Schedule.check m g s))
        (Prog.regions prog))
    M.all

let checker_rejects_tampering () =
  let prog, _ = profiled_strcpy () in
  let l = A.Liveness.analyze prog in
  let r = Prog.find_exn prog "Loop" in
  let m = M.wide in
  let g = A.Depgraph.build m prog l r in
  let s = S.List_sched.schedule m prog l r in
  (* pull the last op to cycle 0: must violate something *)
  let cycle = Array.copy s.S.Schedule.cycle in
  cycle.(Array.length cycle - 1) <- 0;
  let bad = { s with S.Schedule.cycle } in
  checkb "tampered schedule rejected" true (S.Schedule.check m g bad <> [])

let sequential_one_per_cycle () =
  let prog, _ = profiled_strcpy () in
  let s = schedule M.sequential prog "Loop" in
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      checkb "one op per cycle" false (Hashtbl.mem seen c);
      Hashtbl.replace seen c ())
    s.S.Schedule.cycle

let narrow_respects_class_limits () =
  let prog, _ = profiled_strcpy () in
  let s = schedule M.narrow prog "Loop" in
  let per_cycle_class = Hashtbl.create 64 in
  Array.iteri
    (fun i op ->
      let key = (s.S.Schedule.cycle.(i), M.fu_of_op op) in
      Hashtbl.replace per_cycle_class key
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_cycle_class key)))
    s.S.Schedule.ops;
  Hashtbl.iter
    (fun (_, fu) n ->
      checkb "class limit respected" true (n <= M.slots M.narrow fu))
    per_cycle_class

let branch_issue_lookup () =
  let prog, _ = profiled_strcpy () in
  let s = schedule M.wide prog "Loop" in
  let br = List.hd (Region.branches (Prog.find_exn prog "Loop")) in
  checkb "branch issue found" true (S.Schedule.branch_issue s br.Op.id <> None);
  checkb "unknown op" true (S.Schedule.branch_issue s 99999 = None)

let cpr_code_schedules_shorter_on_wide () =
  let prog, inputs, baseline = paper_transformed_strcpy () in
  Cpr_pipeline.Passes.profile prog inputs;
  let before = (schedule M.wide baseline "Loop").S.Schedule.length in
  let after = (schedule M.wide prog "Loop").S.Schedule.length in
  checkb
    (Printf.sprintf "wide loop length shrinks (%d -> %d; paper 8 -> 7)" before
       after)
    true
    (after < before)

(* property: every schedule of every machine on random programs passes the
   checker *)
let prop_schedules_valid =
  QCheck2.Test.make ~name:"list schedules respect deps and resources" ~count:40
    QCheck2.Gen.(int_range 0 400)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let l = A.Liveness.analyze prog in
      List.for_all
        (fun m ->
          List.for_all
            (fun (r : Region.t) ->
              let g = A.Depgraph.build m prog l r in
              let s = S.List_sched.schedule m prog l r in
              S.Schedule.check m g s = [])
            (Prog.regions prog))
        [ M.sequential; M.narrow; M.medium; M.wide; M.infinite ])

(* The original O(n^2 * cycles) list scheduler: every round rescans all
   unscheduled ops and recomputes readiness from scratch.  Same greedy
   policy as [List_sched.schedule] (decreasing critical-path priority,
   ties by program order); returns the cycle array and schedule length. *)
let schedule_reference machine prog liveness (region : Region.t) =
  let module D = A.Depgraph in
  let graph = D.build machine prog liveness region in
  let n = D.n_ops graph in
  let ops = Array.init n (D.op graph) in
  let priority = A.Height.priority graph in
  let cycle = Array.make n (-1) in
  let resources = Cpr_machine.Resource.create machine in
  let unscheduled = ref n in
  let ready_time i =
    (* Defined only once all predecessors are placed. *)
    List.fold_left
      (fun acc (e : D.edge) ->
        if cycle.(e.D.src) < 0 then max_int
        else max acc (cycle.(e.D.src) + e.D.latency))
      0 (D.preds graph i)
  in
  let by_priority a b =
    match Int.compare priority.(b) priority.(a) with
    | 0 -> Int.compare a b
    | c -> c
  in
  let current = ref 0 in
  (* Upper bound on useful cycles: everything sequential at max latency. *)
  let fuel = ref ((n + 1) * 16) in
  while !unscheduled > 0 && !fuel > 0 do
    decr fuel;
    (* Zero- and negative-latency edges (branch anticipation, anti
       dependences) allow producer and consumer in the same cycle, so
       placements cascade within a cycle until fixpoint. *)
    let progress = ref true in
    while !progress do
      progress := false;
      let candidates = ref [] in
      for i = 0 to n - 1 do
        if cycle.(i) < 0 then begin
          let r = ready_time i in
          if r <> max_int && r <= !current then candidates := i :: !candidates
        end
      done;
      List.iter
        (fun i ->
          if Cpr_machine.Resource.available resources ~cycle:!current ops.(i)
          then begin
            Cpr_machine.Resource.reserve resources ~cycle:!current ops.(i);
            cycle.(i) <- !current;
            decr unscheduled;
            progress := true
          end)
        (List.sort by_priority !candidates)
    done;
    incr current
  done;
  if !unscheduled > 0 then
    Alcotest.failf "reference scheduler: no progress in region %s"
      region.Region.label;
  let length = ref 0 in
  Array.iteri
    (fun i op -> length := max !length (cycle.(i) + M.latency_of machine op))
    ops;
  (cycle, !length)

(* Equivalence oracle for the ready-queue rewrite: the production
   scheduler and the reference above must emit identical cycle arrays
   (hence lengths) for every region, on every machine, across the whole
   workload registry and a fuzz battery. *)
let oracle_agrees name machine prog =
  let l = A.Liveness.analyze prog in
  List.iter
    (fun (r : Region.t) ->
      let s_new = S.List_sched.schedule machine prog l r in
      let ref_cycle, ref_length = schedule_reference machine prog l r in
      let where =
        Printf.sprintf "%s/%s/%s" name machine.M.name r.Region.label
      in
      checki (where ^ " length") ref_length s_new.S.Schedule.length;
      check
        Alcotest.(array int)
        (where ^ " cycles") ref_cycle s_new.S.Schedule.cycle)
    (Prog.regions prog)

let oracle_on_workloads () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let prog = w.Cpr_workloads.Workload.build () in
      List.iter
        (fun m -> oracle_agrees w.Cpr_workloads.Workload.name m prog)
        M.all)
    Cpr_workloads.Registry.all

let oracle_on_fuzz_programs () =
  for seed = 0 to 199 do
    let prog = Cpr_workloads.Gen.prog_of_seed seed in
    List.iter
      (fun m -> oracle_agrees (Printf.sprintf "seed%d" seed) m prog)
      M.all
  done

(* The kernel ladders of the wide-regions benchmark, raw, after
   superblock formation and after ICBM: long superblocks and hyperblocks
   where the per-class ready heaps and the rescan reference have the
   most candidates to order. *)
let long_region_programs () =
  let versions name (prog, inputs) =
    [
      (name ^ "/raw", prog);
      ( name ^ "/baseline",
        (Cpr_pipeline.Passes.baseline ~verify:false prog inputs)
          .Cpr_pipeline.Passes.prog );
      ( name ^ "/icbm",
        (Cpr_pipeline.Passes.height_reduce ~verify:false prog inputs)
          .Cpr_pipeline.Passes.prog );
    ]
  in
  List.concat_map
    (fun u -> versions (Printf.sprintf "stream%d" u) (wide_stream u))
    [ 20; 32; 64 ]
  @ List.concat_map
      (fun d -> versions (Printf.sprintf "dispatch%d" d) (wide_dispatch d))
      [ 8; 10 ]

let oracle_on_long_regions () =
  List.iter
    (fun (name, prog) -> List.iter (fun m -> oracle_agrees name m prog) M.all)
    (long_region_programs ())

(* Scheduling work follows region length: doubling the unrolled stream
   at most multiplies the scheduler's allocation by 2.5 on the two
   machines that keep the most ops waiting (a per-round sort of every
   candidate grows it about fourfold).  The graph is built outside the
   measurement. *)
let allocation_grows_near_linearly () =
  let largest unroll =
    let prog, _ = wide_stream unroll in
    let r =
      List.fold_left
        (fun (best : Region.t) (r : Region.t) ->
          if Region.static_op_count r > Region.static_op_count best then r
          else best)
        (List.hd (Prog.regions prog))
        (Prog.regions prog)
    in
    (prog, r)
  in
  let words machine (prog, r) =
    let g = A.Depgraph.build machine prog (A.Liveness.analyze prog) r in
    let before = Gc.minor_words () in
    let (_ : S.Schedule.t) = S.List_sched.of_graph machine r g in
    Gc.minor_words () -. before
  in
  let small = largest 32 and big = largest 64 in
  List.iter
    (fun m ->
      let ratio = words m big /. words m small in
      checkb
        (Printf.sprintf "%s: minor words x%.2f per doubling (at most x2.5)"
           m.M.name ratio)
        true (ratio <= 2.5))
    [ M.sequential; M.narrow ]

let suite =
  ( "scheduler",
    [
      case "strcpy schedule lengths" strcpy_lengths;
      case "checker accepts our schedules" checker_accepts_all_machines;
      case "checker rejects tampering" checker_rejects_tampering;
      case "sequential issues one op per cycle" sequential_one_per_cycle;
      case "narrow class limits" narrow_respects_class_limits;
      case "branch issue lookup" branch_issue_lookup;
      case "CPR shortens the wide loop" cpr_code_schedules_shorter_on_wide;
      case "ready-queue = reference on all workloads" oracle_on_workloads;
      case "ready-queue = reference on 200 fuzz programs"
        oracle_on_fuzz_programs;
      case "ready heaps = reference on long regions" oracle_on_long_regions;
      case "scheduler allocation grows near-linearly"
        allocation_grows_near_linearly;
      QCheck_alcotest.to_alcotest prop_schedules_valid;
    ] )
