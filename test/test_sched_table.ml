(* The per-run schedule table (Cpr_sched.Sched_table): a graph or
   schedule it hands out equals a fresh List_sched/Depgraph computation,
   its key separates regions that differ in anything Depgraph.build
   reads, and one Report.run builds each distinct key once. *)

open Cpr_ir
module A = Cpr_analysis
module T = Cpr_sched.Sched_table
module S = Cpr_sched.Schedule
module P = Cpr_pipeline
module W = Cpr_workloads
module Descr = Cpr_machine.Descr
module Obs = Cpr_obs.Obs
open Helpers
module B = Builder

(* [got] (from a table) equals a fresh graph and schedule of [r] in
   [prog] on [m]: same edges in the same order, same cycle array and
   length, and the caller's region. *)
let same_as_fresh where m prog live (r : Region.t) ~graph ~(sched : S.t) =
  let fresh_graph = A.Depgraph.build m prog live r in
  let fresh = Cpr_sched.List_sched.schedule m prog live r in
  let fail what =
    Alcotest.failf "%s/%s on %s: %s differs from a fresh computation" where
      r.Region.label m.Descr.name what
  in
  if A.Depgraph.edges graph <> A.Depgraph.edges fresh_graph then fail "graph";
  if sched.S.cycle <> fresh.S.cycle then fail "cycle array";
  if sched.S.length <> fresh.S.length then fail "length";
  if sched.S.ops <> fresh.S.ops then fail "ops";
  if sched.S.region != r then fail "region"

(* Every registry workload after every stage, on every machine, served
   by a table that has already scheduled the baseline code and, for each
   machine, the other machines. *)
let reused_equals_fresh () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      let inputs = w.W.Workload.inputs () in
      let base =
        (P.Passes.baseline ~verify:false prog inputs).P.Passes.prog
      in
      List.iter
        (fun (stage : P.Passes.stage) ->
          let out =
            (P.Passes.run ~verify:false stage prog inputs).P.Passes.prog
          in
          let table = T.create () in
          List.iter
            (fun m -> ignore (T.schedule_prog ~table m base : _ list))
            Descr.all;
          List.iter
            (fun m -> ignore (T.schedule_prog ~table m out : _ list))
            Descr.all;
          let v = T.version table out in
          let live = A.Liveness.analyze out in
          List.iter
            (fun m ->
              List.iter
                (fun (r : Region.t) ->
                  same_as_fresh
                    (w.W.Workload.name ^ "/" ^ stage.P.Passes.name)
                    m out live r ~graph:(T.graph v m r)
                    ~sched:(T.schedule v m r))
                (Prog.regions out))
            Descr.all)
        P.Passes.stages)
    W.Registry.all

(* Main: two stores through entry bases [a] and [c], a taken-when-[p]
   exit to Side, then a def of [y].  Side reads [y] when [side_uses_y],
   making [y] live at the exit target. *)
let key_prog ~side_uses_y =
  let ctx = B.create () in
  let a = B.gpr ctx and c = B.gpr ctx and y = B.gpr ctx in
  let p = B.pred ctx in
  let main =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.store e ~base:a ~off:0 (Op.Imm 1) in
        let (_ : Op.t) = B.store e ~base:c ~off:0 (Op.Imm 2) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Side" in
        let (_ : Op.t) = B.add e y a a in
        ())
  in
  let side =
    B.region ctx "Side" ~fallthrough:"Exit" (fun e ->
        if side_uses_y then ignore (B.add e a y y : Op.t)
        else ignore (B.movi e a 0 : Op.t))
  in
  (B.prog ctx ~entry:"Main" [ main; side ], a, c)

(* Regions that differ only in one live-at-target set, one noalias base,
   the fallthrough or one op's latency get entries of their own; the
   same region in a copy of the program, or on a machine that differs
   only in issue width, shares its graph. *)
let key_separates () =
  let m = Descr.medium in
  let table = T.create () in
  let entry prog =
    let v = T.version table prog in
    let r = Prog.find_exn prog "Main" in
    same_as_fresh "key" m prog (T.liveness v) r ~graph:(T.graph v m r)
      ~sched:(T.schedule v m r);
    T.graph v m r
  in
  let p1, a, c = key_prog ~side_uses_y:true in
  let g1 = entry p1 in
  checkb "a copy of the program shares the graph" true
    (entry (Prog.copy p1) == g1);
  let v1 = T.version table p1 in
  let main1 = Prog.find_exn p1 "Main" in
  checkb "machines with the same latencies share the graph" true
    (T.graph v1 Descr.wide main1 == g1);
  let p2, _, _ = key_prog ~side_uses_y:false in
  checkb "live set at a branch target is in the key" false (entry p2 == g1);
  let p3 = Prog.copy p1 in
  p3.Prog.noalias_bases <- [ a; c ];
  checkb "noalias bases are in the key" false (entry p3 == g1);
  let p4 = Prog.copy p1 in
  (Prog.find_exn p4 "Main").Region.fallthrough <- Some "Side";
  checkb "the fallthrough is in the key" false (entry p4 == g1);
  let slow_add =
    {
      m with
      Descr.latency =
        (function
        | Op.Alu Op.Add -> 2 | opc -> Descr.paper_latency opc);
    }
  in
  let g5 = T.graph v1 slow_add main1 in
  checkb "the latency vector is in the key" false (g5 == g1);
  let live = T.liveness v1 in
  checkb "and the graph is the slow machine's" true
    (A.Depgraph.edges g5
    = A.Depgraph.edges (A.Depgraph.build slow_add p1 live main1))

(* The counters one [Report.run] of [prog] leaves behind. *)
let counters_of_run ~name prog inputs =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      Obs.set_enabled true;
      Obs.reset ();
      ignore (P.Report.run ~name prog inputs : P.Report.result);
      let counters = Obs.counters () in
      fun name -> Option.value ~default:0 (List.assoc_opt name counters))

(* One Report.run builds each distinct graph key once and schedules each
   (key, machine issue) pair once, counted independently here over the
   regions of the two compiled codes.  A key is scheduled on the medium
   machine when a region holding it is entered, or is a reachable
   non-empty region of the height-reduced code (the schedule hazard
   check and the pressure summary read every one); on the other four
   machines, whose issue widths differ from medium's and from each
   other's, only when an entered region holds it — a never-entered
   region adds 0 cycles to every estimate.  A graph is also built for
   each reachable non-empty baseline region, which translation
   validation reads.  Liveness is analyzed once, for the baseline: the
   height-reduced code's comes from ICBM's tracker. *)
let report_builds_each_key_once () =
  let key_of prog =
    let live = A.Liveness.analyze prog in
    fun (r : Region.t) ->
      ( r.Region.ops,
        r.Region.fallthrough,
        List.map
          (fun br ->
            Reg.Set.elements (Target_reference.live_at_target live r br))
          (Region.branches r),
        prog.Prog.noalias_bases )
  in
  List.iter
    (fun (w : W.Workload.t) ->
      let name = w.W.Workload.name in
      let prog = w.W.Workload.build () in
      let inputs = w.W.Workload.inputs () in
      let base, reduced = P.Passes.compile prog inputs in
      let value c = (Cpr_resilience.Recover.value c).P.Passes.prog in
      let base = value base and reduced = value reduced in
      let graphs = Hashtbl.create 64 in
      let medium = Hashtbl.create 64 in
      let entered = Hashtbl.create 64 in
      let add tbls key = List.iter (fun t -> Hashtbl.replace t key ()) tbls in
      List.iter
        (fun p ->
          let key = key_of p in
          List.iter
            (fun (r : Region.t) ->
              if r.Region.entry_count > 0 then
                add [ graphs; medium; entered ] (key r))
            (Prog.regions p);
          List.iter
            (fun r ->
              add (if p == reduced then [ graphs; medium ] else [ graphs ])
                (key r))
            (Cpr_verify.Sweep.regions_of p))
        [ base; reduced ];
      let counter = counters_of_run ~name prog inputs in
      checki (name ^ ": graph builds") (Hashtbl.length graphs)
        (counter "sched.table.graph_misses");
      checki (name ^ ": schedules")
        (Hashtbl.length medium
        + ((List.length Descr.all - 1) * Hashtbl.length entered))
        (counter "sched.table.schedule_misses");
      checkb (name ^ ": served from the table") true
        (counter "sched.table.hits" > 0);
      checki (name ^ ": one liveness analysis") 1
        (counter "liveness.analyze");
      checki (name ^ ": computed by the table") 1
        (counter "sched.table.liveness"))
    W.Registry.all

(* Cold regions cost one schedule each: doubling the never-entered
   regions of a many-regions kernel adds at most one schedule per added
   region (the medium-machine one the hazard check and the pressure
   summary read), where scheduling every region on all five machines
   added five. *)
let cold_regions_scheduled_once () =
  let misses cold =
    let prog, inputs = cold_dispatch ~ncases:6 ~d_unroll:3 ~cold in
    let name = Printf.sprintf "cold%d" cold in
    counters_of_run ~name prog inputs "sched.table.schedule_misses"
  in
  let m125 = misses 125 and m250 = misses 250 in
  if m250 - m125 > 125 then
    Alcotest.failf
      "125 more cold regions cost %d more schedules (%d -> %d), above one each"
      (m250 - m125) m125 m250

let suite =
  ( "sched-table",
    [
      case "reused schedules and graphs equal fresh ones" reused_equals_fresh;
      case "key separates every input of Depgraph.build" key_separates;
      case "Report.run builds each key once" report_builds_each_key_once;
      case "cold regions are scheduled once" cold_regions_scheduled_once;
    ] )
