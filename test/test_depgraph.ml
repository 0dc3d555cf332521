open Cpr_ir
module A = Cpr_analysis
module D = Cpr_analysis.Depgraph
open Helpers
module B = Builder

let build_graph ?(machine = Cpr_machine.Descr.wide) prog label =
  let l = A.Liveness.analyze prog in
  D.build machine prog l (Prog.find_exn prog label)

let has_edge g ~src ~dst pred =
  List.exists
    (fun (e : D.edge) ->
      (D.op g e.D.src).Op.id = src
      && (D.op g e.D.dst).Op.id = dst
      && pred e.D.kind)
    (D.edges g)

let is_ctrl = function D.Ctrl -> true | _ -> false
let is_flow = function D.Flow _ -> true | _ -> false
let is_anticipation = function D.Br_anticipation -> true | _ -> false
let is_exit_live = function D.Exit_live _ -> true | _ -> false

(* The headline property: the strcpy baseline has dependence height 8
   (the paper's number for Figure 6(b)) and the branches form a control
   chain; after FRP conversion the branch predicates are disjoint and the
   control chain dissolves. *)
let strcpy_heights () =
  let prog, _ = profiled_strcpy () in
  let g = build_graph prog "Loop" in
  checki "baseline dependence height (paper: 8)" 8 (D.height g);
  let branch_ids =
    List.map (fun (op : Op.t) -> op.Op.id) (Region.branches (loop_of prog))
  in
  (match branch_ids with
  | b1 :: b2 :: _ ->
    checkb "baseline branch chain" true (has_edge g ~src:b1 ~dst:b2 is_ctrl)
  | _ -> Alcotest.fail "setup");
  (* FRP-converted: no ctrl edges between branches *)
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate_region prog loop in
  let g' = build_graph prog "Loop" in
  let branch_pairs_chained =
    List.exists
      (fun (e : D.edge) ->
        is_ctrl e.D.kind
        && Op.is_branch (D.op g' e.D.src)
        && Op.is_branch (D.op g' e.D.dst))
      (D.edges g')
  in
  checkb "FRP-converted branches are unordered" false branch_pairs_chained

let store_behind_branch () =
  (* an unpredicated store below a branch carries a control edge with the
     branch latency, and the branch waits for preceding stores to land *)
  let ctx = B.create () in
  let base = B.gpr ctx and p = B.pred ctx and x = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.store e ~base ~off:0 (Op.Reg x) in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Reg x) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Exit" in
        let (_ : Op.t) = B.store e ~base ~off:1 (Op.Reg x) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" ~noalias_bases:[ base ] [ region ] in
  let g = build_graph prog "Main" in
  let ids = List.map (fun (op : Op.t) -> op.Op.id) (Prog.find_exn prog "Main").Region.ops in
  match ids with
  | [ s1; _cmp; _pbr; br; s2 ] ->
    checkb "branch -> later store (ctrl)" true (has_edge g ~src:br ~dst:s2 is_ctrl);
    checkb "earlier store -> branch (anticipation)" true
      (has_edge g ~src:s1 ~dst:br is_anticipation)
  | _ -> Alcotest.fail "setup"

let exit_live_constraint () =
  (* an op clobbering a register live at a branch target cannot move into
     the branch's shadow; a dead-dest op can *)
  let ctx = B.create () in
  let live = B.gpr ctx and dead = B.gpr ctx and p = B.pred ctx in
  let main =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Reg live) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Side" in
        let (_ : Op.t) = B.movi e live 1 in
        let (_ : Op.t) = B.movi e dead 2 in
        ())
  in
  let side =
    B.region ctx "Side" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.addi e live live 1 in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ main; side ] in
  let g = build_graph prog "Main" in
  let ids = List.map (fun (op : Op.t) -> op.Op.id) (Prog.find_exn prog "Main").Region.ops in
  match ids with
  | [ _cmp; _pbr; br; def_live; def_dead ] ->
    checkb "live-at-target def is pinned" true
      (has_edge g ~src:br ~dst:def_live is_exit_live);
    checkb "dead def may speculate" false
      (has_edge g ~src:br ~dst:def_dead (fun _ -> true))
  | _ -> Alcotest.fail "setup"

let accumulators_unordered () =
  let ctx = B.create () in
  let p_on = B.pred ctx and p_off = B.pred ctx in
  let x = B.gpr ctx and y = B.gpr ctx and q = B.pred ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.pred_init e [ (p_on, true); (p_off, false) ] in
        let (_ : Op.t) =
          B.cmpp2 e Op.Eq (Op.Ac, p_on) (Op.On, p_off) (Op.Reg x) (Op.Imm 0)
        in
        let (_ : Op.t) =
          B.cmpp2 e Op.Eq (Op.Ac, p_on) (Op.On, p_off) (Op.Reg y) (Op.Imm 0)
        in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un q (Op.Imm 0) (Op.Imm 0) ~guard:(Op.If p_on) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let g = build_graph prog "Main" in
  let ids = List.map (fun (op : Op.t) -> op.Op.id) region.Region.ops in
  match ids with
  | [ init; la1; la2; reader ] ->
    checkb "lookaheads unordered" false (has_edge g ~src:la1 ~dst:la2 (fun _ -> true));
    checkb "init feeds first lookahead" true (has_edge g ~src:init ~dst:la1 is_flow);
    checkb "init feeds second lookahead" true (has_edge g ~src:init ~dst:la2 is_flow);
    checkb "both lookaheads feed the reader" true
      (has_edge g ~src:la1 ~dst:reader is_flow
      && has_edge g ~src:la2 ~dst:reader is_flow)
  | _ -> Alcotest.fail "setup"

let disjoint_guards_relax_memory () =
  let ctx = B.create () in
  let base = B.gpr ctx and x = B.gpr ctx in
  let pt = B.pred ctx and pf = B.pred ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) =
          B.cmpp2 e Op.Eq (Op.Un, pt) (Op.Uc, pf) (Op.Reg x) (Op.Imm 0)
        in
        (* same address, complementary guards: never both execute *)
        let (_ : Op.t) = B.store e ~guard:(Op.If pt) ~base ~off:0 (Op.Imm 1) in
        let (_ : Op.t) = B.store e ~guard:(Op.If pf) ~base ~off:0 (Op.Imm 2) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let g = build_graph prog "Main" in
  let ids = List.map (fun (op : Op.t) -> op.Op.id) region.Region.ops in
  match ids with
  | [ _cmp; s1; s2 ] ->
    checkb "disjoint-guard stores unordered" false
      (has_edge g ~src:s1 ~dst:s2 (fun _ -> true))
  | _ -> Alcotest.fail "setup"

let latencies_in_asap () =
  let ctx = B.create () in
  let a = B.gpr ctx and b = B.gpr ctx and c = B.gpr ctx and base = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.load e a ~base ~off:0 in
        let (_ : Op.t) = B.alu e Op.Mul b (Op.Reg a) (Op.Imm 3) in
        let (_ : Op.t) = B.addi e c b 1 in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" ~live_out:[ c ] [ region ] in
  let g = build_graph prog "Main" in
  check Alcotest.(array int) "asap = load@0, mul@2, add@5"
    [| 0; 2; 5 |] (D.asap g);
  checki "height includes final latency" 6 (D.height g)

let priority_is_path_to_sink () =
  let prog, _ = profiled_strcpy () in
  let g = build_graph prog "Loop" in
  let p = Cpr_analysis.Height.priority g in
  let a = D.asap g in
  Array.iteri
    (fun i _ ->
      checkb "asap + priority bounded by height" true
        (a.(i) + p.(i) <= D.height g))
    p

(* Register ids are program-global, so a region late in a large program
   mentions large ids.  Renumbering every register to id + 2^20 must
   change nothing but the names: the same edges in the same order, the
   same alias verdicts, the same schedule — and the per-region tables
   must stay region-sized, so building the graph allocates about as much
   as for the original. *)
let big = 1 lsl 20
let shift_reg (r : Reg.t) = { r with Reg.id = r.Reg.id + big }

let shift_op (op : Op.t) =
  {
    op with
    Op.dests = List.map shift_reg op.Op.dests;
    srcs =
      List.map
        (function Op.Reg r -> Op.Reg (shift_reg r) | o -> o)
        op.Op.srcs;
    guard = (match op.Op.guard with Op.If p -> Op.If (shift_reg p) | g -> g);
  }

let shift_prog prog =
  let p = Prog.copy prog in
  List.iter
    (fun (r : Region.t) -> r.Region.ops <- List.map shift_op r.Region.ops)
    (Prog.regions p);
  p.Prog.live_out <- List.map shift_reg p.Prog.live_out;
  p.Prog.noalias_bases <- List.map shift_reg p.Prog.noalias_bases;
  Prog.sync_generators p;
  p

let shift_kind = function
  | D.Flow r -> D.Flow (shift_reg r)
  | D.Anti r -> D.Anti (shift_reg r)
  | D.Output r -> D.Output (shift_reg r)
  | D.Exit_live r -> D.Exit_live (shift_reg r)
  | k -> k

let edge_list ?(rename = fun k -> k) g =
  List.map
    (fun (e : D.edge) -> (e.D.src, e.D.dst, rename e.D.kind, e.D.latency))
    (D.edges g)

let allocated f =
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (f ()));
  Gc.allocated_bytes () -. before

let large_ids_change_nothing () =
  let machine = Cpr_machine.Descr.medium in
  let prog, inputs = profiled_strcpy () in
  let reduced = (Cpr_pipeline.Passes.height_reduce prog inputs).prog in
  List.iter
    (fun prog ->
      let big_prog = shift_prog prog in
      let live = A.Liveness.analyze prog in
      let big_live = A.Liveness.analyze big_prog in
      List.iter2
        (fun (r : Region.t) (br : Region.t) ->
          let where = r.Region.label in
          let g = D.build machine prog live r in
          let bg = D.build machine big_prog big_live br in
          checkb (where ^ ": same edges in the same order") true
            (edge_list ~rename:shift_kind g = edge_list bg);
          let al = A.Alias.analyze prog r in
          let bal = A.Alias.analyze big_prog br in
          let n = D.n_ops g in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              checkb
                (Printf.sprintf "%s: alias verdict %d/%d" where i j)
                (A.Alias.independent al i j)
                (A.Alias.independent bal i j)
            done
          done;
          let s = Cpr_sched.List_sched.schedule machine prog live r in
          let bs = Cpr_sched.List_sched.schedule machine big_prog big_live br in
          check Alcotest.(array int) (where ^ ": same schedule")
            s.Cpr_sched.Schedule.cycle bs.Cpr_sched.Schedule.cycle;
          (* Both builds run once above, so the predicate engine is warm
             for each and the figures compare the graph construction. *)
          let base = allocated (fun () -> D.build machine prog live r) in
          let shifted =
            allocated (fun () -> D.build machine big_prog big_live br)
          in
          if shifted > 2. *. base then
            Alcotest.failf
              "%s: renumbered build allocated %.0f bytes, original %.0f" where
              shifted base)
        (Prog.regions prog) (Prog.regions big_prog))
    [ prog; reduced ]

(* [Depgraph.data] is [build] restricted to data edges, in the same
   order: its [succs], [preds] and [edges] equal the full graph's with
   every control kind ([Ctrl], [Exit_live], [Br_anticipation]) dropped. *)
let is_data = function
  | D.Flow _ | D.Anti _ | D.Output _ | D.Mem_flow | D.Mem_anti | D.Mem_output
    -> true
  | D.Ctrl | D.Exit_live _ | D.Br_anticipation -> false

let data_graph_is_restriction where prog =
  let live = A.Liveness.analyze prog in
  List.iter
    (fun (r : Region.t) ->
      let full = D.build Cpr_machine.Descr.medium prog live r in
      let data = D.data Cpr_machine.Descr.medium prog r in
      let keep = List.filter (fun (e : D.edge) -> is_data e.D.kind) in
      let same what a b =
        if a <> b then
          Alcotest.failf "%s/%s: data graph %s differ" where r.Region.label what
      in
      same "edges" (keep (D.edges full)) (D.edges data);
      for i = 0 to D.n_ops full - 1 do
        same "succs" (keep (D.succs full i)) (D.succs data i);
        same "preds" (keep (D.preds full i)) (D.preds data i)
      done)
    (Prog.regions prog)

let data_graph_workloads () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let prog = w.build () and inputs = w.inputs () in
      List.iter
        (fun (stage : Cpr_pipeline.Passes.stage) ->
          let c = Cpr_pipeline.Passes.run ~verify:false stage prog inputs in
          data_graph_is_restriction
            (w.name ^ "/" ^ stage.Cpr_pipeline.Passes.name)
            c.Cpr_pipeline.Passes.prog)
        Cpr_pipeline.Passes.stages)
    Cpr_workloads.Registry.all

let data_graph_streams () =
  List.iter
    (fun u ->
      let prog, inputs = wide_stream u in
      let where = Printf.sprintf "stream-u%d" u in
      data_graph_is_restriction where prog;
      data_graph_is_restriction (where ^ " icbm")
        (Cpr_pipeline.Passes.height_reduce ~verify:false prog inputs)
          .Cpr_pipeline.Passes.prog)
    [ 20; 32; 64 ]

let suite =
  ( "depgraph",
    [
      case "strcpy heights and branch chains" strcpy_heights;
      case "stores vs branches" store_behind_branch;
      case "exit-live speculation constraint" exit_live_constraint;
      case "wired accumulators unordered" accumulators_unordered;
      case "disjoint guards relax memory" disjoint_guards_relax_memory;
      case "latencies in asap" latencies_in_asap;
      case "priority bounded" priority_is_path_to_sink;
      case "large register ids change nothing" large_ids_change_nothing;
      case "data graph = build's data edges on every workload stage"
        data_graph_workloads;
      case "data graph = build's data edges on wide streams"
        data_graph_streams;
    ] )
