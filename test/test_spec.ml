open Cpr_ir
open Helpers
module B = Builder

(* Figure 7(a): after speculation the FRP-converted strcpy has every
   load/alu/pbr back at True, stores keep their block FRPs, compares are
   untouched. *)
let strcpy_fig7a () =
  let prog, inputs = profiled_strcpy () in
  let baseline = Prog.copy prog in
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let stats = Cpr_core.Spec.speculate_region prog loop in
  checki "fourteen promotions (incl. the cursor advances)" 14
    stats.Cpr_core.Spec.promoted;
  checki "no demotions needed" 0 stats.Cpr_core.Spec.demoted;
  List.iter
    (fun (op : Op.t) ->
      match op.Op.opcode with
      | Op.Store ->
        checkb
          (Printf.sprintf "store %d stays guarded" op.Op.id)
          true
          (op.Op.guard <> Op.True || Region.op_index loop op.Op.id < 2)
      | Op.Alu _ | Op.Load | Op.Pbr ->
        checkb
          (Printf.sprintf "op %d promoted" op.Op.id)
          true (op.Op.guard = Op.True)
      | _ -> ())
    loop.Region.ops;
  expect_equiv baseline prog inputs

(* Stores are never promoted even when it would be value-safe. *)
let stores_never_promoted () =
  let ctx = B.create () in
  let base = B.gpr ctx and p = B.pred ctx and x = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Reg x) (Op.Imm 0) in
        let (_ : Op.t) = B.store e ~guard:(Op.If p) ~base ~off:0 (Op.Imm 1) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate prog in
  let store = List.find Op.is_store region.Region.ops in
  checkb "store still guarded" true (store.Op.guard = Op.If p)

(* Promotion is blocked when the destination is live under the guard's
   complement (a value another path needs). *)
let clobber_blocks_promotion () =
  let ctx = B.create () in
  let p = B.pred ctx and pf = B.pred ctx and r = B.gpr ctx and x = B.gpr ctx in
  let base = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.movi e r 1 in
        let (_ : Op.t) =
          B.cmpp2 e Op.Eq (Op.Un, p) (Op.Uc, pf) (Op.Reg x) (Op.Imm 0)
        in
        (* overwrite r only when p; the pf path still stores the old r *)
        let (_ : Op.t) = B.movi e ~guard:(Op.If p) r 2 in
        let (_ : Op.t) = B.store e ~guard:(Op.If pf) ~base ~off:0 (Op.Reg r) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let baseline = Prog.copy prog in
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate prog in
  let guarded_mov =
    List.find
      (fun (op : Op.t) ->
        match op.Op.opcode with Op.Alu Op.Mov -> op.Op.srcs = [ Op.Imm 0; Op.Imm 2 ] | _ -> false)
      region.Region.ops
  in
  checkb "clobbering mov not promoted" true (guarded_mov.Op.guard = Op.If p);
  expect_equiv baseline prog
    [
      { Cpr_sim.Equiv.memory = []; gprs = [ (x, 0) ]; preds = [] };
      { Cpr_sim.Equiv.memory = []; gprs = [ (x, 1) ]; preds = [] };
    ]

(* The second demotion criterion: an op writing a value that is live at a
   preceding branch's target is demoted back after promotion, replacing
   the branch dependence with a data dependence (the accumulator case). *)
let branch_dependent_demotion () =
  let spec =
    {
      Cpr_workloads.Kernels.default_stream with
      Cpr_workloads.Kernels.unroll = 2;
      work = 1;
      store = false;
      accumulate = true;
      counted = true;
    }
  in
  let prog = Cpr_workloads.Kernels.stream_prog spec in
  let inputs =
    [ Cpr_workloads.Kernels.stream_input ~spec ~len:40 ~exit_probability:0.05
        ~seed:3 ]
  in
  Cpr_pipeline.Passes.profile prog inputs;
  let loop = Prog.find_exn prog "Loop" in
  assert (Cpr_core.Frp.convert_region prog loop);
  let stats = Cpr_core.Spec.speculate_region prog loop in
  checkb "some demotion happened" true (stats.Cpr_core.Spec.demoted > 0);
  (* the accumulator adds (dest live at Exit) must be guarded, except the
     one before the first branch *)
  let acc_adds =
    List.filter
      (fun (op : Op.t) ->
        match (op.Op.opcode, op.Op.srcs) with
        | Op.Alu Op.Add, Op.Reg a :: _ ->
          List.exists (Reg.equal a) op.Op.dests
        | _ -> false)
      loop.Region.ops
  in
  checkb "found accumulators" true (List.length acc_adds >= 2);
  let guarded =
    List.filter (fun (op : Op.t) -> op.Op.guard <> Op.True) acc_adds
  in
  checkb "later accumulators demoted" true (List.length guarded >= 1)

(* Promotion legality does linear work per region: counted in predicate
   expressions interned (a timing-free measure of DNF construction), the
   cost of [Spec.speculate] on a cold engine grows no faster than a small
   factor over the growth in program size.  A check that rebuilds a path
   expression per (candidate, destination) pair grows ×7.5 on the stream
   ladder and ×5.1 on the dispatch ladder. *)
module Obs = Cpr_obs.Obs

let interned = Obs.counter "pqs.interned"

let speculate_interned (prog, inputs) =
  let p = Cpr_pipeline.Passes.prepare prog inputs in
  ignore (Cpr_core.Frp.convert p : int);
  Cpr_analysis.Pqs.invalidate ();
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      ignore (Cpr_core.Spec.speculate p : Cpr_core.Spec.stats);
      (Prog.static_op_count p, Obs.counter_value interned))

let check_growth name ~bound (ops_small, small) (ops_large, large) =
  let growth = float_of_int large /. float_of_int small in
  if growth > bound then
    Alcotest.failf
      "%s: pqs.interned grew x%.2f (%d -> %d) for ops x%.2f (%d -> %d); \
       bound x%.1f"
      name growth small large
      (float_of_int ops_large /. float_of_int ops_small)
      ops_small ops_large bound

let speculation_growth () =
  check_growth "stream unroll 20 -> 64" ~bound:4.
    (speculate_interned (wide_stream 20))
    (speculate_interned (wide_stream 64));
  check_growth "dispatch d_unroll 4 -> 10" ~bound:3.5
    (speculate_interned (wide_dispatch 4))
    (speculate_interned (wide_dispatch 10))

let prop_spec_preserves_semantics =
  QCheck2.Test.make ~name:"FRP + speculation preserves semantics" ~count:60
    QCheck2.Gen.(int_range 0 600)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let inputs = Cpr_workloads.Gen.inputs_of_seed seed in
      let t = Prog.copy prog in
      let (_ : int) = Cpr_core.Frp.convert t in
      let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate t in
      Validate.check t = [] && Cpr_sim.Equiv.check_many prog t inputs = Ok ())

let suite =
  ( "predicate speculation",
    [
      case "strcpy reproduces Fig 7(a)" strcpy_fig7a;
      case "stores never promoted" stores_never_promoted;
      case "clobber blocks promotion" clobber_blocks_promotion;
      case "branch-dependent demotion" branch_dependent_demotion;
      case "speculation work grows linearly" speculation_growth;
      QCheck_alcotest.to_alcotest prop_spec_preserves_semantics;
    ] )
