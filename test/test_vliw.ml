open Cpr_ir
module Sim = Cpr_sim
module M = Cpr_machine.Descr
open Helpers
module B = Builder

let strcpy_vliw_matches () =
  let prog, inputs = profiled_strcpy () in
  List.iter
    (fun m ->
      match Sim.Vliw.check_against_interp m prog inputs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" m.M.name e)
    M.all

let transformed_vliw_matches () =
  let prog, inputs, _ = paper_transformed_strcpy () in
  Cpr_pipeline.Passes.profile prog inputs;
  List.iter
    (fun m ->
      match Sim.Vliw.check_against_interp m prog inputs with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" m.M.name e)
    [ M.sequential; M.narrow; M.medium; M.wide; M.infinite ]

let latency_visibility () =
  (* a read scheduled in the shadow of a long-latency write sees the old
     value: reproduce with a hand-built schedule through the normal
     pipeline: load (lat 2) then an independent consumer-less op; the
     VLIW run must still produce the interpreter's final state *)
  let ctx = B.create () in
  let base = B.gpr ctx and a = B.gpr ctx and b = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.load e a ~base ~off:0 in
        let (_ : Op.t) = B.addi e b a 1 in
        let (_ : Op.t) = B.store e ~base ~off:1 (Op.Reg b) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" ~noalias_bases:[ base ] [ region ] in
  let input = Sim.Equiv.input_of_memory [ (0, 41) ] in
  match Sim.Vliw.check_against_interp M.wide prog [ input ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let cycle_counts_scale_with_machine () =
  let prog, inputs = profiled_strcpy () in
  let input = List.nth inputs (List.length inputs - 1) in
  let cycles m =
    let st = Sim.State.create () in
    Sim.State.set_memory st input.Sim.Equiv.memory;
    (Sim.Vliw.run ~state:st m prog).Sim.Vliw.cycles
  in
  let seq = cycles M.sequential and wide = cycles M.wide in
  checkb "wide at least 2x faster than sequential on strcpy" true
    (wide * 2 <= seq)

(* Cycles the executor spends on [prog], summed over [inputs]. *)
let executed_cycles m prog inputs =
  List.fold_left
    (fun acc (input : Sim.Equiv.input) ->
      let st = Sim.State.create () in
      Sim.State.set_memory st input.Sim.Equiv.memory;
      List.iter (fun (r, v) -> Sim.State.write_gpr st r v) input.Sim.Equiv.gprs;
      List.iter (fun (r, v) -> Sim.State.write_pred st r v) input.Sim.Equiv.preds;
      acc + (Sim.Vliw.run ~state:st m prog).Sim.Vliw.cycles)
    0 inputs

let exit_aware_estimator_matches_vliw () =
  (* the exit-aware estimator over a profile equals the VLIW executor's
     cycle count on the profiled inputs: for both codes Passes.compile
     produces from every registry workload, on every machine, and for
     strcpy unrolled 4 times on one input *)
  let check_all name prog inputs =
    List.iter
      (fun m ->
        checki
          (Printf.sprintf "%s on %s" name m.M.name)
          (Cpr_pipeline.Perf.estimate_exit_aware m prog)
          (executed_cycles m prog inputs))
      M.all
  in
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let inputs = w.Cpr_workloads.Workload.inputs () in
      let base, red =
        Cpr_pipeline.Passes.compile (w.Cpr_workloads.Workload.build ()) inputs
      in
      List.iter
        (fun (code, p) ->
          match p with
          | Cpr_resilience.Recover.Committed (c : Cpr_pipeline.Passes.compiled) ->
            check_all (w.Cpr_workloads.Workload.name ^ " " ^ code)
              c.Cpr_pipeline.Passes.prog inputs
          | Cpr_resilience.Recover.Fell_back _ ->
            Alcotest.failf "%s %s degraded" w.Cpr_workloads.Workload.name code)
        [ ("baseline", base); ("icbm", red) ])
    Cpr_workloads.Registry.all;
  let prog = Cpr_workloads.Strcpy.build ~unroll:4 () in
  let input = Cpr_workloads.Strcpy.string_input (List.init 17 (fun i -> i + 1)) in
  Cpr_pipeline.Passes.profile prog [ input ];
  check_all "strcpy unroll 4" prog [ input ]

let prop_vliw_matches_interp =
  QCheck2.Test.make ~name:"scheduled execution matches the interpreter"
    ~count:40
    QCheck2.Gen.(int_range 0 400)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let inputs = [ Cpr_workloads.Gen.input_of_seed seed ~seed ] in
      List.for_all
        (fun m -> Sim.Vliw.check_against_interp m prog inputs = Ok ())
        [ M.sequential; M.medium; M.wide ])

let prop_vliw_matches_after_cpr =
  QCheck2.Test.make ~name:"scheduled execution matches after ICBM" ~count:30
    QCheck2.Gen.(int_range 0 400)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let inputs = Cpr_workloads.Gen.inputs_of_seed seed in
      let red = Cpr_pipeline.Passes.height_reduce prog inputs in
      List.for_all
        (fun m ->
          Sim.Vliw.check_against_interp m red.Cpr_pipeline.Passes.prog inputs
          = Ok ())
        [ M.medium; M.wide ])

let suite =
  ( "vliw executor",
    [
      case "strcpy baseline matches interp" strcpy_vliw_matches;
      case "strcpy transformed matches interp" transformed_vliw_matches;
      case "latency visibility" latency_visibility;
      case "cycles scale with machine" cycle_counts_scale_with_machine;
      case "exit-aware estimator = executed cycles" exit_aware_estimator_matches_vliw;
      QCheck_alcotest.to_alcotest prop_vliw_matches_interp;
      QCheck_alcotest.to_alcotest prop_vliw_matches_after_cpr;
    ] )
