open Cpr_ir
module A = Cpr_analysis
module MB = Cpr_core.Match_blocks
open Helpers
module B = Builder

(* A profiled, FRP-converted, speculated stream loop with configurable
   per-exit probability. *)
let prepared ?(unroll = 6) ?(p = 0.08) () =
  let spec =
    {
      Cpr_workloads.Kernels.default_stream with
      Cpr_workloads.Kernels.unroll;
      work = 1;
      store = false;
      accumulate = true;
      counted = true;
    }
  in
  let prog = Cpr_workloads.Kernels.stream_prog spec in
  let inputs =
    List.init 12 (fun i ->
        Cpr_workloads.Kernels.stream_input ~spec ~len:120 ~exit_probability:p
          ~seed:(i * 31))
  in
  Cpr_pipeline.Passes.profile prog inputs;
  let loop = Prog.find_exn prog "Loop" in
  assert (Cpr_core.Frp.convert_region prog loop);
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate_region prog loop in
  (prog, loop)

let run_match ?(heur = Cpr_core.Heur.default) prog loop =
  MB.run heur prog loop

let covers_all_branches () =
  let prog, loop = prepared () in
  let blocks = run_match prog loop in
  let covered = List.concat_map (fun b -> b.MB.branch_idxs) blocks in
  checki "every branch in exactly one block"
    (List.length (Region.branches loop))
    (List.length (List.sort_uniq Int.compare covered))

let threshold_controls_blocking () =
  let prog, loop = prepared () in
  let count t =
    List.length
      (run_match
         ~heur:{ Cpr_core.Heur.default with Cpr_core.Heur.exit_weight_threshold = t }
         prog loop)
  in
  checkb "tighter threshold, more blocks" true (count 0.05 >= count 0.30);
  checkb "loose threshold collapses" true (count 0.95 <= count 0.05)

let loop_back_is_taken_variation () =
  let prog, loop = prepared () in
  let blocks = run_match prog loop in
  let last = List.nth blocks (List.length blocks - 1) in
  checkb "final block is likely-taken" true last.MB.taken_variation

let predict_taken_threshold () =
  let prog, loop = prepared () in
  (* an absurd threshold prevents the taken variation *)
  let blocks =
    run_match
      ~heur:
        { Cpr_core.Heur.default with Cpr_core.Heur.predict_taken_threshold = 2.0 }
      prog loop
  in
  checkb "no taken blocks" true
    (List.for_all (fun b -> not b.MB.taken_variation) blocks)

let max_branches_cap () =
  let prog, loop = prepared ~p:0.001 () in
  let blocks =
    run_match
      ~heur:{ Cpr_core.Heur.default with Cpr_core.Heur.max_block_branches = 2 }
      prog loop
  in
  checkb "cap respected" true
    (List.for_all (fun b -> List.length b.MB.branch_idxs <= 2) blocks)

let suitability_requires_un_compare () =
  (* a branch guarded by a wired-or predicate cannot anchor the schema *)
  let ctx = B.create () in
  let acc = B.pred ctx and x = B.gpr ctx and y = B.gpr ctx in
  let p2 = B.pred ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.pred_init e [ (acc, false) ] in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.On acc (Op.Reg x) (Op.Imm 0) in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.On acc (Op.Reg y) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If acc) "Exit" in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p2 (Op.Reg x) (Op.Imm 1) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p2) "Exit" in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let blocks = run_match prog region in
  (* first branch: no UN-defining compare -> its own trivial block *)
  let first = List.hd blocks in
  checki "trivial block" 0 (List.length first.MB.compare_idxs);
  checkb "trivial blocks are not transformable" false (MB.nontrivial first)

(* The paper's separability example (Section 5.2/6): when a store that
   will move off-trace may alias a load feeding a later branch's compare,
   the later branch must not join the block. *)
let separability_splits_on_memory_chain () =
  let build noalias =
    let ctx = B.create () in
    let base_a = B.gpr ctx and base_b = B.gpr ctx in
    let p1 = B.pred ctx and p2 = B.pred ctx in
    let v = B.gpr ctx and w = B.gpr ctx in
    let region =
      B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
          let (_ : Op.t) = B.load e v ~base:base_a ~off:0 in
          let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p1 (Op.Reg v) (Op.Imm 0) in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If p1) "Exit" in
          (* store below the first branch (moves off-trace) ... *)
          let (_ : Op.t) = B.store e ~base:base_b ~off:0 (Op.Reg v) in
          (* ... may alias the load feeding the second compare *)
          let (_ : Op.t) = B.load e w ~base:base_a ~off:1 in
          let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p2 (Op.Reg w) (Op.Imm 0) in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If p2) "Exit" in
          ())
    in
    let noalias_bases = if noalias then [ base_a; base_b ] else [] in
    let prog = B.prog ctx ~entry:"Main" ~noalias_bases [ region ] in
    let loop = Prog.find_exn prog "Main" in
    let (_ : bool) = Cpr_core.Frp.convert_region prog loop in
    let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate_region prog loop in
    List.length (run_match prog loop)
  in
  checki "aliasing store splits the block" 2 (build false);
  checki "disambiguated store keeps one block" 1 (build true)

let entry_freq_recorded () =
  let prog, loop = prepared () in
  let blocks = run_match prog loop in
  checki "first block entry = region entries"
    loop.Region.entry_count (List.hd blocks).MB.entry_freq

let suite =
  ( "match (CPR blocks)",
    [
      case "covers all branches" covers_all_branches;
      case "exit-weight thresholds (Fig 3)" threshold_controls_blocking;
      case "loop-back forms taken variation" loop_back_is_taken_variation;
      case "predict-taken threshold" predict_taken_threshold;
      case "max branches cap" max_branches_cap;
      case "suitability needs UN compare" suitability_requires_un_compare;
      case "separability on memory chains" separability_splits_on_memory_chain;
      case "entry frequency" entry_freq_recorded;
    ] )
