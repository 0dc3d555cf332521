(* Where control CPR does NOT help: unbiased branches, and how the
   exit-weight heuristic partitions superblocks into CPR blocks
   (Figure 3 of the paper).

   Run with: dune exec examples/unbiased.exe *)

open Cpr_ir
module W = Cpr_workloads
module P = Cpr_pipeline

let () =
  (* 099.go stands in for branch-unbiased code: each loop iteration takes
     one of the special cases ~55% of the time, so the cumulative exit
     weight of any two consecutive branches exceeds the threshold and no
     non-trivial CPR block forms — the code is left untouched (the paper
     measures 0.96-1.02 for go). *)
  let w = Option.get (W.Registry.find "099.go") in
  let r = P.Report.run ~name:"099.go" (w.W.Workload.build ()) (w.W.Workload.inputs ()) in
  Format.printf "099.go: blocks transformed = %d; speedups:"
    r.P.Report.icbm.Cpr_core.Icbm.blocks_transformed;
  List.iter (fun (m, s) -> Format.printf " %s=%.2f" m s) r.P.Report.speedups;
  Format.printf "@.@.";

  (* Figure 3: a superblock whose branch biases vary along its length is
     partitioned into multiple CPR blocks.  We profile a 6-exit stream
     where exits fire with increasing frequency and show the partition
     match produces under different exit-weight thresholds. *)
  let spec =
    {
      W.Kernels.default_stream with
      W.Kernels.unroll = 6;
      work = 1;
      store = false;
      accumulate = true;
      counted = true;
    }
  in
  let prog = W.Kernels.stream_prog spec in
  let inputs =
    List.init 12 (fun i ->
        W.Kernels.stream_input ~spec ~len:120 ~exit_probability:0.08
          ~seed:(i * 131))
  in
  P.Passes.profile prog inputs;
  let region = Prog.find_exn prog "Loop" in
  let (_ : bool) = Cpr_core.Frp.convert_region prog region in
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate_region prog region in
  List.iter
    (fun threshold ->
      let heur =
        { Cpr_core.Heur.default with Cpr_core.Heur.exit_weight_threshold = threshold }
      in
      let blocks = Cpr_core.Match_blocks.run heur prog region in
      Format.printf "exit-weight threshold %.2f -> %d CPR blocks: " threshold
        (List.length blocks);
      List.iter (fun b -> Format.printf "%a " Cpr_core.Match_blocks.pp b) blocks;
      Format.printf "@.")
    [ 0.05; 0.15; 0.30; 0.60; 0.95 ]
