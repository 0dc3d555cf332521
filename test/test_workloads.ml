open Cpr_ir
module W = Cpr_workloads
module P = Cpr_pipeline
open Helpers

let all_build_and_validate () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      check
        Alcotest.(list string)
        (w.W.Workload.name ^ " validates")
        []
        (List.map (fun (e : Validate.error) -> e.Validate.what)
           (Validate.check prog));
      checkb
        (w.W.Workload.name ^ " has inputs")
        true
        (w.W.Workload.inputs () <> []))
    W.Registry.all

let all_run_to_completion () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      List.iter
        (fun input ->
          let out = Cpr_sim.Equiv.run_on prog input in
          checkb
            (w.W.Workload.name ^ " reaches an exit")
            true
            (out.Cpr_sim.Interp.exit_label <> None
            || (Prog.find_exn prog prog.Prog.entry).Region.fallthrough = None))
        (w.W.Workload.inputs ()))
    W.Registry.all

let profiles_are_meaningful () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      let hot =
        List.fold_left
          (fun acc (r : Region.t) -> max acc r.Region.entry_count)
          0 (Prog.regions prog)
      in
      checkb (w.W.Workload.name ^ " hot region runs a lot") true (hot >= 20);
      (* cold regions really are cold *)
      List.iter
        (fun (r : Region.t) ->
          if
            String.length r.Region.label >= 4
            && String.sub r.Region.label 0 4 = "Cold"
          then checki (w.W.Workload.name ^ " cold stays cold") 0 r.Region.entry_count)
        (Prog.regions prog))
    W.Registry.all

let registry_lookup () =
  checki "24 rows" 24 (List.length W.Registry.all);
  checkb "find works" true (W.Registry.find "strcpy" <> None);
  checkb "unknown is None" true (W.Registry.find "nonesuch" = None);
  checki "8 spec95 rows" 8 (List.length W.Registry.spec95_names);
  List.iter
    (fun n -> checkb (n ^ " is a row") true (W.Registry.find n <> None))
    W.Registry.spec95_names

let deterministic_inputs () =
  let w = Option.get (W.Registry.find "grep") in
  let a = w.W.Workload.inputs () and b = w.W.Workload.inputs () in
  checkb "input generation is deterministic" true
    (List.map (fun i -> i.Cpr_sim.Equiv.memory) a
    = List.map (fun i -> i.Cpr_sim.Equiv.memory) b)

let stream_bias_controls_exits () =
  let spec =
    { W.Kernels.default_stream with W.Kernels.unroll = 4; counted = true }
  in
  let prog = W.Kernels.stream_prog spec in
  let run p =
    Prog.clear_profile prog;
    let input = W.Kernels.stream_input ~spec ~len:400 ~exit_probability:p ~seed:5 in
    let (_ : Cpr_sim.Interp.outcome) =
      Cpr_sim.Equiv.run_on ~profile:true prog input
    in
    (Prog.find_exn prog "Loop").Region.entry_count
  in
  checkb "rarer exits mean more loop entries" true (run 0.002 > run 0.2)

let two_streams_semantics () =
  (* cmp exits exactly at the first difference *)
  let spec =
    {
      W.Kernels.default_stream with
      W.Kernels.unroll = 2;
      work = 0;
      store = false;
      two_streams = true;
      exit_cond = Op.Ne;
      counted = true;
    }
  in
  let prog = W.Kernels.stream_prog spec in
  let mem =
    [ (901, 0); (900, 40) ]
    @ List.init 48 (fun i -> (1000 + i, 7))
    @ List.init 48 (fun i -> (20000 + i, if i = 13 then 9 else 7))
  in
  let out = Cpr_sim.Equiv.run_on prog (Cpr_sim.Equiv.input_of_memory mem) in
  check Alcotest.(option string) "exits" (Some "Exit") out.Cpr_sim.Interp.exit_label;
  (* the loop stopped around element 13, not at the counter bound *)
  checkb "stopped early" true (out.Cpr_sim.Interp.steps < 300)

let gen_shapes_vary () =
  let shapes = List.init 50 W.Gen.shape_of_seed in
  checkb "some loops" true (List.exists (fun s -> s.W.Gen.loop) shapes);
  checkb "some straight" true (List.exists (fun s -> not s.W.Gen.loop) shapes);
  checkb "block counts vary" true
    (List.sort_uniq Int.compare (List.map (fun s -> s.W.Gen.blocks) shapes)
     |> List.length > 2)

let suite =
  ( "workloads",
    [
      case "all build and validate" all_build_and_validate;
      case "all run to completion" all_run_to_completion;
      case "profiles meaningful" profiles_are_meaningful;
      case "registry lookup" registry_lookup;
      case "deterministic inputs" deterministic_inputs;
      case "stream bias" stream_bias_controls_exits;
      case "two-streams (cmp) semantics" two_streams_semantics;
      case "generator shapes vary" gen_shapes_vary;
    ] )
