(* Equivalence from observations.  [Equiv.verdict] compares recorded
   observations instead of re-running both programs; it must give the
   same verdict, with the same error string, as interpreting both
   programs afresh and comparing their final states.  That older check
   is kept here as the oracle. *)

open Cpr_ir
module Sim = Cpr_sim
module Equiv = Cpr_sim.Equiv
module P = Cpr_pipeline
module F = Cpr_fuzz
module W = Cpr_workloads
module B = Builder
open Helpers

(* ------------------------------------------------------------------ *)
(* The oracle: both programs run per input, compared on their states.  *)

let per_address trace =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (a, v) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
      Hashtbl.replace tbl a (v :: prev))
    trace;
  Hashtbl.fold (fun a vs acc -> (a, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let state_check reference candidate input =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  match (Equiv.run_on reference input, Equiv.run_on candidate input) with
  | exception Sim.Interp.Stuck msg -> fail "interpreter stuck: %s" msg
  | ref_out, cand_out ->
    let rs = ref_out.Sim.Interp.state and cs = cand_out.Sim.Interp.state in
    if ref_out.Sim.Interp.exit_label <> cand_out.Sim.Interp.exit_label then
      fail "exit labels differ: %s vs %s"
        (Option.value ~default:"<end>" ref_out.Sim.Interp.exit_label)
        (Option.value ~default:"<end>" cand_out.Sim.Interp.exit_label)
    else if Sim.State.memory_snapshot rs <> Sim.State.memory_snapshot cs then
      fail "final memories differ"
    else if
      per_address (Sim.State.store_trace rs)
      <> per_address (Sim.State.store_trace cs)
    then fail "store sequences differ"
    else
      match
        List.find_opt
          (fun r ->
            (not (Reg.is_pred r))
            && Sim.State.read_gpr rs r <> Sim.State.read_gpr cs r)
          reference.Prog.live_out
      with
      | Some r -> fail "live-out register %s differs" (Reg.to_string r)
      | None -> Ok ()

let state_check_many reference candidate inputs =
  List.fold_left
    (fun acc input ->
      match acc with
      | Error _ -> acc
      | Ok () -> state_check reference candidate input)
    (Ok ()) inputs

(* Any exception becomes part of the compared verdict. *)
let verdict_string f =
  match f () with
  | Ok () -> "ok"
  | Error e -> "error: " ^ e
  | exception e -> "raised: " ^ Printexc.to_string e

let same_verdict what ~oracle ~actual =
  check Alcotest.string what (verdict_string oracle) (verdict_string actual)

let observed prog inputs = Equiv.Observed (Equiv.observe_all prog inputs)

(* ------------------------------------------------------------------ *)

(* The pipeline's verdict on every workload, from the observations of
   the final profiling runs, equals interpreting both codes again. *)
let workloads_match () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () and inputs = w.W.Workload.inputs () in
      let base_p, red_p = P.Passes.compile prog inputs in
      let base = Cpr_resilience.Recover.value base_p in
      let red = Cpr_resilience.Recover.value red_p in
      checkb (w.W.Workload.name ^ ": both codes observed") true
        (base.P.Passes.observed <> None && red.P.Passes.observed <> None);
      same_verdict w.W.Workload.name
        ~oracle:(fun () ->
          state_check_many base.P.Passes.prog red.P.Passes.prog inputs)
        ~actual:(fun () -> P.Passes.equivalent base red inputs))
    W.Registry.all

(* [Passes.equivalent] interprets a code only when it has no
   observations: swapping in a program that would get stuck goes
   unnoticed while the observations are there. *)
let observed_not_rerun () =
  let prog, inputs = profiled_strcpy () in
  let base_p, red_p = P.Passes.compile prog inputs in
  let base = Cpr_resilience.Recover.value base_p in
  let red = Cpr_resilience.Recover.value red_p in
  let stuck =
    let br = Op.make ~id:1 ~guard:Op.True Op.Branch [] [ Op.Reg (Reg.btr 1) ] in
    Prog.create ~entry:"A" [ Region.make "A" ~fallthrough:"Exit" [ br ] ]
  in
  let swapped = { red with P.Passes.prog = stuck } in
  checkb "observations decide" true
    (P.Passes.equivalent base swapped inputs = Ok ());
  check Alcotest.string "no observations: interpreted"
    "error: interpreter stuck: branch through unset btr"
    (verdict_string (fun () ->
         P.Passes.equivalent base { swapped with P.Passes.observed = None }
           inputs))

(* One program through a stage, with and without each injectable
   fault: observation-based verdicts (the reference observed once, the
   candidate run or observed in full) match the oracle string for
   string.  Returns the faults whose runs the oracle flagged. *)
let faults_match ~what (stage : F.Stage.t) prog inputs =
  let reference = observed prog inputs in
  List.filter_map
    (fun fault ->
      let cand = stage.F.Stage.apply prog inputs in
      Option.iter (fun f -> F.Fault.inject f cand) fault;
      let what =
        Printf.sprintf "%s/%s" what
          (Option.fold ~none:"clean" ~some:F.Fault.name fault)
      in
      let oracle () = state_check_many prog cand inputs in
      same_verdict (what ^ " check_many") ~oracle ~actual:(fun () ->
          Equiv.check_many prog cand inputs);
      same_verdict (what ^ " observed reference") ~oracle ~actual:(fun () ->
          Equiv.verdict reference (Equiv.Run cand) inputs);
      (match observed cand inputs with
      | cand_obs ->
        same_verdict (what ^ " both observed") ~oracle ~actual:(fun () ->
            Equiv.verdict reference cand_obs inputs)
      | exception Sim.Interp.Stuck _ -> ());
      if Result.is_error (oracle ()) then fault else None)
    (None :: List.map Option.some F.Fault.all)

(* Every corpus reproducer through its recorded stage, and generator
   seeds 0..39 through ICBM (the shrunk reproducers are too small for
   most faults to change behaviour); every fault kind must produce
   equivalence errors somewhere. *)
let corpus_faults_match () =
  let flagged = ref [] in
  let run ~what stage prog inputs =
    flagged := faults_match ~what stage prog inputs @ !flagged
  in
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok (entry : F.Corpus.entry) ->
        run ~what:path
          entry.F.Corpus.stage
          entry.F.Corpus.prog
          (if entry.F.Corpus.inputs = [] then [ Equiv.no_input ]
           else entry.F.Corpus.inputs))
    (F.Corpus.load_dir "corpus");
  let icbm = Option.get (F.Stage.find "icbm") in
  for seed = 0 to 39 do
    run
      ~what:(Printf.sprintf "seed %d" seed)
      icbm (W.Gen.prog_of_seed seed)
      (F.Driver.inputs_for F.Driver.default_check seed)
  done;
  List.iter
    (fun fault ->
      checkb
        (F.Fault.name fault ^ " produces equivalence errors")
        true
        (List.mem fault !flagged))
    F.Fault.all

(* Stuck runs: the candidate is interpreted first, so when both sides
   are stuck its message is reported, as before. *)
let stuck_messages () =
  let unset_btr =
    let br = Op.make ~id:1 ~guard:Op.True Op.Branch [] [ Op.Reg (Reg.btr 1) ] in
    Prog.create ~entry:"A" [ Region.make "A" ~fallthrough:"Exit" [ br ] ]
  in
  let spin =
    let ctx = B.create () in
    let p = B.pred ctx in
    B.prog ctx ~entry:"Spin"
      [
        B.region ctx "Spin" ~fallthrough:"Exit" (fun e ->
            let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 0) (Op.Imm 0) in
            let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Spin" in
            ());
      ]
  in
  let fine = single_region (fun _ _ -> ()) in
  let inputs = [ Equiv.no_input ] in
  List.iter
    (fun (what, r, c) ->
      same_verdict what
        ~oracle:(fun () -> state_check_many r c inputs)
        ~actual:(fun () -> Equiv.check_many r c inputs))
    [
      ("reference stuck", unset_btr, fine);
      ("candidate stuck", fine, spin);
      ("both stuck", unset_btr, spin);
    ];
  check Alcotest.string "candidate's message wins"
    "error: interpreter stuck: step budget exceeded"
    (verdict_string (fun () -> Equiv.check_many unset_btr spin inputs))

(* Each clause of the comparison, and its message, from observations
   and from fresh runs alike. *)
let diff_clauses () =
  let ctx = B.create () in
  let r = B.gpr ctx and a = B.gpr ctx in
  let prog ?(exit = "Exit") stores =
    let region =
      B.region ctx "Main" ~fallthrough:exit (fun e ->
          let (_ : Op.t) = B.movi e a 100 in
          List.iter
            (fun v ->
              let (_ : Op.t) = B.movi e r v in
              let (_ : Op.t) = B.store e ~base:a ~off:0 (Op.Reg r) in
              ())
            stores)
    in
    B.prog ctx ~entry:"Main" ~exit_labels:[ "Exit"; "Other" ] ~live_out:[ r ]
      [ region ]
  in
  let live v =
    B.prog ctx ~entry:"Main" ~live_out:[ r ]
      [
        B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
            let (_ : Op.t) = B.movi e r v in
            ());
      ]
  in
  let inputs = [ Equiv.no_input; Equiv.input_of_memory [ (100, 5) ] ] in
  List.iter
    (fun (what, base, cand, expected) ->
      same_verdict what
        ~oracle:(fun () -> state_check_many base cand inputs)
        ~actual:(fun () -> Equiv.check_many base cand inputs);
      check Alcotest.string (what ^ " message") expected
        (verdict_string (fun () ->
             Equiv.verdict (observed base inputs) (observed cand inputs)
               inputs)))
    [
      ("same", prog [ 1 ], prog [ 1 ], "ok");
      ( "exit label",
        prog [ 1 ],
        prog ~exit:"Other" [ 1 ],
        "error: exit labels differ: Exit vs Other" );
      ("final memory", prog [ 1 ], prog [ 2 ], "error: final memories differ");
      ( "store sequence",
        prog [ 1 ],
        prog [ 7; 1 ],
        "error: store sequences differ" );
      ( "live-out register",
        live 1,
        live 3,
        Printf.sprintf "error: live-out register %s differs" (Reg.to_string r)
      );
    ]

(* Store sequences are compared per address: interleaving stores to two
   cells differently is equivalent, reordering one cell's is not. *)
let per_address_stores () =
  let ctx = B.create () in
  let r = B.gpr ctx in
  let prog stores =
    B.prog ctx ~entry:"Main"
      [
        B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
            List.iter
              (fun (addr, v) ->
                let (_ : Op.t) = B.movi e r addr in
                let (_ : Op.t) = B.store e ~base:r ~off:0 (Op.Imm v) in
                ())
              stores);
      ]
  in
  let inputs = [ Equiv.no_input ] in
  List.iter
    (fun (what, base, cand, expected) ->
      same_verdict what
        ~oracle:(fun () -> state_check_many base cand inputs)
        ~actual:(fun () -> Equiv.check_many base cand inputs);
      check Alcotest.string (what ^ " message") expected
        (verdict_string (fun () -> Equiv.check_many base cand inputs)))
    [
      ( "interleaved",
        prog [ (8, 1); (9, 2); (8, 3) ],
        prog [ (9, 2); (8, 1); (8, 3) ],
        "ok" );
      ( "reordered",
        prog [ (8, 1); (8, 3) ],
        prog [ (8, 3); (8, 1); (8, 3) ],
        "error: store sequences differ" );
    ]

let suite =
  ( "equivalence",
    [
      case "workloads: observed verdict = re-run" workloads_match;
      case "observed codes are not interpreted again" observed_not_rerun;
      case "corpus x faults: same verdicts and messages" corpus_faults_match;
      case "stuck messages" stuck_messages;
      case "comparison clauses and messages" diff_clauses;
      case "store sequences per address" per_address_stores;
    ] )
