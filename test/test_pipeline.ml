open Cpr_ir
module P = Cpr_pipeline
module M = Cpr_machine.Descr
open Helpers
module B = Builder
module Recover = Cpr_resilience.Recover
module Chaos = Cpr_resilience.Chaos
module Obs = Cpr_obs.Obs

let paper_estimator_formula () =
  (* two regions with known schedule lengths and entry counts *)
  let ctx = B.create () in
  let a = B.gpr ctx and b = B.gpr ctx in
  let r1 =
    B.region ctx "One" ~fallthrough:"Two" (fun e ->
        let (_ : Op.t) = B.movi e a 1 in
        let (_ : Op.t) = B.addi e b a 1 in
        ())
  in
  let r2 =
    B.region ctx "Two" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.addi e a b 1 in
        ())
  in
  let prog = B.prog ctx ~entry:"One" ~live_out:[ a ] [ r1; r2 ] in
  (Prog.find_exn prog "One").Region.entry_count <- 10;
  (Prog.find_exn prog "Two").Region.entry_count <- 7;
  (* sequential lengths: region One = mov@0, add@1 -> length 2;
     region Two = 1 *)
  checki "sum of length x frequency" ((2 * 10) + (1 * 7))
    (P.Perf.estimate M.sequential prog)

let exit_aware_never_exceeds () =
  List.iter
    (fun name ->
      let w = Option.get (Cpr_workloads.Registry.find name) in
      let prog = w.Cpr_workloads.Workload.build () in
      P.Passes.profile prog (w.Cpr_workloads.Workload.inputs ());
      List.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s %s" name m.M.name)
            true
            (P.Perf.estimate_exit_aware m prog <= P.Perf.estimate m prog))
        M.all)
    [ "strcpy"; "grep" ]

let speedup_math () =
  check (Alcotest.float 1e-9) "2x" 2.0
    (P.Perf.speedup ~baseline:100 ~transformed:50);
  check (Alcotest.float 1e-9) "degenerate" 1.0
    (P.Perf.speedup ~baseline:100 ~transformed:0)

let gmean_math () =
  check (Alcotest.float 1e-9) "identity" 1.0 (P.Report.gmean [ 1.0; 1.0 ]);
  check (Alcotest.float 1e-6) "sqrt" 2.0 (P.Report.gmean [ 1.0; 4.0 ]);
  check (Alcotest.float 1e-9) "empty" 1.0 (P.Report.gmean [])

let report_shape () =
  let w = Option.get (Cpr_workloads.Registry.find "strcpy") in
  let r =
    P.Report.run ~name:"strcpy" (w.Cpr_workloads.Workload.build ())
      (w.Cpr_workloads.Workload.inputs ())
  in
  checkb "equivalent" true (r.P.Report.equivalent = Ok ());
  checki "five machines" 5 (List.length r.P.Report.speedups);
  check
    Alcotest.(list string)
    "machine order" [ "Seq"; "Nar"; "Med"; "Wid"; "Inf" ]
    (List.map fst r.P.Report.speedups);
  (* paper directional facts for strcpy *)
  checkb "dynamic branches collapse" true (r.P.Report.d_br < 0.5);
  checkb "dynamic ops shrink (irredundant)" true (r.P.Report.d_tot < 1.0);
  checkb "static code grows moderately" true
    (r.P.Report.s_tot > 1.0 && r.P.Report.s_tot < 1.6);
  checkb "wide speedup exceeds sequential-adjacent narrow" true
    (List.assoc "Wid" r.P.Report.speedups
    > List.assoc "Nar" r.P.Report.speedups);
  checkb "infinite at least wide" true
    (List.assoc "Inf" r.P.Report.speedups
    >= List.assoc "Wid" r.P.Report.speedups -. 1e-9)

let profile_rerecords () =
  let prog, inputs = profiled_strcpy () in
  let before = (loop_of prog).Region.entry_count in
  P.Passes.profile prog inputs;
  checki "profile clears before recording" before
    (loop_of prog).Region.entry_count

let baseline_does_not_mutate_input () =
  let prog, inputs = profiled_strcpy () in
  let text = Printer.to_text prog in
  let (_ : P.Passes.compiled) = P.Passes.baseline prog inputs in
  let (_ : P.Passes.compiled) = P.Passes.height_reduce prog inputs in
  check Alcotest.string "input program untouched" text (Printer.to_text prog)

(* [Report.run] composed the old way: each stage prepares the input for
   itself, and equivalence interprets both codes again
   ([Test_equiv.state_check_many]).  The metrics mirror [Report.run]. *)
let composed_run ~name prog inputs =
  let base_p = P.Passes.protected ~stage:"superblock" prog inputs in
  let reduced_p = P.Passes.protected ~stage:"icbm" prog inputs in
  let base = (Recover.value base_p).P.Passes.prog in
  let reduced_c = Recover.value reduced_p in
  let reduced = reduced_c.P.Passes.prog in
  let cycles p =
    List.map (fun (m : M.t) -> (m.M.name, P.Perf.estimate m p)) M.all
  in
  let baseline_cycles = cycles base and reduced_cycles = cycles reduced in
  let bound_cycles = P.Perf.bound_estimate M.medium reduced in
  let achieved_cycles = List.assoc M.medium.M.name reduced_cycles in
  let s_tot, s_br, d_tot, d_br =
    Stats_ir.ratio (Stats_ir.of_prog reduced) (Stats_ir.of_prog base)
  in
  {
    P.Report.name;
    speedups =
      List.map2
        (fun (m, b) (_, t) -> (m, P.Perf.speedup ~baseline:b ~transformed:t))
        baseline_cycles reduced_cycles;
    s_tot;
    s_br;
    d_tot;
    d_br;
    baseline_cycles;
    reduced_cycles;
    icbm =
      Option.value ~default:Cpr_core.Icbm.zero_stats reduced_c.P.Passes.icbm;
    equivalent = Test_equiv.state_check_many base reduced inputs;
    failures = List.filter_map Recover.failure [ base_p; reduced_p ];
    bound_cycles;
    achieved_cycles;
    height_gap =
      (if bound_cycles = 0 then 0.
       else
         float_of_int (achieved_cycles - bound_cycles)
         /. float_of_int bound_cycles);
    pressure =
      List.map
        (fun (cls, v) -> (Cpr_verify.Pressurecheck.cls_name cls, v))
        (Cpr_verify.Pressurecheck.summary ~machine:M.medium reduced);
    verify_s = 0.;
    total_s = 0.;
  }

(* Everything but the timings, printed so a mismatch names its field. *)
let fingerprint (r : P.Report.result) =
  let pair_list f l =
    String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ f v) l)
  in
  String.concat "\n"
    [
      r.P.Report.name;
      pair_list (Printf.sprintf "%h") r.P.Report.speedups;
      Printf.sprintf "%h %h %h %h" r.P.Report.s_tot r.P.Report.s_br
        r.P.Report.d_tot r.P.Report.d_br;
      pair_list string_of_int r.P.Report.baseline_cycles;
      pair_list string_of_int r.P.Report.reduced_cycles;
      Format.asprintf "%a" Cpr_core.Icbm.pp_stats r.P.Report.icbm;
      (match r.P.Report.equivalent with Ok () -> "ok" | Error e -> e);
      String.concat ";"
        (List.map
           (fun (f : Recover.failure) ->
             Format.asprintf "%a [%d findings]" Recover.pp_failure f
               (List.length f.Recover.findings))
           r.P.Report.failures);
      Printf.sprintf "%d %d %h" r.P.Report.bound_cycles
        r.P.Report.achieved_cycles r.P.Report.height_gap;
      pair_list string_of_int r.P.Report.pressure;
    ]

let same_as_composed ~name prog inputs =
  check Alcotest.string name
    (fingerprint (composed_run ~name prog inputs))
    (fingerprint (P.Report.run ~name prog inputs))

(* The shared preparation changes no result: all 24 workloads and
   generator seeds 0..99.  (None of them degrades; the chaos cases below
   cover the fallback paths.) *)
let report_matches_composition () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      same_as_composed ~name:w.Cpr_workloads.Workload.name
        (w.Cpr_workloads.Workload.build ())
        (w.Cpr_workloads.Workload.inputs ()))
    Cpr_workloads.Registry.all;
  for seed = 0 to 99 do
    same_as_composed
      ~name:(Printf.sprintf "seed %d" seed)
      (Cpr_workloads.Gen.prog_of_seed seed)
      (Cpr_workloads.Gen.inputs_of_seed seed)
  done

let armed stage kind f =
  Chaos.arm ~stage kind;
  Fun.protect ~finally:Chaos.disarm f

(* Chaos at the superblock stage.  The superblock verifier does not see
   a dropped op, so the baseline commits corrupted and ICBM, starting
   from it, still commits.  The verdict compares against the
   observations taken before the fault, so the corruption is flagged
   with the message the old composition gave. *)
let chaos_superblock () =
  let prog, inputs = profiled_strcpy () in
  let run f = armed "superblock" Chaos.Corrupt (fun () -> f prog inputs) in
  let r = run (P.Report.run ~name:"strcpy") in
  let old = run (composed_run ~name:"strcpy") in
  checkb "no stage fell back" true (r.P.Report.failures = []);
  checkb "icbm committed" true
    (r.P.Report.icbm.Cpr_core.Icbm.blocks_transformed > 0);
  checkb "corruption flagged" true (Result.is_error r.P.Report.equivalent);
  checkb "same verdict as composed" true
    (r.P.Report.equivalent = old.P.Report.equivalent)

(* A transient fault in ICBM: the retry starts from a fresh copy of the
   baseline, not from the half-transformed first attempt. *)
let chaos_icbm_retry () =
  let prog, inputs = profiled_strcpy () in
  let run () = P.Report.run ~name:"strcpy" prog inputs in
  let r = armed "icbm" Chaos.Raise run in
  checkb "retry committed" true (r.P.Report.failures = []);
  check Alcotest.string "same as a clean run" (fingerprint r)
    (fingerprint (run ()))

(* A failed ICBM stage still falls back to the pre-pass input, the
   verdict comes from the fallback's own profile, and the failure
   record is the one the old composition produced. *)
let chaos_icbm () =
  let prog, inputs = profiled_strcpy () in
  let run f = armed "icbm" Chaos.Corrupt (fun () -> f prog inputs) in
  let r = run (P.Report.run ~name:"strcpy") in
  check Alcotest.(list string) "icbm degraded" [ "icbm" ]
    (List.map (fun (f : Recover.failure) -> f.Recover.stage)
       r.P.Report.failures);
  checkb "equivalent" true (r.P.Report.equivalent = Ok ());
  check Alcotest.string "same as composed" (fingerprint r)
    (fingerprint (run (composed_run ~name:"strcpy")))

(* Two profiling runs prepare the baseline, one re-profiles the
   height-reduced code, and equivalence interprets nothing again. *)
let three_profiles () =
  let prog, inputs = profiled_strcpy () in
  Obs.set_enabled true;
  Obs.reset ();
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> P.Report.run ~name:"strcpy" prog inputs)
  in
  let profiles =
    List.filter (fun (e : Obs.event) -> e.Obs.name = "profile") (Obs.events ())
  in
  Obs.reset ();
  checkb "clean run" true
    (r.P.Report.failures = [] && r.P.Report.equivalent = Ok ());
  checki "profile spans" 3 (List.length profiles)

(* [cprc show] prints the program the pipeline itself produces at a
   stage.  099.go is a workload where skipping [prepare] or unrolling by
   another factor changes the ICBM output. *)
let cprc_show_is_pipeline () =
  let w = Option.get (Cpr_workloads.Registry.find "099.go") in
  let show phase =
    let ic =
      Unix.open_process_args_in "../bin/cprc.exe"
        [| "cprc"; "show"; "099.go"; "--phase"; phase |]
    in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> out
    | _ -> Alcotest.failf "cprc show --phase %s failed" phase
  in
  let text f =
    let prog = w.Cpr_workloads.Workload.build () in
    let inputs = w.Cpr_workloads.Workload.inputs () in
    Printer.to_text (f prog inputs).P.Passes.prog
  in
  check Alcotest.string "icbm"
    (text (fun p i -> P.Passes.height_reduce p i))
    (show "icbm");
  check Alcotest.string "baseline"
    (text (fun p i -> P.Passes.baseline p i))
    (show "baseline")

let suite =
  ( "pipeline & report",
    [
      case "paper estimator formula" paper_estimator_formula;
      case "exit-aware refinement bounded" exit_aware_never_exceeds;
      case "speedup math" speedup_math;
      case "gmean math" gmean_math;
      case "report shape (strcpy facts)" report_shape;
      case "profile re-records" profile_rerecords;
      case "pipeline copies its input" baseline_does_not_mutate_input;
      case "report = composed stages (24 workloads, seeds 0..99)"
        report_matches_composition;
      case "chaos: corrupted baseline, icbm commits" chaos_superblock;
      case "chaos: icbm retry starts clean" chaos_icbm_retry;
      case "chaos: degraded icbm, same failure record" chaos_icbm;
      case "clean report profiles three times" three_profiles;
      case "cprc show prints the pipeline's program" cprc_show_is_pipeline;
    ] )
