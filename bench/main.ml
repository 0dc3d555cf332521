(* Benchmark harness.

   Two roles, mirroring the deliverables:

   1. Reproduce the paper's evaluation artifacts: Table 1 (cmpp
      semantics), Table 2 (speedups per benchmark across the five
      processors), Table 3 (static/dynamic op-count ratios on the medium
      processor), and the Section 6 / Figures 6-7 strcpy walk-through
      numbers.  These are printed as the paper formats them.

   2. Bechamel micro-benchmarks of the compiler itself — one Test.make
      per table plus one per major pass — reporting ns/run for the
      machinery that regenerates each artifact.

   Usage (all flags: dune exec bench/main.exe -- --help):
     dune exec bench/main.exe              # everything (full suite)
     dune exec bench/main.exe -- --quick   # 3-workload subset
     dune exec bench/main.exe -- --tables  # skip the micro-benchmarks
     dune exec bench/main.exe -- --micro   # skip the tables
     dune exec bench/main.exe -- --trace t.json          # Chrome trace

   Compile-time performance is measured and gated by the repository
   benchmark instead: cprbench/ (README.md there) and, parent against
   change, bench/perf-gate.sh. *)

open Bechamel
open Toolkit
module W = Cpr_workloads
module P = Cpr_pipeline
module Obs = Cpr_obs.Obs
open Cpr_ir

let suite ~quick =
  if quick then
    List.filter_map W.Registry.find [ "strcpy"; "grep"; "099.go" ]
  else W.Registry.all

(* ------------------------------------------------------------------ *)
(* Table 1: cmpp semantics                                             *)

let print_table1 () =
  Format.printf "@.Table 1: behavior of compare operations@.@.";
  Format.printf "%-10s%-10s%6s%6s%6s%6s%6s%6s@." "input" "compare" "un" "uc"
    "on" "oc" "an" "ac";
  List.iter
    (fun (guard, cond) ->
      Format.printf "%-10d%-10d" (if guard then 1 else 0)
        (if cond then 1 else 0);
      List.iter
        (fun action ->
          match Op.cmpp_dest_update action ~guard ~cond with
          | Some v -> Format.printf "%6d" (if v then 1 else 0)
          | None -> Format.printf "%6s" "-")
        [ Op.Un; Op.Uc; Op.On; Op.Oc; Op.An; Op.Ac ];
      Format.printf "@.")
    [ (false, false); (false, true); (true, false); (true, true) ]

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3 over the workload suite                              *)

let suite_jobs ~quick =
  List.map
    (fun (w : W.Workload.t) ->
      (w.W.Workload.name, w.W.Workload.build (), w.W.Workload.inputs ()))
    (suite ~quick)

let run_suite ~quick ~domains () =
  let results =
    Cpr_par.Pool.with_pool ~domains (fun pool ->
        P.Report.run_many ~pool
          ~bundle_dir:Cpr_resilience.Bundle.default_dir (suite_jobs ~quick))
  in
  List.iter
    (fun (r : P.Report.result) ->
      (match r.P.Report.equivalent with
      | Ok () -> ()
      | Error e ->
        Format.eprintf "WARNING %s equivalence: %s@." r.P.Report.name e);
      List.iter
        (fun f ->
          Format.eprintf "WARNING %s %a@." r.P.Report.name
            Cpr_resilience.Recover.pp_failure f)
        r.P.Report.failures;
      Format.eprintf "  [%s done%s]@.%!" r.P.Report.name
        (if P.Report.degraded r then ", DEGRADED" else ""))
    results;
  results

let print_table2 results =
  Format.printf
    "@.Table 2: the effectiveness of ICBM for processors with branch \
     latency 1 (speedups)@.@.";
  P.Report.print_table2 Format.std_formatter results

let print_table3 results =
  Format.printf
    "@.Table 3: the effect of ICBM on static and dynamic operation counts \
     (medium processor)@.@.";
  P.Report.print_table3 Format.std_formatter results

(* ------------------------------------------------------------------ *)
(* Figures 6/7: the Section 6 walk-through numbers                     *)

let print_figure67 () =
  let prog = W.Strcpy.paper_example () in
  let inputs = W.Strcpy.inputs () in
  let base = P.Passes.baseline prog inputs in
  let red = P.Passes.height_reduce prog inputs in
  Format.printf "@.Figures 6-7 (Section 6): strcpy walk-through@.@.";
  Format.printf "loop ops: %d -> %d on-trace (paper: 30 -> 28 via the \
                 paper's blocking; the automatic heuristics pick one block)@."
    (Region.static_op_count (Prog.find_exn base.P.Passes.prog "Loop"))
    (Region.static_op_count (Prog.find_exn red.P.Passes.prog "Loop"));
  List.iter
    (fun m ->
      let lb = Cpr_sched.List_sched.schedule_prog m base.P.Passes.prog in
      let lr = Cpr_sched.List_sched.schedule_prog m red.P.Passes.prog in
      Format.printf "%s: loop schedule %d -> %d cycles@."
        m.Cpr_machine.Descr.name
        (List.assoc "Loop" lb).Cpr_sched.Schedule.length
        (List.assoc "Loop" lr).Cpr_sched.Schedule.length)
    [ Cpr_machine.Descr.medium; Cpr_machine.Descr.wide ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

(* ICBM vs full (redundant) CPR — the trade-off motivating ICBM
   (Section 4: full CPR "aggressively accelerates all paths ... at the
   cost of a quadratic growth in the number of compares"; ICBM "is
   attractive for processors with limited parallelism"). *)
let ablation_full_cpr () =
  Format.printf "@.Ablation A: ICBM vs full (redundant) CPR, speedup over the baseline@.@.";
  Format.printf "%-12s%-10s%7s%7s%7s%7s%7s@." "bench" "variant" "Seq" "Nar"
    "Med" "Wid" "Inf";
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let inputs = w.W.Workload.inputs () in
      let base = P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs in
      let icbm =
        P.Passes.height_reduce ~verify:false (w.W.Workload.build ()) inputs
      in
      let full = Prog.copy base.P.Passes.prog in
      let loop = Prog.find_exn full "Loop" in
      let converted = Cpr_core.Frp.convert_region full loop in
      if converted then begin
        let (_ : Cpr_core.Spec.stats) =
          Cpr_core.Spec.speculate_region full loop
        in
        ignore (Cpr_core.Fullcpr.transform_region full loop : bool)
      end;
      P.Passes.profile full inputs;
      let speedups p =
        List.map
          (fun m ->
            P.Perf.speedup
              ~baseline:(P.Perf.estimate m base.P.Passes.prog)
              ~transformed:(P.Perf.estimate m p))
          Cpr_machine.Descr.all
      in
      List.iter
        (fun (variant, p) ->
          Format.printf "%-12s%-10s" name variant;
          List.iter (fun s -> Format.printf "%7.2f" s) (speedups p);
          Format.printf "@.")
        [ ("icbm", icbm.P.Passes.prog); ("full-cpr", full) ])
    [ "grep"; "cmp"; "023.eqntott" ]

(* Exit-weight threshold sweep: the single knob the paper identifies as
   the cause of sequential/narrow-machine losses (Section 7). *)
let ablation_exit_weight () =
  Format.printf
    "@.Ablation B: exit-weight threshold sweep (strcpy)@.@.";
  Format.printf "%-12s%7s%7s%7s%7s%7s@." "threshold" "Seq" "Nar" "Med" "Wid"
    "Inf";
  let w = Option.get (W.Registry.find "strcpy") in
  let inputs = w.W.Workload.inputs () in
  let base = P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs in
  List.iter
    (fun threshold ->
      let heur =
        { Cpr_core.Heur.default with
          Cpr_core.Heur.exit_weight_threshold = threshold }
      in
      let red =
        P.Passes.height_reduce ~heur ~verify:false (w.W.Workload.build ())
          inputs
      in
      Format.printf "%-12.2f" threshold;
      List.iter
        (fun m ->
          Format.printf "%7.2f"
            (P.Perf.speedup
               ~baseline:(P.Perf.estimate m base.P.Passes.prog)
               ~transformed:(P.Perf.estimate m red.P.Passes.prog)))
        Cpr_machine.Descr.all;
      Format.printf "@.")
    [ 0.05; 0.15; 0.30; 0.60; 0.95 ]

(* Estimator ablation: the paper's Sigma(length x frequency) vs the
   exit-aware refinement that charges side exits only up to the exit
   branch. *)
let ablation_estimator () =
  Format.printf
    "@.Ablation C: paper estimator vs exit-aware refinement (medium processor cycles)@.@.";
  Format.printf "%-14s%12s%12s@." "bench" "paper est" "exit-aware";
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      let m = Cpr_machine.Descr.medium in
      Format.printf "%-14s%12d%12d@." name (P.Perf.estimate m prog)
        (P.Perf.estimate_exit_aware m prog))
    [ "strcpy"; "grep"; "wc"; "023.eqntott" ]

(* Per-machine heuristics: the paper's stated future work ("the further
   development of distinct heuristics for each machine configuration
   would alleviate this problem", Section 7). *)
let ablation_per_machine () =
  Format.printf
    "@.Ablation D: uniform (medium-tuned) vs per-machine heuristics@.@.";
  let subset =
    List.filter_map W.Registry.find
      [ "strcpy"; "grep"; "cmp"; "023.eqntott"; "132.ijpeg"; "lex" ]
  in
  let gmean_for pick =
    List.map
      (fun (m : Cpr_machine.Descr.t) ->
        let speedups =
          List.map
            (fun (w : W.Workload.t) ->
              let inputs = w.W.Workload.inputs () in
              let base =
                P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs
              in
              let red =
                P.Passes.height_reduce ~heur:(pick m) ~verify:false
                  (w.W.Workload.build ()) inputs
              in
              P.Perf.speedup
                ~baseline:(P.Perf.estimate m base.P.Passes.prog)
                ~transformed:(P.Perf.estimate m red.P.Passes.prog))
            subset
        in
        (m.Cpr_machine.Descr.name, P.Report.gmean speedups))
      Cpr_machine.Descr.all
  in
  let uniform = gmean_for (fun _ -> Cpr_core.Heur.default) in
  let tuned = gmean_for Cpr_core.Heur.tuned_for in
  Format.printf "%-12s" "variant";
  List.iter (fun (n, _) -> Format.printf "%7s" n) uniform;
  Format.printf "@.%-12s" "uniform";
  List.iter (fun (_, g) -> Format.printf "%7.2f" g) uniform;
  Format.printf "@.%-12s" "per-machine";
  List.iter (fun (_, g) -> Format.printf "%7.2f" g) tuned;
  Format.printf "@."

let run_ablations () =
  ablation_full_cpr ();
  ablation_exit_weight ();
  ablation_estimator ();
  ablation_per_machine ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let strcpy_prog = lazy (W.Strcpy.build ~unroll:8 ())
let strcpy_inputs = lazy (W.Strcpy.inputs ())

let prepared_loop () =
  let prog = Prog.copy (Lazy.force strcpy_prog) in
  P.Passes.profile prog (Lazy.force strcpy_inputs);
  prog

let micro_tests =
  [
    (* Table 1 artifact: architectural cmpp execution *)
    Test.make ~name:"table1/cmpp-interp"
      (Staged.stage (fun () ->
           List.iter
             (fun action ->
               List.iter
                 (fun guard ->
                   ignore
                     (Op.cmpp_dest_update action ~guard ~cond:true : bool option))
                 [ true; false ])
             [ Op.Un; Op.Uc; Op.On; Op.Oc; Op.An; Op.Ac ]));
    (* Table 2 artifact: the full pipeline on one benchmark (transform
       only; the verifier has its own micro-benchmark below) *)
    Test.make ~name:"table2/pipeline-strcpy"
      (Staged.stage (fun () ->
           let prog = Lazy.force strcpy_prog in
           let inputs = Lazy.force strcpy_inputs in
           ignore
             (P.Passes.height_reduce ~verify:false prog inputs
               : P.Passes.compiled)));
    (* the static verifier itself *)
    Test.make ~name:"verify/check-program"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () ->
            ignore
              (Cpr_verify.Verify.check_program (Lazy.force prog)
                : Cpr_verify.Verify.report)));
    (* Table 3 artifact: op-count statistics *)
    Test.make ~name:"table3/op-counts"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () -> ignore (Stats_ir.of_prog (Lazy.force prog) : Stats_ir.t)));
    (* pass-level costs *)
    Test.make ~name:"pass/frp-convert"
      (Staged.stage (fun () ->
           let prog = prepared_loop () in
           ignore (Cpr_core.Frp.convert prog : int)));
    Test.make ~name:"pass/speculation"
      (Staged.stage (fun () ->
           let prog = prepared_loop () in
           let (_ : int) = Cpr_core.Frp.convert prog in
           ignore (Cpr_core.Spec.speculate prog : Cpr_core.Spec.stats)));
    Test.make ~name:"pass/icbm-full"
      (Staged.stage (fun () ->
           let prog = prepared_loop () in
           ignore (Cpr_core.Icbm.run prog : Cpr_core.Icbm.region_stats)));
    Test.make ~name:"pass/depgraph-medium"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () ->
            let prog = Lazy.force prog in
            let l = Cpr_analysis.Liveness.analyze prog in
            ignore
              (Cpr_analysis.Depgraph.build Cpr_machine.Descr.medium prog l
                 (Prog.find_exn prog "Loop")
                : Cpr_analysis.Depgraph.t)));
    Test.make ~name:"pass/list-schedule-medium"
      (Staged.stage
         (let prog = lazy (prepared_loop ()) in
          fun () ->
            ignore
              (Cpr_sched.List_sched.schedule_prog Cpr_machine.Descr.medium
                 (Lazy.force prog)
                : (string * Cpr_sched.Schedule.t) list)));
    (* predicate engine: all-pairs guard queries over the prepared loop —
       after the first run every disjoint/implies answer is a memo hit,
       which is exactly the steady state the depgraph builder sees *)
    Test.make ~name:"analysis/pqs-queries"
      (Staged.stage
         (let env =
            lazy
              (let prog = prepared_loop () in
               Cpr_analysis.Pred_env.analyze (Prog.find_exn prog "Loop"))
          in
          fun () ->
            let env = Lazy.force env in
            let n = Array.length (Cpr_analysis.Pred_env.ops env) in
            let proved = ref 0 in
            for i = 0 to n - 1 do
              let gi = Cpr_analysis.Pred_env.guard_expr env i in
              for j = i + 1 to n - 1 do
                let gj = Cpr_analysis.Pred_env.guard_expr env j in
                if Cpr_analysis.Pqs.disjoint gi gj then incr proved;
                if Cpr_analysis.Pqs.implies gi gj then incr proved
              done
            done;
            ignore !proved));
    Test.make ~name:"sim/interp-strcpy-400"
      (Staged.stage
         (let prog = lazy (Lazy.force strcpy_prog) in
          let input =
            lazy (W.Strcpy.string_input (List.init 400 (fun i -> 1 + (i mod 200))))
          in
          fun () ->
            ignore
              (Cpr_sim.Equiv.run_on (Lazy.force prog) (Lazy.force input)
                : Cpr_sim.Interp.outcome)));
  ]

let run_micro () =
  Format.printf "@.Micro-benchmarks (Bechamel, monotonic clock)@.@.";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some (est :: _) -> Format.printf "%-28s %12.0f ns/run@." name est
          | _ -> Format.printf "%-28s %12s@." name "n/a")
        results)
    (List.map (fun t -> Test.make_grouped ~name:"bench" [ t ]) micro_tests)

let main quick tables_only micro_only domains trace =
  if trace <> None then Obs.set_enabled true;
  if not micro_only then begin
    print_table1 ();
    let results =
      Obs.span "bench/suite" (fun () -> run_suite ~quick ~domains ())
    in
    let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
    let verify_total = sum (fun (r : P.Report.result) -> r.P.Report.verify_s)
    and suite_total = sum (fun (r : P.Report.result) -> r.P.Report.total_s) in
    Format.printf
      "@.static verifier: %.2fs across %d workloads (%.1f%% of %.2fs \
       total suite work)@."
      verify_total (List.length results)
      (if suite_total > 0. then 100. *. verify_total /. suite_total else 0.)
      suite_total;
    print_table2 results;
    print_table3 results;
    print_figure67 ();
    Obs.span "bench/ablations" run_ablations
  end;
  if not tables_only then Obs.span "bench/micro" run_micro;
  Option.iter
    (fun path ->
      Obs.Trace.export ~path;
      Format.eprintf "@.span summary:@.%a" Obs.Summary.pp ();
      Format.eprintf "wrote trace %s@." path)
    trace

open Cmdliner

let quick_flag =
  Arg.(value & flag
       & info [ "quick" ] ~doc:"Run a 3-workload subset instead of all 24.")

let tables_flag =
  Arg.(value & flag & info [ "tables" ] ~doc:"Skip the micro-benchmarks.")

let micro_flag =
  Arg.(value & flag & info [ "micro" ] ~doc:"Skip the tables.")

let domains_arg =
  let positive =
    Arg.conv
      ( (fun s ->
          match int_of_string_opt s with
          | Some d when d >= 1 -> Ok d
          | _ ->
            Error
              (`Msg (Printf.sprintf "expected a positive integer, got %S" s))),
        Format.pp_print_int )
  in
  Arg.(value
       & opt positive (Cpr_par.Pool.default_domains ())
       & info [ "domains" ] ~docv:"N"
           ~doc:"Domains for the workload-suite run (default: the \
                 runtime's recommendation, capped at 8).  Results are \
                 identical for every $(i,N); only the wall clock changes.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Export the run as a Chrome-trace JSON (chrome://tracing, \
                 Perfetto) and print a span summary on stderr.")

let () =
  let term =
    Term.(
      const main $ quick_flag $ tables_flag $ micro_flag $ domains_arg
      $ trace_arg)
  in
  let info =
    Cmd.info "bench"
      ~doc:"Regenerate the paper's tables and benchmark the compiler"
  in
  exit (Cmd.eval (Cmd.v info term))
