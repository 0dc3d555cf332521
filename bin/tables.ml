(* The paper's evaluation artifacts, in one run over the full workload
   suite:

   1. the machine register files;
   2. Table 1 (cmpp semantics);
   3. Table 2 (speedups across the five processors) and Table 3
      (static/dynamic op-count ratios on the medium processor);
   4. the Section 6 / Figures 6-7 strcpy walk-through numbers;
   5. Ablations A-D, the design choices DESIGN.md calls out.

   Everything on stdout is deterministic and diffed against
   test/tables.expected on every `dune runtest`; progress lines and the
   static verifier's timing go to stderr.

     dune exec bin/tables.exe
     dune exec bin/tables.exe -- --trace t.json   # Chrome trace

   Compile-time performance is measured and gated by the repository
   benchmark instead: cprbench/ (README.md there) and, parent against
   change, bench/perf-gate.sh. *)

module W = Cpr_workloads
module P = Cpr_pipeline
module Obs = Cpr_obs.Obs
module Descr = Cpr_machine.Descr
open Cpr_ir

(* ------------------------------------------------------------------ *)
(* Machines and Table 1                                                *)

(* The machine family: issue widths from the paper, register-file sizes
   from our HPL-PD-flavoured extension (the budgets `lint --pressure`
   checks MAXLIVE against). *)
let print_machines () =
  Format.printf "Machine register files (gpr/pred/btr per class)@.@.";
  Format.printf "%-14s%8s%8s%8s@." "Machine" "gpr" "pred" "btr";
  List.iter
    (fun (m : Descr.t) ->
      Format.printf "%-14s%8d%8d%8d@." m.Descr.name
        (Descr.regfile_size m Reg.Gpr)
        (Descr.regfile_size m Reg.Pred)
        (Descr.regfile_size m Reg.Btr))
    Descr.all

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

(* Results come back in suite order whatever the pool size, so stdout
   does not depend on the machine's core count. *)
let run_suite () =
  let jobs =
    List.map
      (fun (w : W.Workload.t) ->
        (w.W.Workload.name, w.W.Workload.build (), w.W.Workload.inputs ()))
      W.Registry.all
  in
  let results =
    Cpr_par.Pool.with_pool ~domains:(Cpr_par.Pool.default_domains ())
      (fun pool ->
        P.Report.run_many ~pool
          ~bundle_dir:Cpr_resilience.Bundle.default_dir jobs)
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
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  let verify_total = sum (fun (r : P.Report.result) -> r.P.Report.verify_s)
  and suite_total = sum (fun (r : P.Report.result) -> r.P.Report.total_s) in
  Format.eprintf
    "static verifier: %.2fs across %d workloads (%.1f%% of %.2fs total \
     suite work)@."
    verify_total (List.length results)
    (if suite_total > 0. then 100. *. verify_total /. suite_total else 0.)
    suite_total;
  results

let print_tables23 results =
  Format.printf
    "@.Table 2: the effectiveness of ICBM for processors with branch \
     latency 1 (speedups)@.@.";
  P.Report.print_table2 Format.std_formatter results;
  Format.printf
    "@.Table 3: the effect of ICBM on static and dynamic operation counts \
     (medium processor)@.@.";
  P.Report.print_table3 Format.std_formatter results

(* ------------------------------------------------------------------ *)
(* Figures 6/7: the Section 6 walk-through numbers                     *)

let print_figure67 () =
  let base, red =
    P.Passes.compile (W.Strcpy.paper_example ()) (W.Strcpy.inputs ())
  in
  let base = (Cpr_resilience.Recover.value base).P.Passes.prog
  and red = (Cpr_resilience.Recover.value red).P.Passes.prog in
  Format.printf "@.Figures 6-7 (Section 6): strcpy walk-through@.@.";
  Format.printf "loop ops: %d -> %d on-trace (paper: 30 -> 28 via the \
                 paper's blocking; the automatic heuristics pick one block)@."
    (Region.static_op_count (Prog.find_exn base "Loop"))
    (Region.static_op_count (Prog.find_exn red "Loop"));
  List.iter
    (fun m ->
      let loop p =
        (List.assoc "Loop" (Cpr_sched.Sched_table.schedule_prog m p))
          .Cpr_sched.Schedule.length
      in
      Format.printf "%s: loop schedule %d -> %d cycles@." m.Descr.name
        (loop base) (loop red))
    [ Descr.medium; Descr.wide ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let workload name = Option.get (W.Registry.find name)

(* One unverified preparation per workload (Tables 2-3 verify the same
   pipeline): the baseline, and [reduce] to height-reduce a fresh copy of
   it under any heuristic setting. *)
let baseline (w : W.Workload.t) =
  let inputs = w.W.Workload.inputs () in
  (P.Passes.baseline ~verify:false (w.W.Workload.build ()) inputs, inputs)

let reduce ?heur ((base : P.Passes.compiled), inputs) =
  (P.Passes.height_reduce_prepared ?heur ~verify:false
     (Prog.copy base.P.Passes.prog) inputs)
    .P.Passes.prog

let speedup m (base : P.Passes.compiled) p =
  P.Perf.speedup
    ~baseline:(P.Perf.estimate m base.P.Passes.prog)
    ~transformed:(P.Perf.estimate m p)

let print_speedups base p =
  List.iter (fun m -> Format.printf "%7.2f" (speedup m base p)) Descr.all;
  Format.printf "@."

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
      let ((base, inputs) as prepared) = baseline (workload name) in
      let icbm = reduce prepared in
      let full = Prog.copy base.P.Passes.prog in
      let loop = Prog.find_exn full "Loop" in
      if Cpr_core.Frp.convert_region full loop then begin
        let (_ : Cpr_core.Spec.stats) =
          Cpr_core.Spec.speculate_region full loop
        in
        ignore (Cpr_core.Fullcpr.transform_region full loop : bool)
      end;
      P.Passes.profile full inputs;
      List.iter
        (fun (variant, p) ->
          Format.printf "%-12s%-10s" name variant;
          print_speedups base p)
        [ ("icbm", icbm); ("full-cpr", full) ])
    [ "grep"; "cmp"; "023.eqntott" ]

(* Exit-weight threshold sweep: the single knob the paper identifies as
   the cause of sequential/narrow-machine losses (Section 7). *)
let ablation_exit_weight () =
  Format.printf "@.Ablation B: exit-weight threshold sweep (strcpy)@.@.";
  Format.printf "%-12s%7s%7s%7s%7s%7s@." "threshold" "Seq" "Nar" "Med" "Wid"
    "Inf";
  let prepared = baseline (workload "strcpy") in
  List.iter
    (fun threshold ->
      let heur =
        { Cpr_core.Heur.default with
          Cpr_core.Heur.exit_weight_threshold = threshold }
      in
      Format.printf "%-12.2f" threshold;
      print_speedups (fst prepared) (reduce ~heur prepared))
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
      let w = workload name in
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      let m = Descr.medium in
      Format.printf "%-14s%12d%12d@." name (P.Perf.estimate m prog)
        (P.Perf.estimate_exit_aware m prog))
    [ "strcpy"; "grep"; "wc"; "023.eqntott" ]

(* Per-machine heuristics: the paper's stated future work ("the further
   development of distinct heuristics for each machine configuration
   would alleviate this problem", Section 7).  Each workload is prepared
   once and height-reduced once per distinct setting: the uniform
   variant does not depend on the machine, and the tuned settings
   repeat across machines. *)
let ablation_per_machine () =
  Format.printf
    "@.Ablation D: uniform (medium-tuned) vs per-machine heuristics@.@.";
  let settings =
    List.sort_uniq compare
      (Cpr_core.Heur.default :: List.map Cpr_core.Heur.tuned_for Descr.all)
  in
  let runs =
    List.map
      (fun name ->
        let prepared = baseline (workload name) in
        ( fst prepared,
          List.map (fun h -> (h, reduce ~heur:h prepared)) settings ))
      [ "strcpy"; "grep"; "cmp"; "023.eqntott"; "132.ijpeg"; "lex" ]
  in
  let gmean pick m =
    P.Report.gmean
      (List.map
         (fun (base, reduced) -> speedup m base (List.assoc (pick m) reduced))
         runs)
  in
  let row variant pick =
    Format.printf "%-12s" variant;
    List.iter (fun m -> Format.printf "%7.2f" (gmean pick m)) Descr.all;
    Format.printf "@."
  in
  Format.printf "%-12s" "variant";
  List.iter (fun (m : Descr.t) -> Format.printf "%7s" m.Descr.name) Descr.all;
  Format.printf "@.";
  row "uniform" (fun _ -> Cpr_core.Heur.default);
  row "per-machine" Cpr_core.Heur.tuned_for

let run_ablations () =
  ablation_full_cpr ();
  ablation_exit_weight ();
  ablation_estimator ();
  ablation_per_machine ()

let main trace =
  if trace <> None then Obs.set_enabled true;
  print_machines ();
  print_table1 ();
  print_tables23 (Obs.span "tables/suite" run_suite);
  print_figure67 ();
  Obs.span "tables/ablations" run_ablations;
  Option.iter
    (fun path ->
      Obs.Trace.export ~path;
      Format.eprintf "@.span summary:@.%a" Obs.Summary.pp ();
      Format.eprintf "wrote trace %s@." path)
    trace

open Cmdliner

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Export the run as a Chrome-trace JSON (chrome://tracing, \
                 Perfetto) and print a span summary on stderr.")

let () =
  let info =
    Cmd.info "tables"
      ~doc:"Regenerate the paper's tables, figures and ablations"
  in
  exit (Cmd.eval (Cmd.v info Term.(const main $ trace_arg)))
