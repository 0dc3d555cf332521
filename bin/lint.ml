(* lint: the static verifier as a command-line tool.

   Three modes, combinable:

     dune exec bin/lint.exe -- --all-workloads
       run every workload-registry program through every pipeline stage
       and verify each output (any finding, warning included, fails);

     dune exec bin/lint.exe -- --corpus test/corpus
       static regression over the shrunk-counterexample corpus: each
       artifact's transform must verify clean, and each injectable fault
       (one per historical miscompile class) must be caught by the
       verifier alone — no simulation oracle runs;

     dune exec bin/lint.exe -- test/corpus/icbm-seed1921.cpr ...
       the same check for individual artifacts;

     dune exec bin/lint.exe -- --replay-bundle _crash/icbm-0123456789ab
       statically re-verify a crash bundle's quarantined input.

   Quality-lint modes (--heights, --pressure) reuse one per-stage sweep
   runner over the same workload/corpus sources.

   Exit codes (the PR 5 standard): 0 everything verified (warnings may
   have been printed), 2 error findings or verification failures,
   1 fatal/usage. *)

module F = Cpr_fuzz
module V = Cpr_verify

let pp_finding ppf (where, f) =
  Format.fprintf ppf "%s: %a" where V.Finding.pp f

(* Shared per-stage sweep runner: every registry workload (or corpus
   artifact) through every requested stage, folding a per-program report
   [f ~stage ~where ~before after -> (errors, warnings)].  A raising
   transform counts as one error.  [before] is the program the stage
   started from ({!Cpr_fuzz.Stage.run}), for reports that compare across
   the transformation.  The correctness sweep, --heights and --pressure
   all ride on this. *)
let sweep_stage prog inputs (stage : F.Stage.t) ~where ~f =
  match stage.F.Stage.run prog inputs with
  | exception e ->
    Format.printf "%s: transform raised: %s@." where (Printexc.to_string e);
    (1, 0)
  | before, after -> f ~stage:stage.F.Stage.name ~where ~before after

let sweep_stage_workloads stages ~f =
  let errors = ref 0 and warnings = ref 0 in
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let prog = w.Cpr_workloads.Workload.build () in
      let inputs = w.Cpr_workloads.Workload.inputs () in
      List.iter
        (fun (stage : F.Stage.t) ->
          let where =
            Printf.sprintf "%s/%s" w.Cpr_workloads.Workload.name
              stage.F.Stage.name
          in
          let e, m = sweep_stage prog inputs stage ~where ~f in
          errors := !errors + e;
          warnings := !warnings + m)
        stages)
    Cpr_workloads.Registry.all;
  (!errors, !warnings)

let sweep_stage_corpus dir ~f =
  let errors = ref 0 and warnings = ref 0 in
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error msg ->
        incr errors;
        Format.printf "%s: ERROR %s@." path msg
      | Ok (entry : F.Corpus.entry) ->
        let e, m =
          sweep_stage entry.F.Corpus.prog entry.F.Corpus.inputs
            entry.F.Corpus.stage ~where:(Filename.basename path) ~f
        in
        errors := !errors + e;
        warnings := !warnings + m)
    (F.Corpus.load_dir dir);
  (!errors, !warnings)

let lint_workloads stages quiet =
  let proved = ref 0 and unknown = ref 0 in
  let errors, warnings =
    sweep_stage_workloads stages ~f:(fun ~stage ~where ~before after ->
        let report =
          V.Verify.check_stage ~stage ~before after
        in
        proved := !proved + report.V.Verify.stats.V.Finding.proved;
        unknown := !unknown + report.V.Verify.stats.V.Finding.unknown;
        match report.V.Verify.findings with
        | [] ->
          if not quiet then Format.printf "%s: ok@." where;
          (0, 0)
        | fs ->
          List.iter (fun f -> Format.printf "%a@." pp_finding (where, f)) fs;
          (* Exit-code standard: only error-severity findings fail the
             run; warnings are surfaced but exit 0. *)
          let errs, warns = List.partition V.Finding.is_error fs in
          (List.length errs, List.length warns))
  in
  Format.printf
    "workloads: %d error(s), %d warning(s), %d proved, %d unknown@." errors
    warnings !proved !unknown;
  errors = 0

(* --heights: schedule-quality sweep.  Per stage output, the static
   lower bound (dep height vs resource bound, maxed per region and
   summed over the program), the length list scheduling actually
   achieves, and the gap.  Soundness violations fail the run; quality
   (more than twice the bound) and missed-opportunity warnings are
   reported but only counted. *)

let heights_header () =
  Format.printf "%-28s %8s %8s %8s %6s@." "workload/stage" "bound"
    "achieved" "gap" "gap%"

(* Split findings by severity, print them (warnings only when not
   quiet), and return the (errors, warnings) tallies the exit-code
   standard wants: errors exit 2, warnings alone exit 0. *)
let report_findings ~where quiet findings =
  let errs, warns = List.partition V.Finding.is_error findings in
  List.iter (fun f -> Format.printf "%a@." pp_finding (where, f)) errs;
  if not quiet then
    List.iter (fun f -> Format.printf "%a@." pp_finding (where, f)) warns;
  (List.length errs, List.length warns)

let is_cpr_stage = function
  | "icbm" | "fullcpr" | "fullpipe" -> true
  | _ -> false

let heights_of_prog ~stage ~where quiet prog =
  let stats = V.Finding.new_stats () in
  let rows, findings =
    V.Heightcheck.check ~missed:(is_cpr_stage stage) ~stats prog
  in
  let bound = List.fold_left (fun a (r : V.Heightcheck.row) -> a + r.V.Heightcheck.bound) 0 rows in
  let achieved =
    List.fold_left (fun a (r : V.Heightcheck.row) -> a + r.V.Heightcheck.achieved) 0 rows
  in
  let gap = achieved - bound in
  if not quiet then
    Format.printf "%-28s %8d %8d %8d %5.1f%%@." where bound achieved gap
      (if bound = 0 then 0.
       else 100. *. float_of_int gap /. float_of_int bound);
  report_findings ~where quiet findings

let heights_summary ~label (errors, warnings) =
  Format.printf "%s: %d error(s), %d warning(s)@." label errors warnings;
  errors = 0

let lint_heights stages quiet =
  if not quiet then heights_header ();
  heights_summary ~label:"heights"
    (sweep_stage_workloads stages ~f:(fun ~stage ~where ~before:_ after ->
         heights_of_prog ~stage ~where quiet after))

let heights_corpus dir quiet =
  if not quiet then heights_header ();
  heights_summary ~label:"corpus heights"
    (sweep_stage_corpus dir ~f:(fun ~stage ~where ~before:_ after ->
         heights_of_prog ~stage ~where quiet after))

(* --pressure: allocatability sweep.  Per stage output, the worst
   region's predicate-aware MAXLIVE against the register-file size for
   each class, with the smallest margin; unallocatable classes are
   errors, post-CPR pressure growth (vs the stage's input program) a
   warning. *)

let pressure_header () =
  Format.printf "%-28s %9s %9s %9s %7s@." "workload/stage" "gpr" "pred"
    "btr" "margin"

let pressure_of_prog ~stage ~where ~before quiet prog =
  let stats = V.Finding.new_stats () in
  let baseline =
    if is_cpr_stage stage then Some before else None
  in
  let rows, findings = V.Pressurecheck.check ?baseline ~stats prog in
  if not quiet then begin
    let worst cls =
      List.fold_left
        (fun (live, file, margin) (r : V.Pressurecheck.row) ->
          if r.V.Pressurecheck.cls = cls then
            ( max live (max r.V.Pressurecheck.sched_maxlive
                 r.V.Pressurecheck.sweep_maxlive),
              r.V.Pressurecheck.file_size,
              min margin r.V.Pressurecheck.margin )
          else (live, file, margin))
        (0, 0, max_int) rows
    in
    let cell cls =
      let live, file, _ = worst cls in
      Printf.sprintf "%d/%d" live file
    in
    let min_margin =
      List.fold_left
        (fun m (r : V.Pressurecheck.row) -> min m r.V.Pressurecheck.margin)
        max_int rows
    in
    Format.printf "%-28s %9s %9s %9s %7s@." where (cell Cpr_ir.Reg.Gpr)
      (cell Cpr_ir.Reg.Pred) (cell Cpr_ir.Reg.Btr)
      (if min_margin = max_int then "-" else string_of_int min_margin)
  end;
  report_findings ~where quiet findings

let pressure_summary ~label (errors, warnings) =
  Format.printf "%s: %d unallocatable error(s), %d warning(s)@." label errors
    warnings;
  errors = 0

let lint_pressure stages quiet =
  if not quiet then pressure_header ();
  pressure_summary ~label:"pressure"
    (sweep_stage_workloads stages ~f:(fun ~stage ~where ~before after ->
         pressure_of_prog ~stage ~where ~before quiet after))

let pressure_corpus dir quiet =
  if not quiet then pressure_header ();
  pressure_summary ~label:"corpus pressure"
    (sweep_stage_corpus dir ~f:(fun ~stage ~where ~before after ->
         pressure_of_prog ~stage ~where ~before quiet after))

let pp_fault_result ppf = function
  | F.Static_check.Caught msg -> Format.fprintf ppf "caught (%s)" msg
  | F.Static_check.Missed -> Format.fprintf ppf "MISSED"
  | F.Static_check.Inapplicable -> Format.fprintf ppf "inapplicable"

let report_entry quiet path = function
  | Error msg ->
    Format.printf "%s: ERROR %s@." path msg;
    false
  | Ok r ->
    let ok = ref true in
    (match r.F.Static_check.clean with
    | Ok () -> if not quiet then Format.printf "%s: clean@." path
    | Error msg ->
      ok := false;
      Format.printf "%s: NOT CLEAN: %s@." path msg);
    List.iter
      (fun (fault, res) ->
        (match res with
        | F.Static_check.Missed -> ok := false
        | F.Static_check.Caught _ | F.Static_check.Inapplicable -> ());
        if (not quiet) || res = F.Static_check.Missed then
          Format.printf "%s: fault %s: %a@." path (F.Fault.name fault)
            pp_fault_result res)
      r.F.Static_check.faults;
    !ok

let lint_corpus dir quiet =
  let results = F.Static_check.check_dir dir in
  let ok =
    List.fold_left
      (fun acc (path, res) -> report_entry quiet path res && acc)
      true results
  in
  Format.printf "corpus %s: %d artifact(s)%s@." dir (List.length results)
    (if ok then ", all verified" else "");
  ok

let lint_files files quiet =
  List.fold_left
    (fun acc path ->
      let res =
        match F.Corpus.load path with
        | Error msg -> Error msg
        | Ok entry -> F.Static_check.check_entry entry
      in
      report_entry quiet path res && acc)
    true files

let lint_bundle dir quiet =
  let path = Cpr_resilience.Bundle.input_file dir in
  let res =
    match F.Corpus.load path with
    | Error msg -> Error msg
    | Ok entry -> F.Static_check.check_entry entry
  in
  report_entry quiet dir res

let run files all_workloads corpus replay stages_spec quiet trace heights
    pressure =
  if trace <> None then Cpr_obs.Obs.set_enabled true;
  let stages =
    match F.Stage.parse stages_spec with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  if (not all_workloads) && corpus = None && replay = None && files = [] then
    failwith
      "nothing to lint: pass FILES, --all-workloads, --corpus DIR or \
       --replay-bundle DIR";
  let ok = ref true in
  if heights || pressure then begin
    (* Quality-lint modes: bound/achieved/gap and maxlive/file tables
       instead of the correctness sweep. *)
    if files <> [] || replay <> None then
      failwith
        "--heights/--pressure combine with --all-workloads and --corpus \
         only";
    if heights then begin
      (match corpus with
      | Some dir -> ok := heights_corpus dir quiet && !ok
      | None -> ());
      if all_workloads then ok := lint_heights stages quiet && !ok
    end;
    if pressure then begin
      (match corpus with
      | Some dir -> ok := pressure_corpus dir quiet && !ok
      | None -> ());
      if all_workloads then ok := lint_pressure stages quiet && !ok
    end
  end
  else begin
    if files <> [] then ok := lint_files files quiet && !ok;
    (match corpus with
    | Some dir -> ok := lint_corpus dir quiet && !ok
    | None -> ());
    (match replay with
    | Some dir -> ok := lint_bundle dir quiet && !ok
    | None -> ());
    if all_workloads then ok := lint_workloads stages quiet && !ok
  end;
  Option.iter
    (fun path ->
      Cpr_obs.Obs.Trace.export ~path;
      Format.eprintf "wrote trace %s@." path)
    trace;
  if !ok then 0 else 2

open Cmdliner

let files_arg =
  Arg.(value & pos_all file []
       & info [] ~docv:"FILES" ~doc:"Corpus .cpr artifacts to verify.")

let all_workloads_flag =
  Arg.(value & flag
       & info [ "all-workloads" ]
           ~doc:"Verify every workload-registry program after every stage.")

let corpus_arg =
  Arg.(value & opt (some dir) None
       & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Static regression over a corpus directory.")

let stages_arg =
  Arg.(value & opt string "all"
       & info [ "stages" ] ~docv:"LIST"
           ~doc:(Printf.sprintf
                   "Stages for --all-workloads, or $(b,all).  Known stages: \
                    %s." Cpr_fuzz.Stage.names))

let quiet_flag =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print problems.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record verifier spans and counters and write a \
                 Chrome-trace-format JSON to $(i,FILE) (open in \
                 chrome://tracing or https://ui.perfetto.dev).")

let replay_bundle_arg =
  Arg.(value & opt (some dir) None
       & info [ "replay-bundle" ] ~docv:"DIR"
           ~doc:"Statically re-verify a crash bundle directory's \
                 quarantined input.cpr (written by the resilience layer \
                 under _crash/).")

let heights_flag =
  Arg.(value & flag
       & info [ "heights" ]
           ~doc:"Schedule-quality lint: per-stage static lower bound vs \
                 achieved schedule length (bound, achieved, gap), failing \
                 on soundness violations and warning on regions more \
                 than twice the bound.  Combines with \
                 $(b,--all-workloads) and $(b,--corpus).")

let pressure_flag =
  Arg.(value & flag
       & info [ "pressure" ]
           ~doc:"Allocatability lint: per-stage predicate-aware MAXLIVE \
                 vs register-file size for every class (worst region, \
                 smallest margin), failing when a region's scheduled \
                 MAXLIVE exceeds the file (unallocatable) and warning on \
                 large post-CPR pressure growth.  Combines with \
                 $(b,--all-workloads) and $(b,--corpus).")

let () =
  let term =
    Term.(
      const
        (fun files aw corpus replay stages quiet trace heights pressure ->
          try
            run files aw corpus replay stages quiet trace heights pressure
          with Failure msg ->
            prerr_endline msg;
            1)
      $ files_arg $ all_workloads_flag $ corpus_arg $ replay_bundle_arg
      $ stages_arg $ quiet_flag $ trace_arg $ heights_flag $ pressure_flag)
  in
  let info =
    Cmd.info "lint" ~version:"1.0"
      ~doc:"Static semantic verifier for control-CPR programs"
  in
  exit (Cmd.eval' (Cmd.v info term))
