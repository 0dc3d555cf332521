(* fuzz: the differential fuzzing driver.

   For each seed in the range, generate a terminating program, push it
   through each requested stage combination, and check baseline-vs-
   transformed equivalence plus scheduled-VLIW agreement.  On failure,
   optionally auto-shrink the counterexample and persist it as a
   regression artifact.

     dune exec bin/fuzz.exe -- --seeds 0..5000 --stages icbm,fullcpr \
       --shrink --out test/corpus

   Two further modes: --chaos injects faults (exceptions, corrupted IR)
   at randomized pipeline points and checks the resilience invariant
   (verified output or clean degraded result plus crash bundle — never
   an escaped exception); --replay-bundle re-runs a crash bundle's
   quarantined input through the full oracle battery.

   Everything is a deterministic function of the flags: running the
   same command twice prints the identical summary.

   Exit codes: 0 clean, 2 failures found, 1 fatal/usage error. *)

module F = Cpr_fuzz

let parse_seeds spec =
  match String.index_opt spec '.' with
  | Some i
    when i + 1 < String.length spec
         && spec.[i + 1] = '.'
         && i + 2 <= String.length spec -> (
    try
      let lo = int_of_string (String.sub spec 0 i) in
      let hi =
        int_of_string (String.sub spec (i + 2) (String.length spec - i - 2))
      in
      if lo > hi then Error (`Msg "empty seed range") else Ok (lo, hi)
    with Failure _ -> Error (`Msg ("bad seed range " ^ spec)))
  | _ -> (
    try
      let s = int_of_string spec in
      Ok (s, s)
    with Failure _ -> Error (`Msg ("bad seed range " ^ spec)))

let run_chaos seeds domains bundle_dir =
  let lo, hi = seeds in
  let outcomes =
    Cpr_par.Pool.with_pool ~domains (fun pool ->
        F.Chaos_run.run ~pool ?bundle_dir ~lo ~hi ())
  in
  let summary = F.Chaos_run.summarize outcomes in
  F.Chaos_run.pp_summary Format.std_formatter summary;
  if F.Chaos_run.ok summary then 0 else 2

let replay_bundle dir =
  let path = Cpr_resilience.Bundle.input_file dir in
  match F.Corpus.load path with
  | Error msg ->
    Format.eprintf "%s@." msg;
    1
  | Ok entry -> (
    Format.printf "replaying bundle %s (stage %s: %s)@." dir
      entry.F.Corpus.stage.F.Stage.name entry.F.Corpus.reason;
    match F.Corpus.replay entry with
    | Ok () ->
      Format.printf "bundle passes the differential oracle@.";
      0
    | Error reason ->
      Format.printf "bundle still fails: %s@." reason;
      2)

let run seeds stages_spec shrink out fault_name no_vliw verify extra_inputs
    max_shrinks quiet domains trace =
  if trace <> None then Cpr_obs.Obs.set_enabled true;
  let lo, hi = seeds in
  let stages =
    match F.Stage.parse stages_spec with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let fault =
    match fault_name with
    | None -> None
    | Some name -> (
      match F.Fault.of_string name with
      | Some f -> Some f
      | None ->
        failwith
          (Printf.sprintf "unknown fault %S (expected one of %s)" name
             (String.concat ", " (List.map F.Fault.name F.Fault.all))))
  in
  let check =
    {
      F.Driver.vliw = not no_vliw;
      F.Driver.extra_inputs;
      F.Driver.fault;
      F.Driver.verify;
    }
  in
  let summary = F.Driver.new_summary stages in
  let shrunk = ref 0 in
  let to_shrink = ref [] in
  (* Seeds fan out across domains; outcomes come back in seed order, so
     the accounting below (and everything it prints) is byte-identical
     to --domains 1.  Shrinking runs sequentially afterwards. *)
  let outcomes =
    Cpr_par.Pool.with_pool ~domains (fun pool ->
        F.Driver.run_seeds ~pool check stages ~lo ~hi)
  in
  List.iter
    (fun (seed, per_stage) ->
      summary.F.Driver.seeds <- summary.F.Driver.seeds + 1;
      List.iter
        (fun (stage, outcome) ->
          F.Driver.record summary stage ~seed outcome;
          match outcome with
          | F.Driver.Pass | F.Driver.Skip _ -> ()
          | F.Driver.Fail reason ->
            if not quiet then
              Format.eprintf "FAIL seed %d stage %s: %s@.%!" seed
                stage.F.Stage.name reason;
            to_shrink := (stage, seed) :: !to_shrink)
        per_stage)
    outcomes;
  if shrink then
    List.iter
      (fun (stage, seed) ->
        if !shrunk < max_shrinks then begin
          incr shrunk;
          let repro = F.Shrink.minimize check stage ~seed in
          if not quiet then
            Format.eprintf
              "shrunk seed %d stage %s: %d steps, %d regions, %d ops (%s)@.%!"
              seed stage.F.Stage.name repro.F.Shrink.steps
              (List.length (Cpr_ir.Prog.regions repro.F.Shrink.prog))
              (Cpr_ir.Prog.static_op_count repro.F.Shrink.prog)
              (Cpr_workloads.Gen.shape_to_string repro.F.Shrink.shape);
          match out with
          | Some dir ->
            let path = F.Corpus.save ~dir repro in
            if not quiet then Format.eprintf "wrote %s@.%!" path
          | None ->
            if not quiet then
              print_string (Cpr_ir.Printer.to_text repro.F.Shrink.prog)
        end)
      (List.rev !to_shrink);
  Format.printf "fuzz: seeds %d..%d, stages %s%s@." lo hi
    (String.concat "," (List.map (fun s -> s.F.Stage.name) stages))
    (match fault with
    | Some f -> Printf.sprintf ", fault %s" (F.Fault.name f)
    | None -> "");
  F.Driver.pp_summary Format.std_formatter summary;
  if !shrunk > 0 then Format.printf "shrunk %d counterexample(s)@." !shrunk;
  Option.iter
    (fun path ->
      Cpr_obs.Obs.Trace.export ~path;
      Format.eprintf "wrote trace %s@." path)
    trace;
  if summary.F.Driver.failures = [] then 0 else 2

open Cmdliner

let seeds_conv =
  Arg.conv (parse_seeds, fun ppf (a, b) -> Format.fprintf ppf "%d..%d" a b)

let seeds_arg =
  Arg.(value & opt seeds_conv (0, 500)
       & info [ "seeds" ] ~docv:"LO..HI"
           ~doc:"Half-open seed range: seeds $(i,LO) <= s < $(i,HI).")

let stages_arg =
  Arg.(value & opt string "all"
       & info [ "stages" ] ~docv:"LIST"
           ~doc:(Printf.sprintf
                   "Comma-separated stages to fuzz, or $(b,all).  Known \
                    stages: %s." Cpr_fuzz.Stage.names))

let shrink_flag =
  Arg.(value & flag
       & info [ "shrink" ]
           ~doc:"Auto-shrink each failure to a minimal reproducer.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"DIR"
           ~doc:"Persist shrunk reproducers to $(i,DIR) as .cpr artifacts.")

let fault_arg =
  Arg.(value & opt (some string) None
       & info [ "fault" ] ~docv:"NAME"
           ~doc:(Printf.sprintf
                   "Inject a known miscompile after every transform (oracle \
                    self-test).  Known faults: %s."
                   (String.concat ", "
                      (List.map Cpr_fuzz.Fault.name Cpr_fuzz.Fault.all))))

let no_vliw_flag =
  Arg.(value & flag
       & info [ "no-vliw" ]
           ~doc:"Skip the scheduled-VLIW execution agreement oracle.")

let verify_flag =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run the static verifier on every candidate before the \
                 simulation oracles (its error findings are failures).")

let extra_inputs_arg =
  Arg.(value & opt int 2
       & info [ "extra-inputs" ] ~docv:"N"
           ~doc:"Extra seeded inputs beyond the generator's battery.")

let max_shrinks_arg =
  Arg.(value & opt int 8
       & info [ "max-shrinks" ] ~docv:"N"
           ~doc:"Shrink at most $(i,N) failures (bounds runtime).")

let quiet_flag =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the summary.")

let domains_arg =
  Arg.(value & opt int (Cpr_par.Pool.default_domains ())
       & info [ "domains" ] ~docv:"N"
           ~doc:"Domains to fan seeds out across (default: the runtime's \
                 recommendation, capped at 8).  Output is identical for \
                 every $(i,N).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record per-seed/per-stage spans and counters and write a \
                 Chrome-trace-format JSON to $(i,FILE) (open in \
                 chrome://tracing or https://ui.perfetto.dev).")

let chaos_flag =
  Arg.(value & flag
       & info [ "chaos" ]
           ~doc:"Chaos mode: for each seed, inject a fault (exception \
                 or corrupted IR) at a seed-determined pipeline stage \
                 and check that the protected pipeline either commits \
                 verified output or degrades cleanly with a crash \
                 bundle — an escaped exception fails the run.")

let bundle_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "bundle-dir" ] ~docv:"DIR"
           ~doc:"Where --chaos quarantines crash bundles (default: _crash).")

let replay_bundle_arg =
  Arg.(value & opt (some dir) None
       & info [ "replay-bundle" ] ~docv:"DIR"
           ~doc:"Re-run a crash bundle's input.cpr through its recorded \
                 stage and the full differential oracle battery.")

let () =
  let term =
    Term.(
      const
        (fun seeds stages shrink out fault no_vliw verify extra max_shrinks
             quiet domains trace chaos bundle_dir replay ->
          try
            match replay with
            | Some dir -> replay_bundle dir
            | None ->
              if chaos then run_chaos seeds domains bundle_dir
              else
                run seeds stages shrink out fault no_vliw verify extra
                  max_shrinks quiet domains trace
          with Failure msg ->
            prerr_endline msg;
            1)
      $ seeds_arg $ stages_arg $ shrink_flag $ out_arg $ fault_arg
      $ no_vliw_flag $ verify_flag $ extra_inputs_arg $ max_shrinks_arg
      $ quiet_flag $ domains_arg $ trace_arg $ chaos_flag $ bundle_dir_arg
      $ replay_bundle_arg)
  in
  let info =
    Cmd.info "fuzz" ~version:"1.0"
      ~doc:"Differential fuzzer for the control-CPR pipeline"
  in
  exit (Cmd.eval' (Cmd.v info term))
