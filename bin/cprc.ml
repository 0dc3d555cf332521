(* cprc: the control-CPR pipeline driver.

   Subcommands: list, show, run, schedule, vliw.  Programs are either
   named workloads from the registry or textual IR files (see
   Cpr_ir.Printer for the format).

   Exit codes: 0 ok, 2 verifier findings, 3 degraded (a pass fell back
   to its verified pre-pass input; a crash bundle lands under _crash/),
   1 fatal/usage error. *)

open Cpr_ir
module W = Cpr_workloads
module P = Cpr_pipeline
module Recover = Cpr_resilience.Recover

let load_program spec =
  match W.Registry.find spec with
  | Some w -> (w.W.Workload.build (), w.W.Workload.inputs ())
  | None ->
    if Sys.file_exists spec then begin
      let ic = open_in spec in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      let prog = Parser_.of_text text in
      Validate.check_exn prog;
      (prog, [ Cpr_sim.Equiv.no_input ])
    end
    else
      failwith
        (Printf.sprintf "unknown workload or file %S (try `cprc list`)" spec)

let machine_of_name name =
  match
    List.find_opt
      (fun (m : Cpr_machine.Descr.t) ->
        String.lowercase_ascii m.Cpr_machine.Descr.name
        = String.lowercase_ascii name)
      Cpr_machine.Descr.all
  with
  | Some m -> m
  | None -> failwith (Printf.sprintf "unknown machine %S (Seq/Nar/Med/Wid/Inf)" name)

let list_cmd () =
  List.iter
    (fun (w : W.Workload.t) ->
      Printf.printf "%-14s %s\n" w.W.Workload.name w.W.Workload.description)
    W.Registry.all;
  0

let phase_names =
  String.concat ", " (List.map (fun s -> s.P.Passes.name) P.Passes.stages)

(* The program the pipeline itself produces at that stage, verified as
   the pipeline verifies it. *)
let show_cmd spec phase =
  match P.Passes.find phase with
  | None ->
    failwith (Printf.sprintf "unknown phase %S (%s)" phase phase_names)
  | Some stage ->
    let prog, inputs = load_program spec in
    let compiled = P.Passes.run stage prog inputs in
    print_string (Printer.to_text compiled.P.Passes.prog);
    0

(* The pipeline subcommand runs both compilations sandboxed: a pass
   failure degrades to the verified pre-pass IR (with a crash bundle
   quarantined under _crash/) and the numbers below measure the
   fallback; exit code 3 says so. *)
let run_cmd spec =
  let prog, inputs = load_program spec in
  let base_p, reduced_p =
    P.Passes.compile ~bundle_dir:Cpr_resilience.Bundle.default_dir prog inputs
  in
  let failures = List.filter_map Recover.failure [ base_p; reduced_p ] in
  List.iter (Format.eprintf "DEGRADED: %a@." Recover.pp_failure) failures;
  let base = Recover.value base_p and reduced = Recover.value reduced_p in
  (match reduced.P.Passes.icbm with
  | Some s -> Format.printf "icbm: %a@." Cpr_core.Icbm.pp_stats s
  | None -> ());
  (match P.Passes.equivalent base reduced inputs with
  | Ok () -> Format.printf "baseline and height-reduced code are equivalent@."
  | Error e -> Format.printf "EQUIVALENCE FAILURE: %s@." e);
  let sb = Stats_ir.of_prog base.P.Passes.prog in
  let sr = Stats_ir.of_prog reduced.P.Passes.prog in
  Format.printf "baseline:       %a@." Stats_ir.pp sb;
  Format.printf "height-reduced: %a@." Stats_ir.pp sr;
  Format.printf "%-6s%12s%12s%10s@." "mach" "base cyc" "cpr cyc" "speedup";
  List.iter
    (fun (m : Cpr_machine.Descr.t) ->
      let b = P.Perf.estimate m base.P.Passes.prog in
      let t = P.Perf.estimate m reduced.P.Passes.prog in
      Format.printf "%-6s%12d%12d%10.3f@." m.Cpr_machine.Descr.name b t
        (P.Perf.speedup ~baseline:b ~transformed:t))
    Cpr_machine.Descr.all;
  if failures = [] then 0 else 3

let schedule_cmd spec machine region cpr =
  let prog, inputs = load_program spec in
  let compiled =
    if cpr then P.Passes.height_reduce prog inputs
    else P.Passes.baseline prog inputs
  in
  let m = machine_of_name machine in
  let schedules = Cpr_sched.List_sched.schedule_prog m compiled.P.Passes.prog in
  let selected =
    match region with
    | Some r -> List.filter (fun (l, _) -> l = r) schedules
    | None -> schedules
  in
  if selected = [] then failwith "no such region";
  List.iter
    (fun (_, s) -> Format.printf "%a@." Cpr_sched.Schedule.pp s)
    selected;
  0

let vliw_cmd spec machine cpr =
  let prog, inputs = load_program spec in
  let compiled =
    if cpr then P.Passes.height_reduce prog inputs
    else P.Passes.baseline prog inputs
  in
  let m = machine_of_name machine in
  (match Cpr_sim.Vliw.check_against_interp m compiled.P.Passes.prog inputs with
  | Ok () -> Format.printf "scheduled code matches the architectural interpreter@."
  | Error e -> Format.printf "MISMATCH: %s@." e);
  let input = match inputs with i :: _ -> i | [] -> Cpr_sim.Equiv.no_input in
  let st = Cpr_sim.State.create () in
  Cpr_sim.State.set_memory st input.Cpr_sim.Equiv.memory;
  let out = Cpr_sim.Vliw.run ~state:st m compiled.P.Passes.prog in
  Format.printf "executed %d cycles over %d region entries@."
    out.Cpr_sim.Vliw.cycles out.Cpr_sim.Vliw.region_entries;
  0

open Cmdliner

let spec_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM"
       ~doc:"Workload name (see $(b,cprc list)) or textual IR file.")

let machine_arg =
  Arg.(value & opt string "Med" & info [ "machine"; "m" ] ~docv:"MACHINE"
       ~doc:"Target machine: Seq, Nar, Med, Wid or Inf.")

let cpr_flag =
  Arg.(value & flag & info [ "cpr" ] ~doc:"Apply FRP conversion and ICBM first.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record pipeline spans and counters and write a \
                 Chrome-trace-format JSON to $(i,FILE) (open in \
                 chrome://tracing or https://ui.perfetto.dev).")

(* Telemetry wraps the whole subcommand so the trace also covers a run
   that fails: enable first, export in a finalizer. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Cpr_obs.Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Cpr_obs.Obs.Trace.export ~path;
        Format.eprintf "wrote trace %s@." path)
      f

(* Exit-code policy for every subcommand: verifier rejections print
   their findings to stderr and exit 2 (the unprotected subcommands —
   show, schedule, vliw — verify inline); usage errors and any other
   fatal exception exit 1. *)
let wrap ?trace f =
  try with_trace trace f with
  | Failure m ->
    prerr_endline m;
    1
  | Cpr_verify.Verify.Verify_error findings ->
    List.iter
      (fun fi -> Format.eprintf "%a@." Cpr_verify.Finding.pp fi)
      findings;
    Format.eprintf "verification failed with %d finding(s)@."
      (List.length findings);
    2
  | e ->
    prerr_endline (Printexc.to_string e);
    1

let list_t =
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark workloads")
    Term.(const (fun () -> wrap list_cmd) $ const ())

let show_t =
  let phase =
    Arg.(value & opt string P.Passes.icbm.P.Passes.name
         & info [ "phase" ] ~docv:"PHASE"
             ~doc:("A pipeline stage: " ^ phase_names
                   ^ "; baseline names the superblock stage too."))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print the program after a pipeline phase")
    Term.(const (fun s p trace -> wrap ?trace (fun () -> show_cmd s p))
          $ spec_arg $ phase $ trace_arg)

let run_t =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run the full pipeline: equivalence check, op counts, speedups")
    Term.(const (fun s trace -> wrap ?trace (fun () -> run_cmd s))
          $ spec_arg $ trace_arg)

let schedule_t =
  let region =
    Arg.(value & opt (some string) None & info [ "region" ] ~docv:"LABEL"
         ~doc:"Only this region.")
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Print cycle-by-cycle schedules")
    Term.(const (fun s m r c trace ->
              wrap ?trace (fun () -> schedule_cmd s m r c))
          $ spec_arg $ machine_arg $ region $ cpr_flag $ trace_arg)

let vliw_t =
  Cmd.v
    (Cmd.info "vliw"
       ~doc:"Execute the scheduled code cycle-by-cycle and compare with the \
             interpreter")
    Term.(const (fun s m c trace -> wrap ?trace (fun () -> vliw_cmd s m c))
          $ spec_arg $ machine_arg $ cpr_flag $ trace_arg)

let () =
  let info =
    Cmd.info "cprc" ~version:"1.0"
      ~doc:"Control CPR (ICBM) compilation pipeline driver"
  in
  exit (Cmd.eval' (Cmd.group info [ list_t; show_t; run_t; schedule_t; vliw_t ]))
