(* What the traced run executes instead of [Report.run] and
   [Driver.run_stage]: the same steps, one public call at a time, each
   inside a {!Spans.call} for the layer it belongs to.  The fidelity
   guard in the driver checks that every replay returns exactly what the
   wrapped entry point returns. *)

open Cpr_ir
module P = Cpr_pipeline
module Core = Cpr_core
module Equiv = Cpr_sim.Equiv
module Descr = Cpr_machine.Descr
module Driver = Cpr_fuzz.Driver

let call = Spans.call

(* [Passes.prepare]. *)
let prepare prog inputs =
  Cpr_analysis.Pqs.trim ();
  let p = call "ir" (fun () -> Prog.copy prog) in
  call "sim.profile" (fun () -> P.Passes.profile p inputs);
  call "core.superblock" (fun () ->
      ignore (Core.Superblock.form p : int);
      ignore (Core.Superblock.prune_unreachable p : int));
  call "ir" (fun () -> Validate.check_exn p);
  call "sim.profile" (fun () -> P.Passes.profile p inputs);
  p

(* [Icbm.run] with the default heuristics: the region loop, then DCE. *)
let icbm prog =
  let heur = Core.Heur.default in
  let hottest =
    List.fold_left
      (fun acc (r : Region.t) -> max acc r.Region.entry_count)
      0 (Prog.regions prog)
  in
  let threshold =
    max 1
      (int_of_float (heur.Core.Heur.hot_region_fraction *. float_of_int hottest))
  in
  let stats =
    List.fold_left
      (fun acc (r : Region.t) ->
        if r.Region.entry_count < threshold then acc
        else begin
          let snapshot = r.Region.ops in
          if not (call "core.frp" (fun () -> Core.Frp.convert_region prog r))
          then acc
          else begin
            call "core.spec" (fun () ->
                ignore (Core.Spec.speculate_region prog r : Core.Spec.stats));
            let liveness =
              call "analysis.liveness" (fun () ->
                  Cpr_analysis.Liveness.analyze prog)
            in
            let s =
              call "core.transform" (fun () ->
                  Core.Icbm.transform_region heur prog liveness r)
            in
            if s.Core.Icbm.blocks_transformed = 0 then r.Region.ops <- snapshot;
            Core.Icbm.add_stats acc s
          end
        end)
      Core.Icbm.zero_stats (Prog.regions prog)
  in
  call "core.dce" (fun () -> ignore (Core.Dce.run prog : int));
  stats

let verify ~sched ~stage ~before p =
  call "verify.stage" (fun () ->
      Cpr_verify.Verify.check_stage_exn ~sched ~stage ~before p)

(* [Report.run ~recover:true] on a run where no stage falls back. *)
let report ~name prog inputs =
  let base = prepare prog inputs in
  verify ~sched:false ~stage:"superblock" ~before:prog base;
  let reduced = prepare prog inputs in
  let before = call "ir" (fun () -> Prog.copy reduced) in
  let stats = icbm reduced in
  call "ir" (fun () -> Validate.check_exn reduced);
  verify ~sched:true ~stage:"icbm" ~before reduced;
  call "sim.profile" (fun () -> P.Passes.profile reduced inputs);
  let equivalent =
    call "sim.equiv" (fun () -> Equiv.check_many base reduced inputs)
  in
  let cycles p =
    List.map
      (fun (m : Descr.t) ->
        (m.Descr.name, call "sched.estimate" (fun () -> P.Perf.estimate m p)))
      Descr.all
  in
  let baseline_cycles = cycles base in
  let reduced_cycles = cycles reduced in
  let speedups =
    List.map2
      (fun (m, b) (_, t) -> (m, P.Perf.speedup ~baseline:b ~transformed:t))
      baseline_cycles reduced_cycles
  in
  let bound_cycles =
    call "analysis.height" (fun () -> P.Perf.bound_estimate Descr.medium reduced)
  in
  let achieved_cycles =
    Option.value ~default:0 (List.assoc_opt Descr.medium.Descr.name reduced_cycles)
  in
  let pressure =
    call "verify.pressure" (fun () ->
        Cpr_verify.Pressurecheck.summary ~machine:Descr.medium reduced)
    |> List.map (fun (cls, v) -> (Cpr_verify.Pressurecheck.cls_name cls, v))
  in
  let sb = call "ir" (fun () -> Stats_ir.of_prog base) in
  let sr = call "ir" (fun () -> Stats_ir.of_prog reduced) in
  let s_tot, s_br, d_tot, d_br = Stats_ir.ratio sr sb in
  Spans.count "core.blocks_formed" stats.Core.Icbm.blocks_formed;
  Spans.count "core.blocks_transformed" stats.Core.Icbm.blocks_transformed;
  Spans.count "ir.ops_baseline" sb.Stats_ir.static_total;
  Spans.count "ir.ops_icbm" sr.Stats_ir.static_total;
  {
    P.Report.name;
    speedups;
    s_tot;
    s_br;
    d_tot;
    d_br;
    baseline_cycles;
    reduced_cycles;
    icbm = stats;
    equivalent;
    failures = [];
    bound_cycles;
    achieved_cycles;
    height_gap =
      (if bound_cycles = 0 then 0.
       else
         float_of_int (achieved_cycles - bound_cycles)
         /. float_of_int bound_cycles);
    pressure;
    verify_s = 0.;
    total_s = 0.;
  }

(* The replayed ICBM loop must print the same IR as [Icbm.run] on the
   same prepared program. *)
let icbm_matches prog inputs =
  let p = P.Passes.prepare prog inputs in
  let direct = Prog.copy p in
  ignore (Core.Icbm.run direct : Core.Icbm.region_stats);
  ignore (icbm p : Core.Icbm.region_stats);
  String.equal (Printer.to_text direct) (Printer.to_text p)

(* [Driver.run_stage check stage ~seed] without a fault to inject. *)
let stage_outcome (check : Driver.check) (stage : Cpr_fuzz.Stage.t) ~seed =
  let prog = call "fuzz.gen" (fun () -> Cpr_workloads.Gen.prog_of_seed seed) in
  let inputs = call "fuzz.gen" (fun () -> Driver.inputs_for check seed) in
  Spans.set_ops (Prog.static_op_count prog);
  let reference =
    match call "ir" (fun () -> Validate.check prog) with
    | e :: _ ->
      Error (Format.asprintf "reference invalid: %a" Validate.pp_error e)
    | [] -> (
      match
        call "sim.reference" (fun () ->
            List.iter
              (fun i -> ignore (Equiv.run_on prog i : Cpr_sim.Interp.outcome))
              inputs)
      with
      | () -> Ok ()
      | exception Cpr_sim.Interp.Stuck msg -> Error ("reference stuck: " ^ msg))
  in
  let name = stage.Cpr_fuzz.Stage.name in
  let outcome =
    match reference with
    | Error msg -> Driver.Skip msg
    | Ok () -> (
      match
        call "fuzz.transform" (fun () -> stage.Cpr_fuzz.Stage.apply prog inputs)
      with
      | exception e -> Driver.Fail ("transform raised: " ^ Printexc.to_string e)
      | candidate -> (
        match call "ir" (fun () -> Validate.check candidate) with
        | e :: _ ->
          Driver.Fail (Format.asprintf "validation: %a" Validate.pp_error e)
        | [] -> (
          let findings () =
            let before =
              if name = "superblock" then call "ir" (fun () -> Prog.copy prog)
              else call "fuzz.prepare" (fun () -> P.Passes.prepare prog inputs)
            in
            call "verify.stage" (fun () ->
                Cpr_verify.Verify.errors
                  (Cpr_verify.Verify.check_stage ~stage:name ~before candidate))
          in
          match if check.Driver.verify then findings () else [] with
          | f :: _ ->
            Driver.Fail (Format.asprintf "verify: %a" Cpr_verify.Finding.pp f)
          | [] -> (
            match
              call "sim.equiv" (fun () -> Equiv.check_many prog candidate inputs)
            with
            | Error e -> Driver.Fail ("equivalence: " ^ e)
            | exception Cpr_sim.Interp.Stuck msg ->
              Driver.Fail ("candidate stuck: " ^ msg)
            | Ok () when not check.Driver.vliw -> Driver.Pass
            | Ok () -> (
              match
                call "sim.vliw" (fun () ->
                    Cpr_sim.Vliw.check_against_interp Descr.medium candidate
                      inputs)
              with
              | Ok () -> Driver.Pass
              | Error e -> Driver.Fail ("vliw: " ^ e)
              | exception Cpr_sim.Vliw.Vliw_error msg -> Driver.Fail ("vliw: " ^ msg)
              | exception Cpr_sim.Interp.Stuck msg ->
                Driver.Fail ("vliw interp: " ^ msg))))))
  in
  Spans.count
    (match outcome with
    | Driver.Pass -> "fuzz.pass"
    | Driver.Fail _ -> "fuzz.fail"
    | Driver.Skip _ -> "fuzz.skip")
    1;
  outcome
