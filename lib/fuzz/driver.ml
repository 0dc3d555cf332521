open Cpr_ir
module W = Cpr_workloads
module Obs = Cpr_obs.Obs

(* Fuzzing telemetry: one [fuzz/seed] span per seed (nesting the
   per-stage pipeline spans beneath it), plus outcome counters.  Dark
   unless a [--trace] sink enabled Cpr_obs. *)
let c_seeds = Obs.counter "fuzz.seeds"
let c_pass = Obs.counter "fuzz.pass"
let c_fail = Obs.counter "fuzz.fail"
let c_skip = Obs.counter "fuzz.skip"

let observe_outcome = function
  | `Pass -> Obs.incr c_pass
  | `Fail -> Obs.incr c_fail
  | `Skip -> Obs.incr c_skip

type check = {
  vliw : bool;
  extra_inputs : int;
  fault : Fault.t option;
  verify : bool;
}

let default_check =
  { vliw = true; extra_inputs = 2; fault = None; verify = false }

type outcome =
  | Pass
  | Fail of string
  | Skip of string

let inputs_for check seed =
  W.Gen.inputs_of_seed seed
  @ List.init check.extra_inputs (fun k ->
        W.Gen.input_of_seed seed ~seed:(seed + ((k + 5) * 101)))

(* The reference's observations on every input, kept for the
   equivalence verdict so the reference is interpreted only once. *)
let reference_ok prog inputs =
  match Validate.check prog with
  | e :: _ ->
    Error (Format.asprintf "reference invalid: %a" Validate.pp_error e)
  | [] -> (
    match Cpr_sim.Equiv.observe_all prog inputs with
    | observed -> Ok observed
    | exception Cpr_sim.Interp.Stuck msg -> Error ("reference stuck: " ^ msg))

let run_prog check (stage : Stage.t) prog inputs =
  match reference_ok prog inputs with
  | Error msg -> Skip msg
  | Ok observed -> (
    match stage.Stage.run prog inputs with
    | exception e -> Fail ("transform raised: " ^ Printexc.to_string e)
    | before, candidate -> (
      Fault.inject_opt check.fault candidate;
      match Validate.check candidate with
      | e :: _ -> Fail (Format.asprintf "validation: %a" Validate.pp_error e)
      | [] -> (
        match
          if not check.verify then Ok ()
          else begin
            (* Pre-simulation oracle: the static verifier alone, against
               the program the stage started from. *)
            match
              Cpr_verify.Verify.stage_errors ~stage:stage.Stage.name ~before
                candidate
            with
            | [] -> Ok ()
            | f :: _ ->
              Error (Format.asprintf "verify: %a" Cpr_verify.Finding.pp f)
          end
        with
        | Error e -> Fail e
        | Ok () -> (
        (* The candidate is interpreted fresh: a fault may have been
           injected after the stage's own profiling run.  Its
           observations are the cycle-level executor's reference. *)
        match
          Cpr_sim.Equiv.judge (Cpr_sim.Equiv.Observed observed)
            (Cpr_sim.Equiv.Run candidate) inputs
        with
        | Error e -> Fail ("equivalence: " ^ e)
        | exception Cpr_sim.Interp.Stuck msg ->
          Fail ("candidate stuck: " ^ msg)
        | Ok candidate_observed ->
          if not check.vliw then Pass
          else (
            match
              snd
                (Cpr_sim.Vliw.check Cpr_machine.Descr.medium candidate
                   ~reference:(Cpr_sim.Equiv.Observed candidate_observed)
                   inputs)
            with
            | Ok () -> Pass
            | Error e -> Fail ("vliw: " ^ e)
            | exception Cpr_sim.Vliw.Vliw_error msg -> Fail ("vliw: " ^ msg))))))

let run_stage check stage ~seed =
  let outcome =
    Obs.span
      ~args:[ ("seed", string_of_int seed) ]
      ("fuzz/" ^ stage.Stage.name)
      (fun () ->
        run_prog check stage (W.Gen.prog_of_seed seed) (inputs_for check seed))
  in
  observe_outcome
    (match outcome with Pass -> `Pass | Fail _ -> `Fail | Skip _ -> `Skip);
  outcome

(* One task per seed (running all its stages) keeps tasks coarse enough
   to amortize pool hand-off; results come back in seed order, so the
   caller's accounting and FAIL output are independent of the domain
   count.  Shrinking stays with the caller: it is rare, highly stateful,
   and its step count is part of the reproducer's identity. *)
let run_seeds ?pool check stages ~lo ~hi =
  let seeds = List.init (max 0 (hi - lo)) (fun k -> lo + k) in
  let one seed =
    Obs.span ~args:[ ("seed", string_of_int seed) ] "fuzz/seed" @@ fun () ->
    Obs.incr c_seeds;
    ( seed,
      List.map (fun stage -> (stage, run_stage check stage ~seed)) stages )
  in
  match pool with
  | Some p -> Cpr_par.Pool.map p one seeds
  | None -> List.map one seeds

(* ------------------------------------------------------------------ *)

type tally = {
  mutable runs : int;
  mutable fails : int;
  mutable skips : int;
}

type summary = {
  tallies : (string * tally) list;
  mutable seeds : int;
  mutable failures : (int * string * string) list;
}

let new_summary stages =
  {
    tallies =
      List.map
        (fun (s : Stage.t) -> (s.Stage.name, { runs = 0; fails = 0; skips = 0 }))
        stages;
    seeds = 0;
    failures = [];
  }

let record summary (stage : Stage.t) ~seed outcome =
  let t = List.assoc stage.Stage.name summary.tallies in
  t.runs <- t.runs + 1;
  match outcome with
  | Pass -> ()
  | Skip _ -> t.skips <- t.skips + 1
  | Fail reason ->
    t.fails <- t.fails + 1;
    summary.failures <- (seed, stage.Stage.name, reason) :: summary.failures

let pp_summary ppf summary =
  Format.fprintf ppf "%-12s%8s%8s%8s%8s%9s@." "stage" "runs" "pass" "fail"
    "skip" "fail%";
  List.iter
    (fun (name, t) ->
      if t.runs > 0 then
        Format.fprintf ppf "%-12s%8d%8d%8d%8d%9.2f@." name t.runs
          (t.runs - t.fails - t.skips)
          t.fails t.skips
          (100. *. float_of_int t.fails /. float_of_int t.runs))
    summary.tallies;
  let total_runs =
    List.fold_left (fun acc (_, t) -> acc + t.runs) 0 summary.tallies
  in
  let total_fails =
    List.fold_left (fun acc (_, t) -> acc + t.fails) 0 summary.tallies
  in
  Format.fprintf ppf "programs %d, stage runs %d, failures %d@." summary.seeds
    total_runs total_fails;
  List.iter
    (fun (seed, stage, reason) ->
      Format.fprintf ppf "FAIL seed %d stage %s: %s@." seed stage reason)
    (List.rev summary.failures)
