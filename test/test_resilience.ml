(* The resilience layer: recovery, crash bundles, chaos.

   The load-bearing invariants:
   - [Recover.protect] retries transient faults once, falls back
     immediately on deterministic verifier rejections, and never lets an
     exception escape the protected region;
   - every corpus reproducer with an injected fault ends in [Fell_back]
     (when the verifier catches the fault) or [Committed] (when the
     fault is inapplicable) — never an escaped exception;
   - crash bundles round-trip through the fuzz corpus loader;
   - the chaos harness's sweep holds the never-crash invariant, and its
     first 24 seeds cover every (stage, kind) plan. *)

open Helpers
module Recover = Cpr_resilience.Recover
module Bundle = Cpr_resilience.Bundle
module Chaos = Cpr_resilience.Chaos
module Pool = Cpr_par.Pool
module F = Cpr_fuzz
module P = Cpr_pipeline
module Obs = Cpr_obs.Obs

let fresh_dir prefix =
  let base = Filename.get_temp_dir_name () in
  let rec pick k =
    let d = Filename.concat base (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) k) in
    if Sys.file_exists d then pick (k + 1) else d
  in
  pick 0

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let recover_commits () =
  match Recover.protect ~stage:"s" ~fallback:(fun () -> 0) (fun () -> 42) with
  | Recover.Committed 42 -> ()
  | _ -> Alcotest.fail "clean run must commit"

let recover_retries_transient () =
  let attempts = ref 0 in
  match
    Recover.protect ~stage:"s" ~fallback:(fun () -> 0) (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "transient glitch";
        7)
  with
  | Recover.Committed 7 -> checki "one retry absorbed the glitch" 2 !attempts
  | _ -> Alcotest.fail "transient fault must commit after the retry"

let recover_falls_back_persistent () =
  let attempts = ref 0 in
  match
    Recover.protect ~stage:"s" ~fallback:(fun () -> 9) (fun () ->
        incr attempts;
        failwith "persistent")
  with
  | Recover.Fell_back (9, f) ->
    checki "retried once before giving up" 2 !attempts;
    checki "failure records the retry" 1 f.Recover.retries;
    check Alcotest.string "stage recorded" "s" f.Recover.stage
  | _ -> Alcotest.fail "persistent fault must fall back"

let recover_verify_error_no_retry () =
  let attempts = ref 0 in
  match
    Recover.protect ~stage:"s" ~fallback:(fun () -> 1) (fun () ->
        incr attempts;
        raise (Cpr_verify.Verify.Verify_error []))
  with
  | Recover.Fell_back (1, f) ->
    checki "verifier rejection is deterministic: no retry" 1 !attempts;
    checki "no retries recorded" 0 f.Recover.retries
  | _ -> Alcotest.fail "verifier rejection must fall back"

let recover_on_failure_swallowed () =
  match
    Recover.protect ~stage:"s"
      ~on_failure:(fun _ -> failwith "bundle writer exploded")
      ~fallback:(fun () -> 3)
      (fun () -> raise (Cpr_verify.Verify.Verify_error []))
  with
  | Recover.Fell_back (3, f) ->
    checkb "hook failure leaves bundle unset" true (f.Recover.bundle = None)
  | _ -> Alcotest.fail "hook exception must not escape recovery"

let recover_counters () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      ignore
        (Recover.protect ~stage:"s" ~fallback:(fun () -> 0) (fun () ->
             failwith "boom")
          : int Recover.protected);
      checki "fallback counted" 1
        (Obs.counter_value (Obs.counter "recover.fallbacks"));
      checki "retry counted" 1
        (Obs.counter_value (Obs.counter "recover.retries")))

(* ------------------------------------------------------------------ *)
(* Crash bundles                                                       *)

let bundle_roundtrip () =
  let prog, inputs = profiled_strcpy () in
  let dir = fresh_dir "cpr-bundle" in
  match
    Bundle.write ~dir ~retries:1 ~inputs ~stage:"icbm"
      ~reason:"unit-test reason" ~prog ()
  with
  | Error msg -> Alcotest.failf "bundle write failed: %s" msg
  | Ok bdir -> (
    checkb "bundle under requested dir" true
      (String.length bdir > String.length dir);
    match F.Corpus.load (Bundle.input_file bdir) with
    | Error msg -> Alcotest.failf "corpus loader rejected bundle: %s" msg
    | Ok entry ->
      check Alcotest.string "stage round-trips" "icbm"
        entry.F.Corpus.stage.F.Stage.name;
      check Alcotest.string "reason round-trips" "unit-test reason"
        entry.F.Corpus.reason;
      checki "inputs round-trip" (List.length inputs)
        (List.length entry.F.Corpus.inputs);
      check Alcotest.string "program text round-trips"
        (Cpr_ir.Printer.to_text prog)
        (Cpr_ir.Printer.to_text entry.F.Corpus.prog);
      (* Same failure -> same content digest -> same directory. *)
      (match
         Bundle.write ~dir ~retries:1 ~inputs ~stage:"icbm"
           ~reason:"unit-test reason" ~prog ()
       with
      | Ok bdir2 -> check Alcotest.string "idempotent id" bdir bdir2
      | Error msg -> Alcotest.failf "rewrite failed: %s" msg))

let bundle_via_protected () =
  let prog, inputs = profiled_strcpy () in
  let dir = fresh_dir "cpr-bundle-prot" in
  Chaos.arm ~stage:"icbm" Chaos.Corrupt;
  let result =
    Fun.protect ~finally:Chaos.disarm (fun () ->
        P.Passes.protected ~bundle_dir:dir ~stage:"icbm" prog inputs)
  in
  match result with
  | Recover.Fell_back (c, f) -> (
    checkb "fallback is the pre-pass program (no icbm stats)" true
      (c.P.Passes.icbm = None);
    match f.Recover.bundle with
    | None -> Alcotest.fail "degraded run must quarantine a bundle"
    | Some bdir ->
      checkb "bundle dir exists" true (Sys.file_exists bdir);
      checkb "meta.json written" true
        (Sys.file_exists (Filename.concat bdir "meta.json"));
      (match F.Corpus.load (Bundle.input_file bdir) with
      | Ok entry ->
        check Alcotest.string "bundle replays at the failing stage" "icbm"
          entry.F.Corpus.stage.F.Stage.name
      | Error msg -> Alcotest.failf "bundle not loadable: %s" msg))
  | Recover.Committed _ ->
    Alcotest.fail "corrupting fault must degrade the icbm stage"

(* ------------------------------------------------------------------ *)
(* Corpus reproducers under injected faults                            *)

(* For every corpus artifact and every applicable injectable fault, a
   protected stage whose transform produces the faulted candidate must
   end in [Fell_back] when the static verifier catches the fault
   ([Caught]) and [Committed] when the fault does not apply — and no
   exception may escape in either case.  This pins the recovery wrapper
   to the verifier's fault battery: anything the verifier can catch, the
   pipeline can survive. *)
let corpus_faults_recover () =
  let entries = F.Corpus.load_dir "corpus" in
  checkb "corpus present" true (entries <> []);
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok entry -> (
        let stage = entry.F.Corpus.stage in
        let name = stage.F.Stage.name in
        match F.Static_check.check_entry entry with
        | Error msg -> Alcotest.failf "%s: %s" path msg
        | Ok r ->
          let before =
            P.Passes.before ~stage:name entry.F.Corpus.prog
              entry.F.Corpus.inputs
          in
          let protected_with fault =
            Recover.protect ~stage:name
              ~fallback:(fun () -> Cpr_ir.Prog.copy entry.F.Corpus.prog)
              (fun () ->
                let cand =
                  stage.F.Stage.apply entry.F.Corpus.prog entry.F.Corpus.inputs
                in
                Option.iter (fun f -> F.Fault.inject f cand) fault;
                Cpr_verify.Verify.check_stage_exn ~stage:name ~before cand;
                cand)
          in
          (* Pre-fault: historical reproducers are fixed, so the clean
             path must commit. *)
          (match (r.F.Static_check.clean, protected_with None) with
          | Ok (), Recover.Committed _ -> ()
          | Ok (), Recover.Fell_back (_, f) ->
            Alcotest.failf "%s: clean artifact degraded: %s" path
              f.Recover.reason
          | Error _, Recover.Fell_back _ -> ()
          | Error msg, Recover.Committed _ ->
            Alcotest.failf "%s: verifier found %s but protect committed" path
              msg
          | exception e ->
            Alcotest.failf "%s: clean path escaped: %s" path
              (Printexc.to_string e));
          List.iter
            (fun (fault, res) ->
              match (res, protected_with (Some fault)) with
              | F.Static_check.Caught _, Recover.Fell_back (_, f) ->
                checkb
                  (Printf.sprintf "%s/%s: findings recorded" path
                     (F.Fault.name fault))
                  true
                  (f.Recover.findings <> [])
              | F.Static_check.Caught _, Recover.Committed _ ->
                Alcotest.failf "%s: caught fault %s did not fall back" path
                  (F.Fault.name fault)
              | F.Static_check.Inapplicable, Recover.Committed _ -> ()
              | F.Static_check.Inapplicable, Recover.Fell_back (_, f) ->
                Alcotest.failf "%s: inapplicable fault %s degraded: %s" path
                  (F.Fault.name fault) f.Recover.reason
              (* A missed fault commits corrupt output: the verifier gap
                 is Static_check's finding, not a recovery escape. *)
              | F.Static_check.Missed, _ -> ()
              | exception e ->
                Alcotest.failf "%s: fault %s escaped recovery: %s" path
                  (F.Fault.name fault) (Printexc.to_string e))
            r.F.Static_check.faults))
    entries

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)

let chaos_fires_once () =
  let prog, _ = profiled_strcpy () in
  Chaos.arm ~stage:"icbm" Chaos.Raise;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      (match Chaos.trip ~stage:"ifconv" prog with
      | () -> ()
      | exception _ -> Alcotest.fail "wrong stage must not fire");
      (match Chaos.trip ~stage:"icbm" prog with
      | () -> Alcotest.fail "armed stage must fire"
      | exception Chaos.Chaos_fault _ -> ());
      match Chaos.trip ~stage:"icbm" prog with
      | () -> ()
      | exception _ -> Alcotest.fail "Raise fires only once")

let chaos_corrupt_refires () =
  let prog, _ = profiled_strcpy () in
  let ops0 = Cpr_ir.Prog.static_op_count prog in
  Chaos.arm ~stage:"icbm" Chaos.Corrupt;
  Fun.protect ~finally:Chaos.disarm (fun () ->
      Chaos.trip ~stage:"icbm" prog;
      let ops1 = Cpr_ir.Prog.static_op_count prog in
      checki "corrupt drops exactly one op" (ops0 - 1) ops1;
      Chaos.trip ~stage:"icbm" prog;
      checki "corrupt fires on every attempt" (ops0 - 2)
        (Cpr_ir.Prog.static_op_count prog))

let chaos_plan_deterministic () =
  let plans = List.init 64 F.Chaos_run.plan_of_seed in
  check
    Alcotest.(list (pair string string))
    "plan is a pure function of the seed"
    (List.map (fun (s, k) -> (s, Chaos.kind_name k)) plans)
    (List.map
       (fun seed ->
         let s, k = F.Chaos_run.plan_of_seed seed in
         (s, Chaos.kind_name k))
       (List.init 64 Fun.id));
  let kinds =
    List.sort_uniq compare (List.map (fun (_, k) -> Chaos.kind_name k) plans)
  in
  checki "sweep covers all fault kinds" (List.length Chaos.all_kinds)
    (List.length kinds)

let chaos_invariant () =
  let dir = fresh_dir "cpr-chaos" in
  let outcomes = F.Chaos_run.run ~bundle_dir:dir ~lo:0 ~hi:24 () in
  let summary = F.Chaos_run.summarize outcomes in
  checkb "no escaped exceptions" true (F.Chaos_run.ok summary);
  checki "every seed accounted for" 24 summary.F.Chaos_run.seeds;
  List.iter
    (fun (o : F.Chaos_run.outcome) ->
      match o.F.Chaos_run.status with
      | F.Chaos_run.Degraded f ->
        checkb
          (Printf.sprintf "seed %d degraded with a bundle" o.F.Chaos_run.seed)
          true
          (f.Recover.bundle <> None)
      | F.Chaos_run.Committed | F.Chaos_run.Escaped _ -> ())
    outcomes;
  (* The range is small, so the plan must not waste it: every stage is
     armed with every kind, and some run actually degrades, so the
     bundle check above checks something. *)
  let planned =
    List.sort_uniq compare
      (List.map
         (fun (o : F.Chaos_run.outcome) ->
           (o.F.Chaos_run.stage, Chaos.kind_name o.F.Chaos_run.kind))
         outcomes)
  in
  checki "every (stage, kind) pair planned"
    (List.length P.Passes.stages * List.length Chaos.all_kinds)
    (List.length planned);
  checkb "some seed degrades with a bundle" true
    (summary.F.Chaos_run.bundled > 0)

let chaos_pool_isolated () =
  (* The same range through a pool must match the sequential sweep
     status-for-status: injection state is domain-local. *)
  let dir1 = fresh_dir "cpr-chaos-seq" in
  let dir2 = fresh_dir "cpr-chaos-par" in
  let status o =
    match o.F.Chaos_run.status with
    | F.Chaos_run.Committed -> "committed"
    | F.Chaos_run.Degraded _ -> "degraded"
    | F.Chaos_run.Escaped _ -> "escaped"
  in
  let seq = F.Chaos_run.run ~bundle_dir:dir1 ~lo:0 ~hi:16 () in
  let par =
    Pool.with_pool ~domains:3 (fun pool ->
        F.Chaos_run.run ~pool ~bundle_dir:dir2 ~lo:0 ~hi:16 ())
  in
  check
    Alcotest.(list string)
    "pooled sweep matches sequential" (List.map status seq)
    (List.map status par)

let suite =
  ( "resilience",
    [
      case "recover: clean run commits" recover_commits;
      case "recover: transient fault retried once" recover_retries_transient;
      case "recover: persistent fault falls back" recover_falls_back_persistent;
      case "recover: verifier rejection skips the retry"
        recover_verify_error_no_retry;
      case "recover: on_failure exceptions swallowed"
        recover_on_failure_swallowed;
      case "recover: fallback/retry counters" recover_counters;
      case "bundle: corpus-format round-trip, idempotent id" bundle_roundtrip;
      case "bundle: written by the protected pipeline" bundle_via_protected;
      case "corpus: injected faults recover, never escape"
        corpus_faults_recover;
      case "chaos: raise fires once, stage-gated" chaos_fires_once;
      case "chaos: corrupt refires every attempt" chaos_corrupt_refires;
      case "chaos: plan deterministic, covers all kinds"
        chaos_plan_deterministic;
      case "chaos: sweep never crashes, degraded runs bundle"
        chaos_invariant;
      case "chaos: pooled sweep matches sequential" chaos_pool_isolated;
    ] )
