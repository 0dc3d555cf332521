(* The repository benchmark: compile latency, throughput, set-up time,
   memory and Table 2/3 quality on four workloads (see README.md), with
   a traced mode that splits the time by layer.  One process, one
   domain, closed loop: each sample starts when the previous one ends. *)

module P = Cpr_pipeline
module Report = P.Report
module Driver = Cpr_fuzz.Driver
module Stage = Cpr_fuzz.Stage
module Obs = Cpr_obs.Obs

(* ------------------------------------------------------------------ *)
(* Metric definitions: the single source of BENCHMARK.json.            *)

let run_seconds = 20

type better =
  | Lower
  | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** end-to-end only *)
}

let m ?(bound = 0.) name unit better = { name; unit; better; bound }
let machines = List.map (fun (d : Cpr_machine.Descr.t) -> d.name) Cpr_machine.Descr.all

(* Each bound is the largest quartile spread that repro.sh measured for
   the metric on any workload (README.md has every figure), rounded up;
   the figure is given beside it.  setup_s gets the largest bound the
   benchmark format allows.  Quality metrics are identical for every
   seed, so any change in them is a change in compiler output. *)
let end_to_end =
  [
    m "latency_ms.p50" "ms" Lower ~bound:0.22 (* 0.208, fuzz-verify *);
    m "latency_ms.p90" "ms" Lower ~bound:0.22 (* 0.208, fuzz-verify *);
    m "programs_per_s" "1/s" Higher ~bound:0.22 (* 0.213, fuzz-verify *);
    m "setup_s" "s" Lower ~bound:0.25 (* 0.249, paper-suite *);
    m "peak_rss_mb" "MB" Lower ~bound:0.10 (* 0.060, paper-suite *);
  ]
  @ List.map (fun mc -> m ("speedup_gmean." ^ mc) "x" Higher ~bound:0.001) machines
  @ [
      m "d_br_gmean" "ratio" Lower ~bound:0.001;
      m "s_tot_gmean" "ratio" Lower ~bound:0.001;
    ]

(* Layers, named after the library whose public function the traced run
   calls (README.md lists each call). *)
let layers =
  [
    "sim.profile"; "sim.equiv"; "sim.reference"; "sim.vliw"; "core.superblock";
    "core.frp"; "core.spec"; "core.transform"; "core.dce"; "analysis.liveness";
    "analysis.height"; "sched.estimate"; "verify.pressure"; "verify.stage"; "ir";
    "fuzz.gen"; "fuzz.transform"; "fuzz.prepare";
  ]

let counted_calls = [ "sim.profile"; "sched.estimate"; "analysis.liveness" ]

let counted_alloc =
  [ "sim.profile"; "sim.equiv"; "core.spec"; "sched.estimate"; "verify.stage" ]

let growth = [ "core.spec"; "sched.estimate"; "verify.stage" ]
let per_sample = "count/sample"

let per_layer =
  List.map (fun l -> m (l ^ ".share") "ratio" Lower) (layers @ [ "untraced" ])
  @ List.map (fun l -> m (l ^ ".calls") per_sample Lower) counted_calls
  @ List.map (fun l -> m (l ^ ".alloc_mw") "Mw/sample" Lower) counted_alloc
  @ [
      m "core.blocks_formed" per_sample Higher;
      m "core.blocks_transformed" per_sample Higher;
      m "core.transform_ratio" "ratio" Higher;
      m "pqs.queries" per_sample Lower;
      m "pqs.memo_hit_ratio" "ratio" Higher;
      m "pqs.interned" per_sample Lower;
      m "ir.ops_baseline" per_sample Lower;
      m "ir.ops_icbm" per_sample Lower;
      m "fuzz.pass" per_sample Higher;
      m "fuzz.fail" per_sample Lower;
      m "fuzz.skip" per_sample Lower;
    ]
  @ List.map (fun l -> m (l ^ ".growth_exp") "slope" Lower) growth
  @ [ m "trace.overhead_ratio" "ratio" Lower ]

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let esc = P.Bench_io.json_escape

let describe () =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let list items f =
    List.iteri (fun i x -> add "%s\n    %s" (if i = 0 then "" else ",") (f x)) items
  in
  let better x = match x.better with Lower -> "lower" | Higher -> "higher" in
  add "{\n  \"command\": [\"bash\", \"cprbench/run.sh\"],\n";
  add "  \"paths\": [\"cprbench\"],\n";
  add "  \"run_seconds\": %d,\n" run_seconds;
  add "  \"workloads\": [";
  list Suite.all (fun (w : Suite.t) ->
      Printf.sprintf "{\"name\": \"%s\", \"why\": \"%s\"}" (esc w.name) (esc w.why));
  add "\n  ],\n  \"end_to_end\": [";
  list end_to_end (fun x ->
      Printf.sprintf
        "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"bound\": %g}"
        x.name x.unit (better x) x.bound);
  add "\n  ],\n  \"per_layer\": [";
  list per_layer (fun x ->
      Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}"
        x.name x.unit (better x));
  add "\n  ]\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let now_s () = Int64.to_float (Obs.now_ns ()) /. 1e9

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

type status = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let problem st fmt = Printf.ksprintf (fun s -> st.problems <- s :: st.problems) fmt

(* The deterministic fields of a Report.result: everything but timings. *)
let fingerprint (r : Report.result) =
  ( (r.speedups, r.s_tot, r.s_br, r.d_tot, r.d_br),
    (r.baseline_cycles, r.reduced_cycles, r.icbm, r.equivalent),
    (r.failures, r.bound_cycles, r.achieved_cycles, r.height_gap, r.pressure) )

let clean (r : Report.result) =
  Result.is_ok r.equivalent && not (Report.degraded r)

(* Runs [pass k] for k = 0, 1, ... until [seconds] have passed and
   [st] has attempted [min_samples] samples, calling [between ()] after
   each pass.  Returns the wall time spent inside passes. *)
let timed st ~seconds ~min_samples ~between pass =
  let t0 = now_s () in
  let rec go k busy =
    let t = now_s () in
    pass k;
    let busy = busy +. (now_s () -. t) in
    between ();
    if now_s () -. t0 < float_of_int seconds || st.attempted < min_samples then
      go (k + 1) busy
    else busy
  in
  go 0 0.

let quality results =
  let rs = List.sort (fun (a : Report.result) b -> compare a.name b.name) results in
  let g f = Report.gmean (List.map f rs) in
  List.map
    (fun mc -> ("speedup_gmean." ^ mc, g (fun r -> List.assoc mc r.Report.speedups)))
    machines
  @ [ ("d_br_gmean", g (fun r -> r.Report.d_br)); ("s_tot_gmean", g (fun r -> r.Report.s_tot)) ]

(* ------------------------------------------------------------------ *)
(* Traced passes                                                       *)

type traced = {
  mutable traced_s : float;
  mutable untraced_s : float;
  mutable samples : int;
  mutable pqs : (string * int) list;
}

let pqs_counters = [ "pqs.queries"; "pqs.memo_hits"; "pqs.memo_misses"; "pqs.interned" ]

let new_traced () =
  { traced_s = 0.; untraced_s = 0.; samples = 0; pqs = List.map (fun k -> (k, 0)) pqs_counters }

(* One traced half-pass: spans on, Obs on only for its pqs.* counters. *)
let traced_half tr f =
  Obs.reset ();
  Obs.set_enabled true;
  Spans.recording := true;
  let t0 = now_s () in
  Fun.protect f ~finally:(fun () ->
      tr.traced_s <- tr.traced_s +. (now_s () -. t0);
      Spans.recording := false;
      Obs.set_enabled false;
      let cs = Obs.counters () in
      tr.pqs <-
        List.map
          (fun k ->
            (k, List.assoc k tr.pqs + Option.value ~default:0 (List.assoc_opt k cs)))
          pqs_counters;
      Obs.reset ())

let untraced_half tr f =
  let t0 = now_s () in
  f ();
  tr.untraced_s <- tr.untraced_s +. (now_s () -. t0)

(* A traced pass and an untraced pass over the same inputs, in
   alternating order so that warm-cache effects fall on both sides. *)
let pair tr k ~traced ~untraced =
  if k mod 2 = 0 then begin
    traced_half tr traced;
    untraced_half tr untraced
  end
  else begin
    untraced_half tr untraced;
    traced_half tr traced
  end

let layer_metrics tr =
  let wall_ns = tr.traced_s *. 1e9 in
  let n = float_of_int (max 1 tr.samples) in
  let acc l = Spans.layer l in
  let share l = Option.fold ~none:0. ~some:(fun a -> float_of_int a.Spans.ns /. wall_ns) (acc l) in
  let calls l = Option.fold ~none:0. ~some:(fun a -> float_of_int a.Spans.calls /. n) (acc l) in
  let alloc l = Option.fold ~none:0. ~some:(fun a -> a.Spans.words /. 1e6 /. n) (acc l) in
  let pqs k = float_of_int (List.assoc k tr.pqs) in
  let per s = Spans.counted s /. n in
  let formed = Spans.counted "core.blocks_formed" in
  let lookups = pqs "pqs.memo_hits" +. pqs "pqs.memo_misses" in
  List.map (fun l -> (l ^ ".share", share l)) layers
  @ [ ("untraced.share", (wall_ns -. float_of_int (Spans.total_ns ())) /. wall_ns) ]
  @ List.map (fun l -> (l ^ ".calls", calls l)) counted_calls
  @ List.map (fun l -> (l ^ ".alloc_mw", alloc l)) counted_alloc
  @ [
      ("core.blocks_formed", per "core.blocks_formed");
      ("core.blocks_transformed", per "core.blocks_transformed");
      ( "core.transform_ratio",
        if formed = 0. then 0. else Spans.counted "core.blocks_transformed" /. formed );
      ("pqs.queries", pqs "pqs.queries" /. n);
      ("pqs.memo_hit_ratio", if lookups = 0. then 0. else pqs "pqs.memo_hits" /. lookups);
      ("pqs.interned", pqs "pqs.interned" /. n);
      ("ir.ops_baseline", per "ir.ops_baseline");
      ("ir.ops_icbm", per "ir.ops_icbm");
      ("fuzz.pass", per "fuzz.pass");
      ("fuzz.fail", per "fuzz.fail");
      ("fuzz.skip", per "fuzz.skip");
    ]
  @ List.map (fun l -> (l ^ ".growth_exp", Spans.growth_exp l)) growth
  @ [ ("trace.overhead_ratio", tr.traced_s /. tr.untraced_s) ]

(* ------------------------------------------------------------------ *)
(* Compile workloads: each sample is a cold-Pqs Report.run.           *)

let report (p : Suite.program) =
  Cpr_analysis.Pqs.invalidate ();
  let t0 = now_s () in
  let r =
    try Ok (Report.run ~name:p.name p.prog p.inputs)
    with e -> Error (Printexc.to_string e)
  in
  (now_s () -. t0, r)

let check_result st refs (p : Suite.program) = function
  | Error e ->
    problem st "%s raised %s" p.name e;
    false
  | Ok r when not (clean r) ->
    problem st "%s: not equivalent or degraded" p.name;
    false
  | Ok r when compare (fingerprint r) (fingerprint (Hashtbl.find refs p.name)) <> 0 ->
    problem st "%s: result differs from its warm-up run" p.name;
    false
  | Ok _ -> true

let run_compile st ~seconds ~min_samples ~trace ~between progs =
  let refs = Hashtbl.create 32 in
  List.iter
    (fun (p : Suite.program) ->
      match report p with
      | _, Ok r when clean r -> Hashtbl.replace refs p.name r
      | _ -> problem st "%s: warm-up run failed" p.name)
    progs;
  if trace then
    List.iter
      (fun (p : Suite.program) ->
        if not (Replay.icbm_matches p.prog p.inputs) then
          problem st "%s: replayed ICBM loop prints different IR" p.name)
      progs;
  let lat = Hashtbl.create 32 in
  let untraced_pass () =
    List.iter
      (fun (p : Suite.program) ->
        let dt, r = report p in
        st.attempted <- st.attempted + 1;
        if not (check_result st refs p r) then st.failed <- st.failed + 1;
        if not trace then
          Hashtbl.replace lat p.name (dt :: Option.value ~default:[] (Hashtbl.find_opt lat p.name)))
      progs
  in
  let tr = new_traced () in
  let traced_pass k () =
    List.iter
      (fun (p : Suite.program) ->
        Cpr_analysis.Pqs.invalidate ();
        let r =
          Spans.sample ~key:p.name ~sid:(Printf.sprintf "%s#%d" p.name k) (fun () ->
              Spans.set_ops p.ops;
              try Ok (Replay.report ~name:p.name p.prog p.inputs)
              with e -> Error (Printexc.to_string e))
        in
        st.attempted <- st.attempted + 1;
        tr.samples <- tr.samples + 1;
        if not (check_result st refs p r) then st.failed <- st.failed + 1)
      progs
  in
  let refs_list () = Hashtbl.fold (fun _ r acc -> r :: acc) refs [] in
  if trace then begin
    ignore (timed st ~seconds ~min_samples ~between (fun k -> pair tr k ~traced:(traced_pass k) ~untraced:untraced_pass) : float);
    (layer_metrics tr, [])
  end
  else begin
    let wall = timed st ~seconds ~min_samples ~between (fun _ -> untraced_pass ()) in
    let all = Hashtbl.fold (fun _ l acc -> l @ acc) lat [] in
    let rows =
      List.map
        (fun (p : Suite.program) ->
          let r = Hashtbl.find_opt refs p.name in
          ( p.name,
            [
              ("ops", float_of_int p.ops);
              ("p50_ms", 1e3 *. median (Option.value ~default:[] (Hashtbl.find_opt lat p.name)));
            ]
            @ Option.fold ~none:[] ~some:(fun r -> quality [ r ]) r ))
        progs
    in
    ( [
        ("latency_ms.p50", 1e3 *. percentile 0.5 all);
        ("latency_ms.p90", 1e3 *. percentile 0.9 all);
        ("programs_per_s", float_of_int (List.length all) /. wall);
      ]
      @ quality (refs_list ()),
      rows )
  end

(* ------------------------------------------------------------------ *)
(* fuzz-verify: each sample is Driver.run_stage on every stage of one  *)
(* seed, caches warm, as a long fuzz run has them.                     *)

let run_fuzz st ~seconds ~min_samples ~trace ~between (f : Suite.fuzz) =
  let stages seed = List.map (fun stage -> Driver.run_stage f.check stage ~seed) Stage.all in
  let passed = List.for_all (fun o -> o = Driver.Pass) in
  for i = 0 to f.warmup_seeds - 1 do
    let seed = Suite.fuzz_seed f i in
    if not (passed (stages seed)) then problem st "seed %d: warm-up outcome not Pass" seed
  done;
  let corpus =
    List.filter_map
      (fun (p : Suite.program) ->
        match Report.run ~name:p.name p.prog p.inputs with
        | r when clean r -> Some r
        | _ -> problem st "%s: quality run not clean" p.name; None)
      f.corpus
  in
  let batch k =
    List.init f.batch (fun i -> Suite.fuzz_seed f (f.warmup_seeds + (k * f.batch) + i))
  in
  let outcomes = Hashtbl.create 1024 in
  let lat = ref [] in
  let untraced_batch k () =
    List.iter
      (fun seed ->
        let t0 = now_s () in
        let os = stages seed in
        if trace then Hashtbl.replace outcomes seed os
        else lat := (now_s () -. t0) :: !lat;
        st.attempted <- st.attempted + 1;
        if not (passed os) then begin
          st.failed <- st.failed + 1;
          problem st "seed %d: a stage did not pass" seed
        end)
      (batch k)
  in
  let tr = new_traced () in
  let replayed = Hashtbl.create 1024 in
  let traced_batch k () =
    List.iter
      (fun seed ->
        let os =
          Spans.sample ~key:(Printf.sprintf "seed-%d" seed)
            ~sid:(Printf.sprintf "seed-%d#%d" seed k) (fun () ->
              List.map (fun stage -> Replay.stage_outcome f.check stage ~seed) Stage.all)
        in
        Hashtbl.replace replayed seed os;
        st.attempted <- st.attempted + 1;
        tr.samples <- tr.samples + 1;
        if not (passed os) then st.failed <- st.failed + 1)
      (batch k)
  in
  if trace then begin
    ignore (timed st ~seconds ~min_samples ~between (fun k -> pair tr k ~traced:(traced_batch k) ~untraced:(untraced_batch k)) : float);
    Hashtbl.iter
      (fun seed os ->
        if Hashtbl.find_opt outcomes seed <> Some os then
          problem st "seed %d: replayed outcome differs from Driver.run_stage" seed)
      replayed;
    (layer_metrics tr, [])
  end
  else begin
    let wall = timed st ~seconds ~min_samples ~between (fun k -> untraced_batch k ()) in
    ( [
        ("latency_ms.p50", 1e3 *. percentile 0.5 !lat);
        ("latency_ms.p90", 1e3 *. percentile 0.9 !lat);
        ("programs_per_s", float_of_int (List.length !lat) /. wall);
      ]
      @ quality corpus,
      [] )
  end

(* ------------------------------------------------------------------ *)
(* Set-up: a fresh process that builds the workload's inputs and       *)
(* exits, timed from spawn to exit.  Untraced runs spawn one after     *)
(* every timed pass and report the median.  The host's speed changes   *)
(* within a second, so the probes sample the whole run, as the timed   *)
(* passes do, not one moment of it.                                    *)

let setup_only ~workload ~seed ~smoke =
  ignore ((Option.get (Suite.find workload)).build ~seed ~smoke : Suite.instance)

let setup_probe ~workload ~seed ~smoke =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--setup-only"; "--workload"; workload; "--seed"; string_of_int seed |]
  in
  let args = if smoke then Array.append args [| "--smoke" |] else args in
  let t0 = now_s () in
  let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> now_s () -. t0
  | _ -> failwith "set-up process failed"

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else invalid_arg "non-finite metric value"

let unit_of defs name = (List.find (fun x -> x.name = name) defs).unit

let result_line st metrics defs =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (st.problems = [] && st.failed = 0)
    st.attempted st.failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (num v)
              (unit_of defs n))
          metrics))

let write_out path ~workload ~seed ~trace st metrics rows =
  let obj kvs =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (esc k) v) kvs) ^ "}"
  in
  let nums kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs) in
  let text =
    obj
      [
        ("workload", Printf.sprintf "\"%s\"" (esc workload));
        ("seed", string_of_int seed);
        ("trace", if trace then "1" else "0");
        ("attempted", string_of_int st.attempted);
        ("failed", string_of_int st.failed);
        ( "problems",
          "[" ^ String.concat ", " (List.map (fun s -> "\"" ^ esc s ^ "\"") st.problems) ^ "]" );
        ("metrics", nums metrics);
        ("programs", obj (List.map (fun (n, kvs) -> (n, nums kvs)) rows));
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (text ^ "\n"))

let run_one ~workload ~seed ~seconds ~trace ~smoke ~out ~trace_out =
  let w = Option.get (Suite.find workload) in
  let inst = w.build ~seed ~smoke in
  (* 100 samples leave 10 beyond the 90th percentile. *)
  let seconds, min_samples = if smoke then (0, 0) else (seconds, 100) in
  Spans.keep_spans := trace_out <> None;
  let st = { attempted = 0; failed = 0; problems = [] } in
  let probes = ref [] in
  let between () =
    if not trace then probes := setup_probe ~workload ~seed ~smoke :: !probes
  in
  let metrics, rows =
    match inst with
    | Suite.Compile progs -> run_compile st ~seconds ~min_samples ~trace ~between progs
    | Suite.Fuzz f -> run_fuzz st ~seconds ~min_samples ~trace ~between f
  in
  let defs = if trace then per_layer else end_to_end in
  let metrics =
    if trace then metrics
    else metrics @ [ ("setup_s", median !probes); ("peak_rss_mb", peak_rss_mb ()) ]
  in
  let order = List.map (fun x -> x.name) defs in
  let metrics = List.map (fun n -> (n, List.assoc n metrics)) (List.filter (fun n -> List.mem_assoc n metrics) order) in
  if List.map fst metrics <> order || not (List.for_all valid_name order) then
    problem st "emitted metrics do not match BENCHMARK.json";
  Option.iter
    (fun path ->
      Spans.write_trace path;
      match Obs.Trace.parse (In_channel.with_open_text path In_channel.input_all) with
      | Ok evs when List.length evs = List.length !Spans.spans -> ()
      | _ -> problem st "%s does not parse back as the trace written" path)
    trace_out;
  Printf.printf "%s seed %d, %s, %d samples\n" workload seed
    (if trace then "traced" else "untraced")
    st.attempted;
  List.iter (fun (n, v) -> Printf.printf "  %-32s %14.6g %s\n" n v (unit_of defs n)) metrics;
  List.iter (fun p -> Printf.eprintf "%s: PROBLEM %s\n" workload p) (List.rev st.problems);
  (match out with
  | Some path ->
    write_out path ~workload ~seed ~trace st metrics rows
  | None -> ());
  print_endline (result_line st metrics defs);
  st.problems = [] && st.failed = 0

(* Without --workload: every workload in its own child process, one at
   a time, so peak RSS is per workload.  --smoke runs each both ways. *)
let run_all ~argv ~smoke =
  let exe = Sys.executable_name in
  let traces (w : Suite.t) =
    if smoke then
      [ [||]; [| "--trace"; "1"; "--trace-out"; "_bench/smoke-" ^ w.name ^ ".trace.json" |] ]
    else [ [||] ]
  in
  let runs =
    List.concat_map
      (fun (w : Suite.t) ->
        List.map
          (fun t -> Array.concat [ [| exe |]; argv; [| "--workload"; w.name |]; t ])
          (traces w))
      Suite.all
  in
  List.fold_left
    (fun ok args ->
      let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> ok | _ -> false)
    true runs

let main workload seed seconds trace out trace_out smoke describe_only setup =
  if describe_only then (print_string (describe ()); exit 0);
  (match workload with
  | Some w when Suite.find w = None ->
    Printf.eprintf "unknown workload %s (expected one of %s)\n" w
      (String.concat ", " (List.map (fun (w : Suite.t) -> w.name) Suite.all));
    exit 124
  | _ -> ());
  if not setup then (try Sys.mkdir "_bench" 0o755 with Sys_error _ -> ());
  match workload with
  | Some workload when setup -> setup_only ~workload ~seed ~smoke
  | Some workload ->
    let out =
      match out with
      | Some _ -> out
      | None when smoke -> None
      | None ->
        Some (Printf.sprintf "_bench/cprbench-%s-seed%d-trace%d.json" workload seed (Bool.to_int trace))
    in
    if not (run_one ~workload ~seed ~seconds ~trace ~smoke ~out ~trace_out) then exit 1
  | None ->
    let argv =
      Array.of_list
        ([ "--seed"; string_of_int seed; "--seconds"; string_of_int seconds ]
        @ (if trace && not smoke then [ "--trace"; "1" ] else [])
        @ if smoke then [ "--smoke" ] else [])
    in
    if not (run_all ~argv ~smoke) then exit 1

open Cmdliner

let cmd =
  let workload =
    Arg.(value & opt (some string) None
         & info [ "workload"; "w" ] ~docv:"NAME"
             ~doc:"Run one workload (paper-suite, wide-regions, many-regions, fuzz-verify). Without it, every workload runs in its own child process.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed every input is generated from.") in
  let seconds =
    Arg.(value & opt int run_seconds
         & info [ "seconds" ] ~doc:"Measure whole passes until this many seconds have passed.")
  in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: traced run, reporting the per-layer metrics instead of the end-to-end ones.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the metrics as JSON here (default: _bench/cprbench-WORKLOAD-seedS-traceT.json).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"With --trace 1, write the benchmark's spans as a Chrome trace.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"One pass over 2 programs or 20 seeds per workload, untraced and traced.")
  in
  let describe =
    Arg.(value & flag & info [ "describe" ] ~doc:"Print BENCHMARK.json as this build defines it.")
  in
  let setup =
    Arg.(value & flag & info [ "setup-only" ] ~doc:"Build the workload's inputs and exit (the set-up time probe).")
  in
  Cmd.v
    (Cmd.info "cpr_bench" ~doc:"Control CPR compile benchmark")
    Term.(const main $ workload $ seed $ seconds $ trace $ out $ trace_out $ smoke $ describe $ setup)

let () = exit (Cmd.eval cmd)
