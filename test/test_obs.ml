(* The observability subsystem: span nesting and ordering, counter
   monotonicity, the disabled-mode zero-allocation fast path, and the
   Chrome-trace export round-trip.  Also covers the Json codec and
   Bench_io, the bench harness's JSON writer/decoder and perf-regression
   gate. *)

module Obs = Cpr_obs.Obs
module Json = Cpr_obs.Json
module B = Cpr_pipeline.Bench_io

(* Telemetry state is process-global; leave it disabled and empty for
   whatever test runs next, even when this one fails. *)
let with_obs f () =
  Obs.set_enabled false;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_nesting () =
  Obs.set_enabled true;
  Obs.span "outer" (fun () ->
      Obs.span "inner-a" (fun () -> ignore (Sys.opaque_identity 1 : int));
      Obs.span "inner-b" (fun () -> ignore (Sys.opaque_identity 2 : int)));
  let evs = Obs.events () in
  Alcotest.(check (list string))
    "start order"
    [ "outer"; "inner-a"; "inner-b" ]
    (List.map (fun (e : Obs.event) -> e.Obs.name) evs);
  Alcotest.(check (list int))
    "depths" [ 0; 1; 1 ]
    (List.map (fun (e : Obs.event) -> e.Obs.depth) evs);
  let outer = List.hd evs in
  List.iter
    (fun (e : Obs.event) ->
      Alcotest.(check int) "same track" outer.Obs.track e.Obs.track;
      Alcotest.(check bool)
        "child within parent" true
        (Int64.compare e.Obs.start_ns outer.Obs.start_ns >= 0
        && Int64.compare
             (Int64.add e.Obs.start_ns e.Obs.dur_ns)
             (Int64.add outer.Obs.start_ns outer.Obs.dur_ns)
           <= 0))
    (List.tl evs)

let test_span_summary_merge () =
  Obs.set_enabled true;
  for _ = 1 to 3 do
    Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ()))
  done;
  match Obs.Summary.tree () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Obs.Summary.name;
    Alcotest.(check int) "root count" 3 root.Obs.Summary.count;
    (match root.Obs.Summary.children with
    | [ child ] ->
      Alcotest.(check string) "child name" "inner" child.Obs.Summary.name;
      Alcotest.(check int) "child count" 3 child.Obs.Summary.count;
      Alcotest.(check bool)
        "child time within root" true
        (Int64.compare child.Obs.Summary.total_ns root.Obs.Summary.total_ns
        <= 0)
    | cs -> Alcotest.failf "expected 1 child, got %d" (List.length cs))
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_span_exception () =
  Obs.set_enabled true;
  (try Obs.span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  match Obs.events () with
  | [ e ] -> Alcotest.(check string) "recorded anyway" "boom" e.Obs.name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)

let test_counter_monotonic () =
  Obs.set_enabled true;
  let c = Obs.counter "t.mono" in
  let last = ref 0 in
  for i = 1 to 20 do
    if i mod 3 = 0 then Obs.add c 5 else Obs.incr c;
    let v = Obs.counter_value c in
    Alcotest.(check bool) "monotonic" true (v > !last);
    last := v
  done;
  (* Interned: a second lookup is the same counter, not a shadow. *)
  Obs.incr (Obs.counter "t.mono");
  Alcotest.(check int) "interned handle" (!last + 1) (Obs.counter_value c);
  Alcotest.(check bool)
    "listed" true
    (List.mem_assoc "t.mono" (Obs.counters ()))

let test_counter_reset () =
  Obs.set_enabled true;
  let c = Obs.counter "t.reset" in
  Obs.add c 7;
  Obs.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.counter_value c);
  Obs.set_enabled true;
  Obs.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Obs.counter_value c)

let test_gauge_last_write_wins () =
  Obs.set_enabled true;
  Obs.gauge "t.g" 1.5;
  Obs.gauge "t.g" 2.5;
  Alcotest.(check (float 1e-9))
    "last value" 2.5
    (List.assoc "t.g" (Obs.gauges ()))

(* ------------------------------------------------------------------ *)
(* Disabled fast path                                                  *)

let test_disabled_no_effect () =
  let c = Obs.counter "t.off" in
  Obs.incr c;
  Obs.add c 100;
  Alcotest.(check int) "counter untouched" 0 (Obs.counter_value c);
  let r = Obs.span "off" (fun () -> 42) in
  Alcotest.(check int) "span is identity" 42 r;
  Alcotest.(check int) "no events" 0 (List.length (Obs.events ()))

let test_disabled_zero_alloc () =
  let c = Obs.counter "t.off2" in
  let f () = 0 in
  (* Warm-up takes any one-time allocation out of the measurement. *)
  for _ = 1 to 100 do
    Obs.incr c;
    ignore (Obs.span "off2" f : int)
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Obs.incr c;
    Obs.add c 3;
    ignore (Obs.span "off2" f : int)
  done;
  let dw = Gc.minor_words () -. w0 in
  (* Even one boxed word per call would cost >= n words; allow slack for
     the Gc.minor_words calls themselves. *)
  if dw >= float_of_int n then
    Alcotest.failf "disabled path allocated %.0f minor words over %d calls" dw
      n

(* ------------------------------------------------------------------ *)
(* Trace export round-trip                                             *)

let test_trace_roundtrip () =
  Obs.set_enabled true;
  Obs.span
    ~args:[ ("k", "v\"with\\escapes\n") ]
    "outer"
    (fun () -> Obs.span "inner" (fun () -> ()));
  Obs.add (Obs.counter "t.rt") 7;
  Obs.gauge "t.rtg" 0.5;
  let s = Obs.Trace.to_string () in
  match Obs.Trace.parse s with
  | Error e -> Alcotest.failf "trace does not parse back: %s" e
  | Ok parsed ->
    let xs =
      List.filter (fun (p : Obs.Trace.parsed_event) -> p.Obs.Trace.pph = "X")
        parsed
    in
    Alcotest.(check (list string))
      "span events survive"
      [ "outer"; "inner" ]
      (List.map (fun (p : Obs.Trace.parsed_event) -> p.Obs.Trace.pname) xs);
    (* Timestamps and durations agree with the in-memory log to within
       the exporter's microsecond rounding. *)
    List.iter2
      (fun (e : Obs.event) (p : Obs.Trace.parsed_event) ->
        Alcotest.(check int) "tid is track" e.Obs.track p.Obs.Trace.ptid;
        let dur_us = Int64.to_float e.Obs.dur_ns /. 1000. in
        Alcotest.(check bool)
          "duration survives" true
          (Float.abs (p.Obs.Trace.pdur -. dur_us) <= 0.002))
      (Obs.events ()) xs;
    Alcotest.(check bool)
      "thread metadata present" true
      (List.exists
         (fun (p : Obs.Trace.parsed_event) -> p.Obs.Trace.pph = "M")
         parsed);
    Alcotest.(check bool)
      "counters exported" true
      (List.exists
         (fun (p : Obs.Trace.parsed_event) ->
           p.Obs.Trace.pph = "C" && p.Obs.Trace.pname = "t.rt")
         parsed)

let test_trace_parse_rejects_garbage () =
  (match Obs.Trace.parse "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Obs.Trace.parse "{\"traceEvents\": [{\"name\": \"x\"" with
  | Ok _ -> Alcotest.fail "accepted truncated JSON"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Json: the one codec                                                 *)

let test_json_escape () =
  Alcotest.(check string)
    "quotes, backslashes, newlines" "a\\\"b\\\\c\\nd"
    (B.json_escape "a\"b\\c\nd");
  Alcotest.(check string)
    "control characters" "tab\\u0009bell\\u0007"
    (B.json_escape "tab\tbell\007")

(* Strip the whitespace outside string literals. *)
let minify text =
  let b = Buffer.create (String.length text) in
  let in_string = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_string then begin
        Buffer.add_char b c;
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_string := false
      end
      else
        match c with
        | ' ' | '\n' | '\t' | '\r' -> ()
        | '"' ->
          in_string := true;
          Buffer.add_char b c
        | c -> Buffer.add_char b c)
    text;
  Buffer.contents b

let json =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )

let test_json_roundtrip () =
  let every_byte = String.init 256 Char.chr in
  let v =
    Json.Obj
      [
        ("bytes", Json.Str every_byte);
        ("k\"ey\n", Json.Arr [ Json.Num 1.; Json.Num (-0.25); Json.Null ]);
        ("nested", Json.Obj [ ("t", Json.Bool true); ("e", Json.Arr []) ]);
        ("big", Json.Num 15146630.);
        ("third", Json.Num (1. /. 3.));
      ]
  in
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok back -> Alcotest.check json "round-trips" v back
      | Error e -> Alcotest.failf "printer output does not parse: %s" e)
    [ Json.to_string v; minify (Json.to_string v) ];
  Alcotest.(check string)
    "integers print without a fraction" "[ 990, 0.0513 ]\n"
    (Json.to_string (Json.Arr [ Json.Num 990.; Json.fixed 4 0.05128 ]))

let test_json_rejects () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%S: error names an offset (%s)" text e)
          true
          (Astring_like.contains e "at offset"))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "\"\\q\""; "nul"; "1 2"; "{\"a\":1}}" ]

(* ------------------------------------------------------------------ *)
(* Bench_io: --json targets, the decoder, the perf gate                *)

let test_targets_bare_filename () =
  (* The historical bug: a bare --json filename went through
     Filename.dirname/concat and came back as "./BENCH_latest.json", so
     the dated = latest dedup failed and the file was written twice. *)
  let dated, latest =
    B.targets ~is_dir:false ~date:"2026-08-09" "BENCH_latest.json"
  in
  Alcotest.(check string) "dated is the given name" "BENCH_latest.json" dated;
  Alcotest.(check string) "latest not ./-prefixed" "BENCH_latest.json" latest

let test_targets_dir_and_nested () =
  let dated, latest = B.targets ~is_dir:true ~date:"2026-08-09" "_bench" in
  Alcotest.(check string)
    "dated under dir"
    (Filename.concat "_bench" "BENCH_2026-08-09.json")
    dated;
  Alcotest.(check string)
    "latest under dir"
    (Filename.concat "_bench" "BENCH_latest.json")
    latest;
  let dated, latest =
    B.targets ~is_dir:false ~date:"2026-08-09"
      (Filename.concat "out" "custom.json")
  in
  Alcotest.(check string)
    "explicit file kept"
    (Filename.concat "out" "custom.json")
    dated;
  Alcotest.(check string)
    "latest beside it"
    (Filename.concat "out" "BENCH_latest.json")
    latest

let decoded text =
  match B.decode text with
  | Ok b -> b
  | Error e -> Alcotest.failf "baseline does not decode: %s" e

(* A baseline holding just the gate's inputs, as [(name, verify_s,
   total_s)] rows. *)
let baseline entries =
  decoded
    (Json.to_string
       (Json.Obj
          [
            ( "benchmarks",
              Json.Arr
                (List.map
                   (fun (name, verify_s, total_s) ->
                     Json.Obj
                       [
                         ("name", Json.Str name);
                         ("verify_s", Json.Num verify_s);
                         ("total_s", Json.Num total_s);
                       ])
                   entries) );
          ]))

let test_read_workloads () =
  let rows (b : B.baseline) =
    List.map (fun (w : B.workload) -> (w.B.name, w.B.verify_s, w.B.total_s))
      b.B.workloads
  in
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "parsed back"
    [ ("w1", 0.1, 1.0); ("w2", 0.2, 2.0) ]
    (rows (baseline [ ("w1", 0.1, 1.0); ("w2", 0.2, 2.0) ]))

let quality_json =
  (* The single-line height/pressure objects exactly as render writes
     them, inside a benchmarks entry. *)
  String.concat "\n"
    [
      "{";
      "  \"benchmarks\": [";
      "    { \"name\": \"w1\",";
      "      \"verify_s\": 0.1,";
      "      \"total_s\": 1.0,";
      "      \"height\": { \"bound_cycles\": 100, \"achieved_cycles\": 110, \
       \"gap\": 0.1000 },";
      "      \"pressure\": { \"gpr_maxlive\": 14, \"pred_maxlive\": 5, \
       \"btr_maxlive\": 4 },";
      "      \"baseline_cycles\": { \"Seq\": 1 } },";
      "    { \"name\": \"w2\",";
      "      \"verify_s\": 0.2,";
      "      \"total_s\": 2.0,";
      "      \"height\": { \"bound_cycles\": 50, \"achieved_cycles\": 50, \
       \"gap\": 0.0000 },";
      "      \"baseline_cycles\": { \"Seq\": 1 } }";
      "  ]";
      "}";
    ]

let test_read_height_and_pressure () =
  match (decoded quality_json).B.workloads with
  | [ w1; w2 ] ->
    (match (w1.B.height, w2.B.height) with
    | Some h1, Some h2 ->
      Alcotest.(check (float 1e-9)) "w1 gap" 0.1 h1.B.gap;
      Alcotest.(check int) "w1 bound" 100 h1.B.h_bound;
      Alcotest.(check int) "w1 achieved" 110 h1.B.h_achieved;
      Alcotest.(check int) "w2 abs gap" 0 (h2.B.h_achieved - h2.B.h_bound)
    | _ -> Alcotest.fail "expected a height entry on both workloads");
    Alcotest.(check (list (pair string int)))
      "w1 classes"
      [ ("gpr", 14); ("pred", 5); ("btr", 4) ]
      w1.B.pressure;
    Alcotest.(check (list (pair string int)))
      "w2 predates the pressure object" [] w2.B.pressure
  | ws -> Alcotest.failf "expected 2 workloads, got %d" (List.length ws)

let committed_baseline () =
  match B.read_file (Filename.concat ".." "BENCH_latest.json") with
  | Some text -> text
  | None -> Alcotest.fail "committed BENCH_latest.json not found"

let test_decode_committed () =
  let text = committed_baseline () in
  let b = decoded text in
  Alcotest.(check int) "24 workloads" 24 (List.length b.B.workloads);
  Alcotest.(check bool)
    "verify_total_s present" true
    (b.B.verify_total_s <> None);
  Alcotest.(check bool) "micro table present" true (b.B.micro <> []);
  Alcotest.(check bool) "pqs counters present" true
    (List.mem_assoc "pqs.memo_hits" b.B.counters);
  (match
     List.find_opt (fun (w : B.workload) -> w.B.name = "strcpy") b.B.workloads
   with
  | None -> Alcotest.fail "strcpy missing"
  | Some w ->
    Alcotest.(check (float 1e-9)) "strcpy total_s" 0.0069 w.B.total_s;
    (match w.B.height with
    | Some h ->
      Alcotest.(check (float 1e-9)) "strcpy gap" 0.3938 h.B.gap;
      Alcotest.(check int) "strcpy bound" 650 h.B.h_bound;
      Alcotest.(check int) "strcpy achieved" 906 h.B.h_achieved
    | None -> Alcotest.fail "strcpy height missing");
    Alcotest.(check (list (pair string int)))
      "strcpy pressure"
      [ ("gpr", 19); ("pred", 9); ("btr", 7) ]
      w.B.pressure);
  (* Layout is not part of the format. *)
  Alcotest.(check bool)
    "minified copy decodes to an equal value" true
    (decoded (minify text) = b)

let test_decode_rejects () =
  let text = committed_baseline () in
  let expect_error what input =
    match B.decode input with
    | Ok _ -> Alcotest.failf "%s decoded" what
    | Error _ -> ()
  in
  expect_error "truncated baseline"
    (String.sub text 0 (String.length text / 2));
  expect_error "garbage" "not json at all";
  expect_error "empty file" "";
  expect_error "no benchmarks array" "{ \"date\": \"2026-08-09\" }";
  expect_error "ill-typed total_s"
    "{ \"benchmarks\": [ { \"name\": \"w\", \"verify_s\": 0, \"total_s\": \
     \"fast\" } ] }";
  (* Unknown members, such as counters a later harness drops, are
     ignored. *)
  let extra =
    "{ \"benchmarks\": [], \"pqs\": { \"retired.counter\": 0 }, \
     \"future\": [ 1 ] }"
  in
  Alcotest.(check int) "unknown fields ignored" 0
    (List.length (decoded extra).B.workloads)

let test_render_decode_roundtrip () =
  let w = Option.get (Cpr_workloads.Registry.find "strcpy") in
  let r =
    Cpr_pipeline.Report.run ~name:"strcpy" (w.Cpr_workloads.Workload.build ())
      (w.Cpr_workloads.Workload.inputs ())
  in
  let b =
    decoded
      (B.render
         ~date:"2026-08-09" ~domains:1 ~results:[ r ]
         ~micro:[ ("m", Some 12.34); ("gone", None) ]
         ~par:((0., 0.), (0., 0.))
         ())
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "micro without nulls" [ ("m", 12.3) ] b.B.micro;
  match b.B.workloads with
  | [ w ] ->
    Alcotest.(check string) "name" "strcpy" w.B.name;
    Alcotest.(check (list (pair string int)))
      "pressure" r.Cpr_pipeline.Report.pressure w.B.pressure;
    Alcotest.(check (option int))
      "achieved cycles"
      (Some r.Cpr_pipeline.Report.achieved_cycles)
      (Option.map (fun h -> h.B.h_achieved) w.B.height)
  | ws -> Alcotest.failf "expected 1 workload, got %d" (List.length ws)

let test_render_pqs_counters () =
  let render pqs =
    decoded
      (B.render ~pqs ~date:"2026-08-09" ~domains:1 ~results:[] ~micro:[]
         ~par:((0., 0.), (0., 0.))
         ())
  in
  Alcotest.(check (list (pair string int)))
    "counters read back sorted"
    [ ("pqs.memo_hits", 90); ("pqs.memo_misses", 10); ("pqs.queries", 55) ]
    (render
       [ ("pqs.memo_misses", 10); ("pqs.memo_hits", 90); ("pqs.queries", 55) ])
      .B.counters;
  Alcotest.(check (list (pair string int)))
    "absent when not provided" [] (render []).B.counters

let test_check_passes_on_equal () =
  let entries = [ ("w1", 0.1, 1.0); ("w2", 0.2, 2.0) ] in
  let deltas =
    B.check ~tolerance:25.0 ~baseline:(baseline entries) ~current:entries
  in
  Alcotest.(check int) "two workloads + suite row" 5 (List.length deltas);
  Alcotest.(check int) "no regressions" 0 (List.length (B.regressions deltas))

let test_check_fails_on_regression () =
  let deltas =
    B.check ~tolerance:25.0
      ~baseline:(baseline [ ("w1", 0.1, 1.0) ])
      ~current:[ ("w1", 0.1, 2.0) ]
  in
  let regs = B.regressions deltas in
  Alcotest.(check bool) "gate trips" true (regs <> []);
  Alcotest.(check bool)
    "total_s row tripped" true
    (List.exists (fun (d : B.delta) -> d.B.metric = "total_s") regs)

let test_check_noise_floor () =
  (* 10x relative regression but only 9ms absolute: below the 20ms
     floor, so a shared-runner blip does not fail CI. *)
  let deltas =
    B.check ~tolerance:25.0
      ~baseline:(baseline [ ("w1", 0.0, 0.001) ])
      ~current:[ ("w1", 0.0, 0.01) ]
  in
  Alcotest.(check int)
    "absolute floor holds" 0
    (List.length (B.regressions deltas))

let test_check_ignores_unmatched () =
  let deltas =
    B.check ~tolerance:25.0
      ~baseline:(baseline [ ("w1", 0.1, 1.0) ])
      ~current:[ ("w1", 0.1, 1.0); ("only-in-current", 9.0, 9.0) ]
  in
  Alcotest.(check bool)
    "unmatched workload not compared" true
    (not
       (List.exists
          (fun (d : B.delta) -> d.B.workload = "only-in-current")
          deltas));
  Alcotest.(check int) "still clean" 0 (List.length (B.regressions deltas))

let test_check_warns_missing_baseline () =
  (* The gate skips baseline workloads with no current row (a --quick
     run against a full-suite baseline must still pass), but the bench
     driver warns with this list so a workload that silently stopped
     running is visible. *)
  let baseline = baseline [ ("w1", 0.1, 1.0); ("gone", 0.2, 2.0) ] in
  Alcotest.(check (list string))
    "baseline-only workload reported" [ "gone" ]
    (B.missing_from_current ~baseline ~current:[ ("w1", 0.1, 1.0) ]);
  Alcotest.(check (list string))
    "full match reports nothing" []
    (B.missing_from_current ~baseline
       ~current:[ ("w1", 0.1, 1.0); ("gone", 0.2, 2.0) ]);
  let deltas =
    B.check ~tolerance:25.0 ~baseline ~current:[ ("w1", 0.1, 1.0) ]
  in
  Alcotest.(check int)
    "missing workload never regresses the gate" 0
    (List.length (B.regressions deltas))

let test_height_gap_floor () =
  let e gap h_bound h_achieved = { B.gap; h_bound; h_achieved } in
  (* The historical flap: a 1-cycle schedule blip on a tiny workload is
     a huge ratio move but must stay below the absolute floor. *)
  Alcotest.(check bool)
    "one cycle on a tiny workload is noise" false
    (B.height_regressed ~base:(e 0.0 10 10) ~cur:(e 0.1 10 11));
  Alcotest.(check bool)
    "two cycles past the ratio tolerance regresses" true
    (B.height_regressed ~base:(e 0.0 10 10) ~cur:(e 0.2 10 12));
  (* A large absolute move that barely changes the ratio on a big
     workload is below the percentage-point test. *)
  Alcotest.(check bool)
    "ratio within a point is not a regression" false
    (B.height_regressed ~base:(e 0.100 1000 1100) ~cur:(e 0.105 1000 1105));
  Alcotest.(check bool)
    "improvement never regresses" false
    (B.height_regressed ~base:(e 0.2 10 12) ~cur:(e 0.0 10 10))

let test_pressure_floor () =
  Alcotest.(check bool)
    "within the floor is noise" false
    (B.pressure_regressed ~base:10 ~cur:12);
  Alcotest.(check bool)
    "past the floor regresses" true
    (B.pressure_regressed ~base:10 ~cur:13);
  Alcotest.(check bool)
    "improvement never regresses" false
    (B.pressure_regressed ~base:12 ~cur:10)

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting and ordering" `Quick
        (with_obs test_span_nesting);
      Alcotest.test_case "summary merges by name path" `Quick
        (with_obs test_span_summary_merge);
      Alcotest.test_case "span records on exception" `Quick
        (with_obs test_span_exception);
      Alcotest.test_case "counter monotonicity" `Quick
        (with_obs test_counter_monotonic);
      Alcotest.test_case "reset zeroes, handles survive" `Quick
        (with_obs test_counter_reset);
      Alcotest.test_case "gauge last write wins" `Quick
        (with_obs test_gauge_last_write_wins);
      Alcotest.test_case "disabled mode records nothing" `Quick
        (with_obs test_disabled_no_effect);
      Alcotest.test_case "disabled mode does not allocate" `Quick
        (with_obs test_disabled_zero_alloc);
      Alcotest.test_case "trace JSON round-trip" `Quick
        (with_obs test_trace_roundtrip);
      Alcotest.test_case "trace parser rejects garbage" `Quick
        (with_obs test_trace_parse_rejects_garbage);
      Alcotest.test_case "bench json_escape" `Quick test_json_escape;
      Alcotest.test_case "json round-trips escapes and control bytes" `Quick
        test_json_roundtrip;
      Alcotest.test_case "json parser rejects malformed input" `Quick
        test_json_rejects;
      Alcotest.test_case "bench --json bare filename" `Quick
        test_targets_bare_filename;
      Alcotest.test_case "bench decode committed baseline" `Quick
        test_decode_committed;
      Alcotest.test_case "bench decode rejects malformed baselines" `Quick
        test_decode_rejects;
      Alcotest.test_case "bench --json dir and nested" `Quick
        test_targets_dir_and_nested;
      Alcotest.test_case "bench read_workloads" `Quick test_read_workloads;
      Alcotest.test_case "bench read_height / read_pressure" `Quick
        test_read_height_and_pressure;
      Alcotest.test_case "perf gate passes on equal" `Quick
        test_check_passes_on_equal;
      Alcotest.test_case "perf gate trips on regression" `Quick
        test_check_fails_on_regression;
      Alcotest.test_case "perf gate noise floor" `Quick test_check_noise_floor;
      Alcotest.test_case "perf gate ignores unmatched" `Quick
        test_check_ignores_unmatched;
      Alcotest.test_case "perf gate lists missing baseline workloads" `Quick
        test_check_warns_missing_baseline;
      Alcotest.test_case "height-gap warning absolute floor" `Quick
        test_height_gap_floor;
      Alcotest.test_case "pressure warning absolute floor" `Quick
        test_pressure_floor;
      Alcotest.test_case "bench json pqs counters" `Quick
        test_render_pqs_counters;
      Alcotest.test_case "bench json render/decode round-trip" `Quick
        test_render_decode_roundtrip;
    ] )
