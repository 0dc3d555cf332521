(* The observability subsystem: span nesting and ordering, counter
   monotonicity, the disabled-mode zero-allocation fast path, and the
   Chrome-trace export round-trip.  Also covers the Json codec: its
   escaper (through Bench_io.json_escape, the alias cprbench uses), its
   printer/parser round-trip and its rejection of malformed input. *)

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
    ] )
