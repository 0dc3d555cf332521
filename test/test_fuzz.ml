(* The fuzzing subsystem's own tests: corpus replay, determinism, and
   the oracle self-test (every injectable fault must be caught). *)

open Cpr_ir
module F = Cpr_fuzz
module W = Cpr_workloads
open Helpers

let corpus_dir = "corpus"

(* Every committed counterexample replays clean: an artifact records a
   historical miscompile, so a Fail here means the bug came back. *)
let corpus_replays_clean () =
  let entries = F.Corpus.load_dir corpus_dir in
  checkb "corpus is not empty" true (entries <> []);
  List.iter
    (fun (path, entry) ->
      match entry with
      | Error e -> Alcotest.failf "%s: unreadable artifact: %s" path e
      | Ok entry -> (
        match F.Corpus.replay entry with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: regressed: %s" path e))
    entries

(* Artifacts round-trip through the printer/parser: loading and
   re-printing an artifact's program is a fixpoint. *)
let corpus_round_trips () =
  List.iter
    (fun (path, entry) ->
      match entry with
      | Error e -> Alcotest.failf "%s: unreadable artifact: %s" path e
      | Ok (entry : F.Corpus.entry) ->
        let text = Printer.to_text entry.F.Corpus.prog in
        let reparsed = Parser_.of_text text in
        check Alcotest.string path text (Printer.to_text reparsed))
    (F.Corpus.load_dir corpus_dir)

(* Same seed, same configuration => byte-identical program and the same
   verdict.  Generation and checking share no hidden state. *)
let determinism () =
  List.iter
    (fun seed ->
      let p1 = W.Gen.prog_of_seed seed and p2 = W.Gen.prog_of_seed seed in
      check Alcotest.string
        (Printf.sprintf "program of seed %d" seed)
        (Printer.to_text p1) (Printer.to_text p2);
      let stage = Option.get (F.Stage.find "icbm") in
      let verdict o =
        match o with
        | F.Driver.Pass -> "pass"
        | F.Driver.Fail r -> "fail: " ^ r
        | F.Driver.Skip r -> "skip: " ^ r
      in
      check Alcotest.string
        (Printf.sprintf "verdict of seed %d" seed)
        (verdict (F.Driver.run_stage F.Driver.default_check stage ~seed))
        (verdict (F.Driver.run_stage F.Driver.default_check stage ~seed)))
    [ 0; 7; 52; 113 ]

(* Mutation testing of the oracle: each injectable miscompile must
   produce at least one failure over a small seed range, and the
   shrinker must reduce one to a tiny reproducer. *)
let faults_are_caught () =
  let stage = Option.get (F.Stage.find "icbm") in
  List.iter
    (fun fault ->
      let check_ = { F.Driver.default_check with F.Driver.fault = Some fault } in
      let failing =
        List.find_opt
          (fun seed ->
            match F.Driver.run_stage check_ stage ~seed with
            | F.Driver.Fail _ -> true
            | F.Driver.Pass | F.Driver.Skip _ -> false)
          (List.init 40 Fun.id)
      in
      match failing with
      | None ->
        Alcotest.failf "fault %s: no failure in seeds 0..40 — oracle is blind"
          (F.Fault.name fault)
      | Some seed ->
        let shrunk = F.Shrink.minimize check_ stage ~seed in
        let blocks = shrunk.F.Shrink.shape.W.Gen.blocks in
        if blocks > 3 then
          Alcotest.failf "fault %s seed %d: shrunk to %d blocks (want <= 3)"
            (F.Fault.name fault) seed blocks)
    F.Fault.all

(* The regression the fuzzer caught in Offtrace/Icbm (a moved branch
   whose reaching pbr stayed behind) and in Superblock.prune_unreachable
   (a region referenced only by a dangling pbr label): seed 52 through
   the end-to-end pipeline exercised both. *)
let seed_52_fullpipe () =
  let stage = Option.get (F.Stage.find "fullpipe") in
  match F.Driver.run_stage F.Driver.default_check stage ~seed:52 with
  | F.Driver.Pass -> ()
  | F.Driver.Fail r -> Alcotest.failf "seed 52 regressed: %s" r
  | F.Driver.Skip r -> Alcotest.failf "seed 52 reference broke: %s" r

(* Reader faults: a garbled or truncated artifact is an [Error] naming
   the file (and, for a metadata line, its line number), never an
   exception and never a silently defaulted field. *)
let with_text text f =
  let path = Filename.temp_file "cpr-corpus" ".cpr" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

let artifact = Filename.concat corpus_dir "icbm-seed0017.cpr"

let load_text text =
  with_text text (fun path ->
      match F.Corpus.load path with
      | result -> (path, result)
      | exception e ->
        Alcotest.failf "Corpus.load raised %s" (Printexc.to_string e))

let expect_error ~what text expected =
  match load_text text with
  | _, Ok _ -> Alcotest.failf "%s: loaded" what
  | path, Error msg ->
    check Alcotest.string what (Printf.sprintf "%s:%s" path expected) msg

let corpus_garbled () =
  let text = In_channel.with_open_bin artifact In_channel.input_all in
  let lines = String.split_on_char '\n' text in
  let replace n line =
    String.concat "\n"
      (List.mapi (fun i l -> if i = n - 1 then line else l) lines)
  in
  check Alcotest.string "line 2 is the seed" "# seed: 17" (List.nth lines 1);
  expect_error ~what:"bad seed" (replace 2 "# seed: seventeen")
    "2: malformed seed \"seventeen\"";
  expect_error ~what:"bad stage" (replace 3 "# stage: nosuch")
    "3: unknown stage \"nosuch\"";
  expect_error ~what:"bad input value" (replace 7 "# input: mem 1063=x")
    "7: malformed input \"mem 1063=x\": int_of_string";
  expect_error ~what:"bad input group" (replace 8 "# input: heap 1=2")
    "8: malformed input \"heap 1=2\": bad input group heap";
  expect_error ~what:"bad binding" (replace 9 "# input: gpr r1")
    "9: malformed input \"gpr r1\": bad binding r1";
  (* A well-formed artifact without a seed line reads as seed -1. *)
  match
    load_text
      (String.concat "\n" (List.filteri (fun i _ -> i <> 1) lines))
  with
  | _, Ok e -> checki "missing seed" (-1) e.F.Corpus.seed
  | _, Error msg -> Alcotest.failf "no seed line: %s" msg

(* Every prefix of an artifact loads or fails with an [Error]. *)
let corpus_truncated () =
  let text = In_channel.with_open_bin artifact In_channel.input_all in
  let errors = ref 0 in
  for len = 0 to String.length text - 1 do
    match load_text (String.sub text 0 len) with
    | _, Ok _ -> ()
    | _, Error _ -> incr errors
  done;
  checkb "truncations are reported" true (!errors > 0)

let suite =
  ( "fuzz",
    [
      case "corpus replays clean" corpus_replays_clean;
      case "corpus round-trips" corpus_round_trips;
      case "determinism" determinism;
      case "faults are caught" faults_are_caught;
      case "seed 52 fullpipe regression" seed_52_fullpipe;
      case "corpus loader: garbled metadata" corpus_garbled;
      case "corpus loader: every truncation" corpus_truncated;
    ] )
