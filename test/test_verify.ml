(* Static verifier tests: handcrafted dataflow lints, translation
   validation units, the corpus fault-injection regression (no simulator
   runs), and a brute-force soundness property cross-checking every lint
   verdict against exhaustive [Pqs.eval] enumeration. *)

open Cpr_ir
module V = Cpr_verify
module F = Cpr_fuzz
module W = Cpr_workloads
module P = Cpr_pipeline
module Pqs = Cpr_analysis.Pqs
open Helpers

let corpus_dir = "corpus"
let checks fs = List.map (fun (f : V.Finding.t) -> f.V.Finding.check) fs
let has_check name fs = List.mem name (checks fs)
let errors_of (r : V.Verify.report) = V.Verify.errors r

(* A predicate read as a guard before the op that computes it. *)
let pred_use_before_def () =
  let prog =
    single_region (fun ctx e ->
        let p = Builder.pred ctx in
        let r = Builder.gprs ctx 2 in
        ignore (Builder.movi e r.(0) 1 : Op.t);
        ignore (Builder.addi e ~guard:(Op.If p) r.(1) r.(0) 1 : Op.t);
        ignore (Builder.cmpp1 e Op.Eq Op.Un p (Op.Reg r.(0)) (Op.Imm 0) : Op.t))
  in
  checkb "guard read before def is pred-undef" true
    (has_check "pred-undef" (errors_of (V.Verify.check_program prog)))

(* Wired-OR accumulators read their old value: without a [Pred_init]
   the first compare accumulates into garbage; with one, every query is
   proved and nothing is reported. *)
let accumulator_needs_init () =
  let build ~init ctx e =
    let p = Builder.pred ctx in
    let r = Builder.gpr ctx in
    if init then ignore (Builder.pred_init e [ (p, false) ] : Op.t);
    ignore (Builder.movi e r 1 : Op.t);
    ignore (Builder.cmpp1 e Op.Eq Op.On p (Op.Reg r) (Op.Imm 0) : Op.t);
    ignore (Builder.cmpp1 e Op.Eq Op.On p (Op.Reg r) (Op.Imm 1) : Op.t)
  in
  checkb "uninitialized accumulator is pred-undef" true
    (has_check "pred-undef"
       (errors_of (V.Verify.check_program (single_region (build ~init:false)))));
  check
    Alcotest.(list string)
    "initialized accumulator verifies clean" []
    (checks
       (V.Verify.check_program (single_region (build ~init:true))).V.Verify
         .findings)

(* The seed-0008 shape: a loop whose accumulator is defined on the
   back edge but not on the entry edge.  The merged may-analysis alone
   would miss it; the edge-wise refinement reports the first-iteration
   read. *)
let loop_first_iteration_undef () =
  let build ~init =
    let ctx = Builder.create () in
    let p = Builder.pred ctx in
    let r = Builder.gpr ctx in
    let start =
      Builder.region ctx "Start" ~fallthrough:"Loop" (fun e ->
          if init then ignore (Builder.pred_init e [ (p, false) ] : Op.t);
          ignore (Builder.movi e r 0 : Op.t))
    in
    let loop =
      Builder.region ctx "Loop" ~fallthrough:"Exit" (fun e ->
          ignore (Builder.cmpp1 e Op.Eq Op.On p (Op.Reg r) (Op.Imm 0) : Op.t);
          ignore (Builder.branch_to e ~guard:(Op.If p) "Loop" : Op.t))
    in
    Builder.prog ctx ~entry:"Start" [ start; loop ]
  in
  checkb "first-iteration accumulator read is pred-undef" true
    (has_check "pred-undef"
       (errors_of (V.Verify.check_program (build ~init:false))));
  check
    Alcotest.(list string)
    "initialized loop verifies clean" []
    (checks (V.Verify.check_program (build ~init:true)).V.Verify.findings)

(* Translation validation: swapping two flow-dependent ops inverts a
   dependence and is reported; the identity transformation is clean. *)
let tv_order_swap () =
  let prog =
    single_region (fun ctx e ->
        let r = Builder.gprs ctx 3 in
        ignore (Builder.movi e r.(0) 1 : Op.t);
        ignore (Builder.addi e r.(1) r.(0) 1 : Op.t);
        ignore (Builder.addi e r.(2) r.(1) 1 : Op.t))
  in
  let after = Prog.copy prog in
  let m = Prog.find_exn after "Main" in
  (match m.Region.ops with
  | [ a; b; c ] -> m.Region.ops <- [ a; c; b ]
  | _ -> Alcotest.fail "unexpected region shape");
  checkb "inverted dependence is tv-order" true
    (has_check "tv-order"
       (errors_of (V.Verify.check_stage ~stage:"icbm" ~before:prog after)));
  check
    Alcotest.(list string)
    "identity transformation verifies clean" []
    (checks
       (V.Verify.check_stage ~stage:"icbm" ~before:prog (Prog.copy prog))
         .V.Verify.findings)

(* tv-store-guard decides by substitution, with no cap on the literal
   count: a store behind 13 exit branches, each on its own compare,
   is proved on the identity transformation, not counted unknown. *)
let tv_store_guard_wide () =
  let n = 13 in
  let prog =
    single_region (fun ctx e ->
        let r = Builder.gpr ctx in
        let ps = Builder.preds ctx n in
        ignore (Builder.movi e r 0 : Op.t);
        Array.iteri
          (fun k p ->
            ignore (Builder.cmpp1 e Op.Eq Op.Un p (Op.Reg r) (Op.Imm k) : Op.t);
            ignore (Builder.branch_to e ~guard:(Op.If p) "Exit" : Op.t))
          ps;
        ignore (Builder.store e ~base:r ~off:0 (Op.Reg r) : Op.t))
  in
  let stats = V.Finding.new_stats () in
  let findings =
    V.Tv.validate ~stats ~stage:"frp" ~before:prog (Prog.copy prog)
  in
  check Alcotest.(list string) "identity is clean" [] (checks findings);
  checki "store guard over 13 literals is not unknown" 0
    stats.V.Finding.unknown;
  checki "store guard over 13 literals is proved" 1 stats.V.Finding.proved

(* End-to-end on the paper workload: the ICBM output verifies clean
   against its input, and every injectable historical miscompile is
   flagged by the verifier alone. *)
let strcpy_faults_caught () =
  let w = Option.get (W.Registry.find "strcpy") in
  let inputs = w.W.Workload.inputs () in
  let before = P.Passes.prepare (w.W.Workload.build ()) inputs in
  let transformed () =
    (P.Passes.height_reduce ~verify:false (w.W.Workload.build ()) inputs)
      .P.Passes.prog
  in
  check
    Alcotest.(list string)
    "unfaulted strcpy icbm verifies clean" []
    (checks
       (errors_of (V.Verify.check_stage ~stage:"icbm" ~before (transformed ()))));
  List.iter
    (fun fault ->
      let cand = transformed () in
      F.Fault.inject fault cand;
      checkb (F.Fault.name fault ^ " caught statically") true
        (errors_of (V.Verify.check_stage ~stage:"icbm" ~before cand) <> []))
    F.Fault.all

(* The corpus as a static regression: every shrunk counterexample's
   transform verifies clean, every artifact catches at least one
   injected miscompile, every historical fault class is caught on more
   than half the corpus, and the Set-3 sinking reproducer (seed 1921)
   catches all of them — with zero simulator invocations. *)
let corpus_static_regression () =
  let results = F.Static_check.check_dir corpus_dir in
  checkb "corpus is not empty" true (results <> []);
  let caught_per_class = Hashtbl.create 7 in
  List.iter
    (fun (path, res) ->
      match res with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok (r : F.Static_check.entry_result) ->
        (match r.F.Static_check.clean with
        | Ok () -> ()
        | Error m ->
          Alcotest.failf "%s: transform no longer verifies clean: %s" path m);
        checkb
          (path ^ ": at least one injected miscompile caught")
          true
          (List.exists
             (fun (_, fr) ->
               match fr with F.Static_check.Caught _ -> true | _ -> false)
             r.F.Static_check.faults);
        List.iter
          (fun (fault, fr) ->
            match fr with
            | F.Static_check.Caught _ ->
              let k = F.Fault.name fault in
              Hashtbl.replace caught_per_class k
                (1 + Option.value ~default:0 (Hashtbl.find_opt caught_per_class k))
            | F.Static_check.Missed | F.Static_check.Inapplicable -> ())
          r.F.Static_check.faults)
    results;
  List.iter
    (fun fault ->
      let k = F.Fault.name fault in
      let n = Option.value ~default:0 (Hashtbl.find_opt caught_per_class k) in
      checkb (k ^ " caught on more than half the corpus") true
        (2 * n > List.length results))
    F.Fault.all;
  match
    List.assoc_opt (Filename.concat corpus_dir "icbm-seed1921.cpr") results
  with
  | Some (Ok r) ->
    List.iter
      (fun (fault, fr) ->
        checkb ("seed1921 catches " ^ F.Fault.name fault) true
          (match fr with F.Static_check.Caught _ -> true | _ -> false))
      r.F.Static_check.faults
  | _ -> Alcotest.fail "icbm-seed1921.cpr missing from corpus"

(* The errors-only entry point and [check_stage_exn] report what the
   full path does, [errors (check_stage ...)]: the same errors in the
   same order. *)
let errors_only_agrees where ~stage ~before after =
  let report = V.Verify.check_stage ~stage ~before after in
  (* Every finding has the severity the table gives its kind. *)
  List.iter
    (fun (f : V.Finding.t) ->
      if f.V.Finding.severity <> V.Finding.severity_of f.V.Finding.check then
        Alcotest.failf "%s: %s finding with another severity than its kind's"
          where f.V.Finding.check)
    report.V.Verify.findings;
  let full = errors_of report in
  if V.Verify.stage_errors ~stage ~before after <> full then
    Alcotest.failf "%s: stage_errors differs from errors (check_stage)" where;
  let raised =
    match V.Verify.check_stage_exn ~stage ~before after with
    | () -> []
    | exception V.Verify.Verify_error fs -> fs
  in
  if raised <> full then
    Alcotest.failf "%s: check_stage_exn differs from errors (check_stage)"
      where

(* The stage output clean, then under each injectable fault that
   changes it.  A fault rewrites regions of a copy of the output, so the
   regions it leaves alone stay unchanged since the input. *)
let errors_only_agrees_faulted where ~stage ~before after =
  errors_only_agrees where ~stage ~before after;
  let pristine = Printer.to_text after in
  List.iter
    (fun fault ->
      let cand = Prog.copy after in
      F.Fault.inject fault cand;
      if Printer.to_text cand <> pristine then
        errors_only_agrees
          (where ^ " + " ^ F.Fault.name fault)
          ~stage ~before cand)
    F.Fault.all

let errors_only_on_workloads () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () and inputs = w.W.Workload.inputs () in
      List.iter
        (fun (stage : P.Passes.stage) ->
          let before, c =
            P.Passes.run_with_input ~verify:false stage prog inputs
          in
          errors_only_agrees_faulted
            (w.W.Workload.name ^ "/" ^ stage.P.Passes.name)
            ~stage:stage.P.Passes.name ~before c.P.Passes.prog)
        P.Passes.stages)
    W.Registry.all

let errors_only_on_seeds () =
  let check = F.Driver.default_check in
  for seed = 0 to 2000 do
    let prog = W.Gen.prog_of_seed seed in
    let inputs = F.Driver.inputs_for check seed in
    List.iter
      (fun (stage : F.Stage.t) ->
        let before, after = stage.F.Stage.run prog inputs in
        errors_only_agrees
          (Printf.sprintf "seed %d/%s" seed stage.F.Stage.name)
          ~stage:stage.F.Stage.name ~before after)
      F.Stage.all
  done

let errors_only_on_corpus () =
  List.iter
    (fun (path, loaded) ->
      match loaded with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok (e : F.Corpus.entry) ->
        let stage = e.F.Corpus.stage in
        let before, after = stage.F.Stage.run e.F.Corpus.prog e.F.Corpus.inputs in
        errors_only_agrees_faulted path ~stage:stage.F.Stage.name ~before after)
    (F.Corpus.load_dir corpus_dir)

(* The kernel ladders as the pipeline runs them: the superblock stage
   against the raw input, and the ICBM stage against the committed
   baseline, from [Passes.compile].  The many-regions programs also
   under each fault. *)
let errors_only_on_ladders () =
  let ladder ~faulted (name, prog, inputs) =
    let base, reduced = P.Passes.compile prog inputs in
    let base = Cpr_resilience.Recover.value base
    and reduced = Cpr_resilience.Recover.value reduced in
    let agrees =
      if faulted then errors_only_agrees_faulted else errors_only_agrees
    in
    agrees (name ^ "/superblock") ~stage:"superblock" ~before:prog
      base.P.Passes.prog;
    agrees (name ^ "/icbm") ~stage:"icbm" ~before:base.P.Passes.prog
      reduced.P.Passes.prog
  in
  List.iter (ladder ~faulted:true) (many_regions ());
  List.iter (ladder ~faulted:false) (wide_regions ())

(* [f ()] with telemetry on, and the values the named counters reached
   during it. *)
let counting names f =
  Fun.protect
    ~finally:(fun () ->
      Cpr_obs.Obs.set_enabled false;
      Cpr_obs.Obs.reset ())
    (fun () ->
      Cpr_obs.Obs.set_enabled true;
      Cpr_obs.Obs.reset ();
      let r = f () in
      ( r,
        List.map
          (fun n -> Cpr_obs.Obs.counter_value (Cpr_obs.Obs.counter n))
          names ))

let relints_during f =
  match counting [ "verify.input_relints" ] f with
  | r, [ n ] -> (r, n)
  | _ -> assert false

(* A program whose one region reads [p] as a guard before defining it:
   a pred-undef error. *)
let undefined_guard_prog () =
  single_region (fun ctx e ->
      let p = Builder.pred ctx in
      let r = Builder.gprs ctx 2 in
      ignore (Builder.movi e r.(0) 1 : Op.t);
      ignore (Builder.addi e ~guard:(Op.If p) r.(1) r.(0) 1 : Op.t);
      ignore (Builder.cmpp1 e Op.Eq Op.Un p (Op.Reg r.(0)) (Op.Imm 0) : Op.t))

(* An input that already carries an error, inherited by an output whose
   region the stage rebuilt (a fresh op list, the same ops): the output
   alone reports it, both paths re-lint the input once and subtract
   it. *)
let inherited_error_subtracted () =
  let before = undefined_guard_prog () in
  let after = Prog.copy before in
  let m = Prog.find_exn after "Main" in
  m.Region.ops <- List.map Fun.id m.Region.ops;
  checkb "the output alone has the error" true
    (has_check "pred-undef" (errors_of (V.Verify.check_program after)));
  errors_only_agrees "inherited" ~stage:"superblock" ~before after;
  let errs, relints =
    relints_during (fun () ->
        V.Verify.stage_errors ~stage:"superblock" ~before after)
  in
  checki "inherited error subtracted" 0 (List.length errs);
  checki "input re-linted once" 1 relints

(* An output the stage left wholly unchanged: its inherited error is
   never found, so no region is checked and the input is not
   re-linted. *)
let unchanged_output_not_checked () =
  let before = undefined_guard_prog () in
  let after = Prog.copy before in
  errors_only_agrees "unchanged" ~stage:"superblock" ~before after;
  let errs, counts =
    counting [ "verify.input_relints"; "verify.regions_checked" ] (fun () ->
        V.Verify.stage_errors ~stage:"superblock" ~before after)
  in
  checki "no errors" 0 (List.length errs);
  check Alcotest.(list int) "no re-lint, no region checked" [ 0; 0 ] counts

(* An op that survives the stage keeps its id, and may carry an [orig]
   from an earlier stage.  An inherited error on it is keyed by its own
   id on both sides, so it is subtracted, not re-reported as new. *)
let inherited_error_on_earlier_copy () =
  let before = undefined_guard_prog () in
  let m = Prog.find_exn before "Main" in
  m.Region.ops <-
    List.map
      (fun (op : Op.t) ->
        if op.Op.guard <> Op.True then { op with Op.orig = Some 1000 } else op)
      m.Region.ops;
  let after = Prog.copy before in
  let m' = Prog.find_exn after "Main" in
  m'.Region.ops <- List.map Fun.id m'.Region.ops;
  errors_only_agrees "earlier copy" ~stage:"superblock" ~before after;
  checki "inherited error on an earlier copy subtracted" 0
    (List.length (V.Verify.stage_errors ~stage:"superblock" ~before after))

(* Region-level sched findings are keyed by their region: an inherited
   one in A does not mask a new one in B. *)
let sched_findings_keyed_by_region () =
  let a = Region.make "A" [] and b = Region.make "B" [] in
  let msg = "edge 1->2 (lat 1) violated: cycles 0, 0" in
  let fresh =
    V.Finding.subtract ~resolve_op:Fun.id
      ~inherited:[ V.Schedcheck.violation a msg ]
      [ V.Schedcheck.violation a msg; V.Schedcheck.violation b msg ]
  in
  check
    Alcotest.(list string)
    "B's sched error is reported" [ "B" ]
    (List.map (fun (f : V.Finding.t) -> f.V.Finding.region) fresh)

(* The severity table: one entry per kind, and the error kinds are the
   ones the errors-only path runs. *)
let severity_table () =
  let kinds = List.map fst V.Finding.kinds in
  checki "one entry per kind" (List.length kinds)
    (List.length (List.sort_uniq compare kinds));
  List.iter
    (fun k ->
      checkb (k ^ " is an error kind") true
        (V.Finding.severity_of k = V.Finding.Error))
    V.Finding.error_kinds;
  check
    Alcotest.(list string)
    "warning kinds of the stage checks"
    [ "gpr-undef"; "dead-pbr"; "unreachable-guard" ]
    (List.filter
       (fun k ->
         (not (List.mem k V.Finding.error_kinds))
         && not
              (List.mem k
                 [ "sched-quality"; "height-missed-cpr"; "pressure-growth" ]))
       kinds)

(* An unchanged region that gains a predecessor edge along which [p] is
   undefined: its contexts are no longer the input's, so it is queried
   and the first-execution read reported — also when a def of [p] under
   a false guard precedes the read, which covers nothing. *)
let unchanged_region_new_edge () =
  let case name read =
    let ctx = Builder.create () in
    let p = Builder.pred ctx and r = Builder.gpr ctx in
    let main target =
      Builder.region ctx "Main" ~fallthrough:"Def" (fun e ->
          ignore (Builder.branch_to e target : Op.t))
    in
    let def =
      Builder.region ctx "Def" ~fallthrough:"B" (fun e ->
          ignore (Builder.pred_init e [ (p, true) ] : Op.t))
    in
    let b = Builder.region ctx "B" ~fallthrough:"Exit" (read ctx p r) in
    let comp =
      Builder.region ctx "Comp" ~fallthrough:"B" (fun e ->
          ignore (Builder.movi e r 2 : Op.t))
    in
    let before = Builder.prog ctx ~entry:"Main" [ main "Def"; def; b ] in
    let after = Prog.copy before in
    Prog.replace_region after (main "Comp");
    Prog.add_region after comp;
    checkb (name ^ ": B is unchanged") true
      ((Prog.find_exn after "B").Region.ops == b.Region.ops);
    errors_only_agrees name ~stage:"superblock" ~before after;
    checkb (name ^ ": the read reached from Comp is pred-undef") true
      (has_check "pred-undef"
         (V.Verify.stage_errors ~stage:"superblock" ~before after))
  in
  case "new edge" (fun _ p r e ->
      ignore (Builder.movi e ~guard:(Op.If p) r 1 : Op.t));
  case "new edge, guarded def" (fun ctx p r e ->
      let g = Builder.pred ctx in
      ignore (Builder.pred_init e [ (g, false) ] : Op.t);
      ignore (Builder.pred_init e ~guard:(Op.If g) [ (p, true) ] : Op.t);
      ignore (Builder.movi e ~guard:(Op.If p) r 1 : Op.t))

(* A two-region program: [Main] may branch to [T], which reads [x] when
   [reads] holds. *)
let branch_into ~reads ctx x =
  let q = Builder.pred ctx and y = Builder.gpr ctx in
  let t =
    Builder.region ctx "T" ~fallthrough:"Exit" (fun e ->
        if reads then ignore (Builder.addi e y x 1 : Op.t)
        else ignore (Builder.movi e y 1 : Op.t))
  in
  (q, y, t)

(* An unchanged region whose branch target's live-in set changed: its
   schedule-table key is not the input's, so its schedule is checked. *)
let unchanged_region_new_live_at_target () =
  let ctx = Builder.create () in
  let x = Builder.gpr ctx in
  let q, y, t = branch_into ~reads:true ctx x in
  let main =
    Builder.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        ignore (Builder.cmpp1 e Op.Eq Op.Un q (Op.Reg x) (Op.Imm 0) : Op.t);
        ignore (Builder.branch_to e ~guard:(Op.If q) "T" : Op.t);
        ignore (Builder.movi e y 2 : Op.t))
  in
  let before =
    Builder.prog ctx ~entry:"Main" ~live_out:[ y ] [ main; t ]
  in
  let after = Prog.copy before in
  let _, _, t' = branch_into ~reads:false ctx x in
  Prog.replace_region after t';
  let delta = V.Delta.compute ~before after in
  checkb "Main is unchanged" true
    (V.Delta.unchanged delta (Prog.find_exn after "Main"));
  ignore
    (V.Schedcheck.check ~delta ~stats:(V.Finding.new_stats ()) after
      : V.Finding.t list);
  checkb "Main's schedule is checked" true
    (Hashtbl.mem delta.V.Delta.checked "Main");
  errors_only_agrees "new live-at-target" ~stage:"icbm" ~before after

(* An op of an unchanged region copied into a changed region, there in
   the wrong order: the unchanged region's input is validated, and the
   inverted dependence reported. *)
let unchanged_region_copied () =
  let ctx = Builder.create () in
  let r = Builder.gprs ctx 3 in
  let main =
    Builder.region ctx "Main" ~fallthrough:"C" (fun e ->
        ignore (Builder.addi e r.(1) r.(0) 1 : Op.t);
        ignore (Builder.addi e r.(2) r.(1) 1 : Op.t))
  in
  let c =
    Builder.region ctx "C" ~fallthrough:"Exit" (fun e ->
        ignore (Builder.movi e r.(0) 3 : Op.t))
  in
  let before = Builder.prog ctx ~entry:"Main" ~live_out:[ r.(2) ] [ main; c ] in
  let after = Prog.copy before in
  let copy (op : Op.t) =
    { op with Op.id = Prog.fresh_op_id after; orig = Some op.Op.id }
  in
  (match main.Region.ops with
  | [ a; b ] ->
    let a' = copy a in
    let b' = copy b in
    (Prog.find_exn after "C").Region.ops <- b' :: a' :: c.Region.ops
  | _ -> Alcotest.fail "unexpected region shape");
  errors_only_agrees "copied" ~stage:"unroll" ~before after;
  checkb "the copies' inverted dependence is tv-order" true
    (has_check "tv-order" (V.Verify.stage_errors ~stage:"unroll" ~before after))

(* An output whose findings are warnings only (a pbr no branch reads):
   the full path re-lints the input to subtract them, the errors-only
   path does not re-lint at all. *)
let warnings_only_no_relint () =
  let after =
    single_region (fun ctx e ->
        let b = Builder.btr ctx in
        ignore (Builder.pbr e b "Exit" : Op.t))
  in
  let before = Prog.copy after in
  let report = V.Verify.check_program after in
  checkb "the output has a dead-pbr warning only" true
    (has_check "dead-pbr" report.V.Verify.findings && errors_of report = []);
  let (_ : V.Verify.report), full_relints =
    relints_during (fun () ->
        V.Verify.check_stage ~stage:"superblock" ~before after)
  in
  checki "the full path re-lints" 1 full_relints;
  let errs, relints =
    relints_during (fun () ->
        V.Verify.stage_errors ~stage:"superblock" ~before after)
  in
  checki "no errors" 0 (List.length errs);
  checki "errors-only path does not re-lint" 0 relints

(* Pipeline verification costs what the stage changed: from 125 to 250
   cold regions in a dispatch program, the regions the errors-only
   check of the ICBM stage visits grow by at most the regions ICBM
   changed there, not with the cold regions. *)
let checked_regions_grow_with_changes () =
  let measure cold =
    let prog, inputs = cold_dispatch ~ncases:4 ~d_unroll:3 ~cold in
    let before = P.Passes.prepare prog inputs in
    let after =
      (P.Passes.height_reduce_prepared ~verify:false (Prog.copy before) inputs)
        .P.Passes.prog
    in
    let changed =
      List.length
        (List.filter
           (fun (r : Region.t) ->
             match Prog.find before r.Region.label with
             | Some b -> b.Region.ops != r.Region.ops
             | None -> true)
           (Prog.regions after))
    in
    let errs, counts =
      counting [ "verify.regions_checked" ] (fun () ->
          V.Verify.stage_errors ~stage:"icbm" ~before after)
    in
    checki (Printf.sprintf "cold %d verifies clean" cold) 0 (List.length errs);
    (List.hd counts, changed)
  in
  let small, _ = measure 125 and large, changed = measure 250 in
  checkb
    (Printf.sprintf "regions checked %d -> %d grow at most by %d" small large
       changed)
    true
    (small > 0 && large - small <= changed)

(* Exactness of the predicate algebra behind the lint: for every query
   the dataflow analysis poses, enumerate all assignments of the
   condition literals and check the verdict against ground truth —
   Undefined admits no assignment that defines the register at the use,
   Proved admits no assignment that leaves it undefined, and Unknown
   admits both.  Runs over generated programs, their ICBM outputs, and
   fault-injected variants so all three verdicts are exercised. *)
let max_enum_keys = 10

module R = Pqs_reference

(* The reference DNF engine, fed the printed covers of the lint's own
   query operands: they denote the same functions, [disjoint] agrees
   (DNF disjointness is exact), and whatever the reference proves
   [implies] also proves (DNF subsumption is incomplete, so not the
   converse). *)
let reference_agrees name (q : V.Dataflow.query) =
  let use = q.V.Dataflow.use and defined = q.V.Dataflow.defined in
  let cover e = R.of_cover (Format.asprintf "%a" Pqs.pp e) in
  let ru = cover use and rd = cover defined in
  let fail what =
    Alcotest.failf "%s: op %d reg %s: %s diverges from reference" name
      q.V.Dataflow.op_id
      (Reg.to_string q.V.Dataflow.reg)
      what
  in
  if not (R.is_unknown ru || R.is_unknown rd) then begin
    if Pqs.disjoint use defined <> R.disjoint ru rd then fail "disjoint";
    if R.implies ru rd && not (Pqs.implies use defined) then fail "implies"
  end;
  (ru, rd)

let brute_force_check name prog counters =
  let proved, unknown, undef = counters in
  List.iter
    (fun (q : V.Dataflow.query) ->
      (match q.V.Dataflow.verdict with
      | V.Dataflow.Proved -> incr proved
      | V.Dataflow.Unknown -> incr unknown
      | V.Dataflow.Undefined -> incr undef);
      let ru, rd = reference_agrees name q in
      let keys =
        List.sort_uniq compare
          (Pqs.keys q.V.Dataflow.use @ Pqs.keys q.V.Dataflow.defined)
      in
      let n = List.length keys in
      if n <= max_enum_keys then begin
        let reached_defined = ref false and reached_undefined = ref false in
        let arr = Array.of_list keys in
        for bits = 0 to (1 lsl n) - 1 do
          let sigma k =
            let rec find i =
              if i >= n then false
              else if arr.(i) = k then bits land (1 lsl i) <> 0
              else find (i + 1)
            in
            find 0
          in
          let u = Pqs.eval sigma q.V.Dataflow.use in
          let d = Pqs.eval sigma q.V.Dataflow.defined in
          if u then
            if d then reached_defined := true else reached_undefined := true;
          if
            (not (R.is_unknown ru || R.is_unknown rd))
            && (R.eval sigma ru <> Some u || R.eval sigma rd <> Some d)
          then
            Alcotest.failf "%s: op %d reg %s: printed cover is not the function"
              name q.V.Dataflow.op_id
              (Reg.to_string q.V.Dataflow.reg);
          match (q.V.Dataflow.verdict, u, d) with
          | V.Dataflow.Undefined, true, true ->
            Alcotest.failf
              "%s: op %d reg %s: verdict Undefined, but an assignment \
               reaches the use with the register defined"
              name q.V.Dataflow.op_id
              (Reg.to_string q.V.Dataflow.reg)
          | V.Dataflow.Proved, true, false ->
            Alcotest.failf
              "%s: op %d reg %s: verdict Proved, but an assignment reaches \
               the use with the register undefined"
              name q.V.Dataflow.op_id
              (Reg.to_string q.V.Dataflow.reg)
          | _ -> ()
        done;
        (* the engine is exact, so Unknown means both kinds of
           execution exist *)
        if
          q.V.Dataflow.verdict = V.Dataflow.Unknown
          && not (!reached_defined && !reached_undefined)
        then
          Alcotest.failf
            "%s: op %d reg %s: verdict Unknown, but every execution that \
             reaches the use finds the register %s"
            name q.V.Dataflow.op_id
            (Reg.to_string q.V.Dataflow.reg)
            (if !reached_defined then "defined" else "undefined")
      end)
    (V.Dataflow.queries prog)

(* A register defined only under a guard and then read unconditionally:
   neither provably defined nor provably undefined, so the verdict must
   degrade to Unknown rather than claim either way. *)
let partially_defined_prog () =
  single_region (fun ctx e ->
      let q = Builder.pred ctx in
      let p = Builder.pred ctx in
      let r = Builder.gprs ctx 2 in
      ignore (Builder.cmpp1 e Op.Eq Op.Un q (Op.Reg r.(0)) (Op.Imm 0) : Op.t);
      ignore (Builder.pred_init e ~guard:(Op.If q) [ (p, false) ] : Op.t);
      ignore (Builder.addi e ~guard:(Op.If p) r.(1) r.(0) 1 : Op.t))

let lint_matches_brute_force () =
  let counters = (ref 0, ref 0, ref 0) in
  let stage = Option.get (F.Stage.find "icbm") in
  brute_force_check "partial-def" (partially_defined_prog ()) counters;
  for seed = 0 to 399 do
    brute_force_check
      (Printf.sprintf "seed %d" seed)
      (W.Gen.prog_of_seed seed) counters;
    if seed < 50 then begin
      let t =
        stage.F.Stage.apply (W.Gen.prog_of_seed seed)
          (W.Gen.inputs_of_seed seed)
      in
      brute_force_check (Printf.sprintf "seed %d icbm" seed) t counters;
      F.Fault.inject F.Fault.Drop_pred_init t;
      brute_force_check (Printf.sprintf "seed %d icbm faulted" seed) t counters
    end
  done;
  let proved, unknown, undef = counters in
  checkb "some queries proved" true (!proved > 0);
  checkb "some queries unknown" true (!unknown > 0);
  checkb "some queries undefined (fault-injected)" true (!undef > 0)

let suite =
  ( "verify",
    [
      case "pred use before def" pred_use_before_def;
      case "accumulator needs init" accumulator_needs_init;
      case "loop first-iteration undef" loop_first_iteration_undef;
      case "tv-order swap" tv_order_swap;
      case "tv-store-guard past 12 literals" tv_store_guard_wide;
      case "strcpy faults caught" strcpy_faults_caught;
      case "corpus static regression" corpus_static_regression;
      case "lint matches brute force" lint_matches_brute_force;
      case "errors-only = full path (workloads, faulted)"
        errors_only_on_workloads;
      case "errors-only = full path (seeds 0..2000)" errors_only_on_seeds;
      case "errors-only = full path (corpus, faulted)" errors_only_on_corpus;
      case "errors-only = full path (kernel ladders)" errors_only_on_ladders;
      case "inherited input error is subtracted" inherited_error_subtracted;
      case "unchanged output: nothing checked" unchanged_output_not_checked;
      case "inherited error on an earlier copy" inherited_error_on_earlier_copy;
      case "sched findings keyed by region" sched_findings_keyed_by_region;
      case "severity table" severity_table;
      case "unchanged region, new edge: queried" unchanged_region_new_edge;
      case "unchanged region, new live-at-target: scheduled"
        unchanged_region_new_live_at_target;
      case "unchanged region copied: validated" unchanged_region_copied;
      case "regions checked grow with changes"
        checked_regions_grow_with_changes;
      case "warnings only: no input re-lint" warnings_only_no_relint;
    ] )
