open Cpr_ir
module P = Cpr_pipeline
module W = Cpr_workloads
open Helpers
module B = Builder

let rolled_stream () =
  let spec =
    {
      W.Kernels.default_stream with
      W.Kernels.unroll = 1;
      work = 1;
      store = true;
      counted = true;
    }
  in
  let prog = W.Kernels.stream_prog spec in
  let inputs =
    List.init 6 (fun i ->
        W.Kernels.stream_input ~spec ~len:50 ~exit_probability:0.04 ~seed:i)
  in
  (prog, inputs)

let unroll_preserves_semantics () =
  let prog, inputs = rolled_stream () in
  let u = Prog.copy prog in
  let loop = Prog.find_exn u "Loop" in
  checkb "unrollable" true (Cpr_core.Unroll.unrollable u loop);
  checkb "unrolls" true (Cpr_core.Unroll.unroll_region u loop ~factor:4);
  Validate.check_exn u;
  expect_equiv prog u inputs

let unroll_grows_statically () =
  let prog, _ = rolled_stream () in
  let u = Prog.copy prog in
  let loop = Prog.find_exn u "Loop" in
  let before = Region.static_op_count loop in
  assert (Cpr_core.Unroll.unroll_region u loop ~factor:4);
  (* 4x the body, minus the folded per-copy induction updates (three
     cursors, three updates each removed, one re-materialized apiece) *)
  let after = Region.static_op_count loop in
  checkb
    (Printf.sprintf "grows to roughly 4x (%d -> %d)" before after)
    true
    (after > 3 * before && after <= 4 * before)

let unroll_exposes_parallelism () =
  let prog, inputs = rolled_stream () in
  let u = Prog.copy prog in
  assert (Cpr_core.Unroll.unroll_region u (Prog.find_exn u "Loop") ~factor:4);
  P.Passes.profile prog inputs;
  P.Passes.profile u inputs;
  let m = Cpr_machine.Descr.wide in
  checkb "wide cycles drop" true (P.Perf.estimate m u < P.Perf.estimate m prog)

let unroll_then_icbm () =
  (* A counted loop whose unrolled copies test the shared counter is
     correctly recognized as inseparable (the compensation code would
     read post-update counter values): ICBM demotes the block and the
     code must survive unchanged and equivalent.  Data-dependent exits
     (the strcpy shape, below) do compose. *)
  let prog, inputs = rolled_stream () in
  let u = Prog.copy prog in
  assert (Cpr_core.Unroll.unroll_region u (Prog.find_exn u "Loop") ~factor:4);
  let red = P.Passes.height_reduce u inputs in
  expect_equiv prog red.P.Passes.prog inputs;
  P.Passes.profile u inputs;
  let m = Cpr_machine.Descr.wide in
  checkb "no regression from demoted blocks" true
    (P.Perf.estimate m red.P.Passes.prog <= P.Perf.estimate m u)

let temporaries_renamed_carried_kept () =
  let prog, _ = rolled_stream () in
  let u = Prog.copy prog in
  let loop = Prog.find_exn u "Loop" in
  let defs_before =
    List.concat_map (fun (op : Op.t) -> Op.defs op) loop.Region.ops
  in
  assert (Cpr_core.Unroll.unroll_region u loop ~factor:2);
  let defs_after =
    List.concat_map (fun (op : Op.t) -> Op.defs op) loop.Region.ops
  in
  (* loop-carried cursors keep their names and appear once per copy *)
  let liveness = Cpr_analysis.Liveness.analyze prog in
  let carried = Cpr_analysis.Liveness.live_in liveness "Loop" in
  Reg.Set.iter
    (fun r ->
      if List.exists (Reg.equal r) defs_before then begin
        (* kept under its own name: once per copy, or once overall when
           the induction folding merged the updates *)
        let n = List.length (List.filter (Reg.equal r) defs_after) in
        checkb
          (Reg.to_string r ^ " kept under its own name")
          true
          (n = 1 || n = 2)
      end)
    carried;
  (* temporaries are freshly renamed in every copy: the original names
     disappear entirely *)
  List.iter
    (fun d ->
      if not (Reg.Set.mem d carried) then
        checki
          (Reg.to_string d ^ " renamed away")
          0
          (List.length (List.filter (Reg.equal d) defs_after)))
    defs_before

let intermediate_loopbacks_inverted () =
  let prog, _ = rolled_stream () in
  let u = Prog.copy prog in
  let loop = Prog.find_exn u "Loop" in
  assert (Cpr_core.Unroll.unroll_region u loop ~factor:3);
  (* rolled loop: 1 side exit + 1 loop-back; unrolled x3: per copy the
     side exit, plus intermediate exits and the final loop-back *)
  let targets = List.filter_map snd (Region.branch_targets loop) in
  checki "two intermediate exits to the fallthrough" 2
    (List.length (List.filter (fun t -> t = "Exit") targets)
    - 3 (* the three per-copy side exits also target Exit *));
  checki "one loop-back" 1
    (List.length (List.filter (fun t -> t = "Loop") targets))

let not_unrollable_cases () =
  (* no loop-back at all *)
  let ctx = B.create () in
  let r = B.gpr ctx in
  let straight =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.movi e r 1 in
        ())
  in
  let p1 = B.prog ctx ~entry:"Main" [ straight ] in
  checkb "straight-line not unrollable" false
    (Cpr_core.Unroll.unrollable p1 straight);
  checkb "unroll_region refuses" false
    (Cpr_core.Unroll.unroll_region p1 straight ~factor:4);
  (* factor 1 is a no-op refusal *)
  let prog, _ = rolled_stream () in
  let u = Prog.copy prog in
  checkb "factor < 2 refused" false
    (Cpr_core.Unroll.unroll_region u (Prog.find_exn u "Loop") ~factor:1)

let prop_unroll_safe =
  QCheck2.Test.make ~name:"unrolling random loops preserves semantics"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 400) (int_range 2 5))
    (fun (seed, factor) ->
      let prog = W.Gen.prog_of_seed seed in
      let inputs = W.Gen.inputs_of_seed seed in
      let u = Prog.copy prog in
      let region = Prog.find_exn u "Main" in
      if not (Cpr_core.Unroll.unrollable u region) then true
      else begin
        ignore (Cpr_core.Unroll.unroll_region u region ~factor : bool);
        Validate.check u = []
        && Cpr_sim.Equiv.check_many prog u inputs = Ok ()
      end)

let suite =
  ( "loop unrolling",
    [
      case "preserves semantics" unroll_preserves_semantics;
      case "static growth" unroll_grows_statically;
      case "exposes parallelism" unroll_exposes_parallelism;
      case "composes with ICBM" unroll_then_icbm;
      case "renaming policy" temporaries_renamed_carried_kept;
      case "intermediate loop-backs inverted" intermediate_loopbacks_inverted;
      case "refusal cases" not_unrollable_cases;
      QCheck_alcotest.to_alcotest prop_unroll_safe;
    ] )
