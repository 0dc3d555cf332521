(* Shared helpers for the test suite. *)

open Cpr_ir
module B = Builder

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let case name f = Alcotest.test_case name `Quick f

(* A one-region program from an op-emitting function. *)
let single_region ?(label = "Main") ?(fallthrough = "Exit") ?live_out
    ?noalias_bases build =
  let ctx = B.create () in
  let region = B.region ctx label ~fallthrough (fun e -> build ctx e) in
  B.prog ctx ~entry:label ?live_out ?noalias_bases [ region ]

let run_ok prog input =
  try Ok (Cpr_sim.Equiv.run_on prog input) with
  | Cpr_sim.Interp.Stuck m -> Error m

let expect_equiv ?(msg = "equivalent") reference candidate inputs =
  match Cpr_sim.Equiv.check_many reference candidate inputs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" msg e

let expect_not_equiv ?(msg = "should differ") reference candidate inputs =
  match Cpr_sim.Equiv.check_many reference candidate inputs with
  | Ok () -> Alcotest.fail msg
  | Error _ -> ()

(* The paper's Section 6 configuration with profile recorded. *)
let profiled_strcpy () =
  let prog = Cpr_workloads.Strcpy.paper_example () in
  let inputs = Cpr_workloads.Strcpy.inputs () in
  Cpr_pipeline.Passes.profile prog inputs;
  (prog, inputs)

let loop_of prog = Prog.find_exn prog "Loop"

(* Apply the paper's Figure 7 two-block partition to an FRP-converted,
   speculated strcpy loop; returns (prog, inputs, baseline copy). *)
let paper_transformed_strcpy () =
  let prog, inputs = profiled_strcpy () in
  let baseline = Prog.copy prog in
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate_region prog loop in
  let pairs =
    List.filter_map
      (fun (br : Op.t) ->
        match br.Op.guard with
        | Op.True -> None
        | Op.If p ->
          List.find_opt
            (fun (op : Op.t) -> List.exists (Reg.equal p) (Op.defs op))
            loop.Region.ops
          |> Option.map (fun (cmp : Op.t) -> (cmp.Op.id, br.Op.id)))
      (Region.branches loop)
  in
  let cmp = List.map fst pairs and brs = List.map snd pairs in
  let nth = List.nth in
  let guard_of id =
    match Region.find_op loop id with Some op -> op.Op.guard | None -> Op.True
  in
  let blocks =
    [
      {
        Cpr_core.Restructure.compare_ids = [ nth cmp 0; nth cmp 1 ];
        branch_ids = [ nth brs 0; nth brs 1 ];
        root_guard = guard_of (nth cmp 0);
        taken_variation = false;
      };
      {
        Cpr_core.Restructure.compare_ids = [ nth cmp 2; nth cmp 3 ];
        branch_ids = [ nth brs 2; nth brs 3 ];
        root_guard = guard_of (nth cmp 2);
        taken_variation = true;
      };
    ]
  in
  let (_ : Cpr_core.Icbm.region_stats) =
    Cpr_core.Icbm.transform_region_with_blocks prog loop blocks
  in
  let (_ : int) = Cpr_core.Dce.run prog in
  Validate.check_exn prog;
  (prog, inputs, baseline)

(* The kernel shapes of the benchmark's wide-regions ladder (long
   unrolled hyperblocks where predicate speculation dominates), each
   with one training input that never takes a side exit. *)
module K = Cpr_workloads.Kernels

let wide_stream unroll =
  let spec =
    { K.default_stream with unroll; work = 2; store = true; counted = true }
  in
  ( K.stream_prog spec,
    [ K.stream_input ~spec ~len:(4 * unroll) ~exit_probability:0. ~seed:1 ] )

let dispatch_cases n =
  List.init n (fun i -> { K.match_value = 3 + (7 * i); handler_work = 4 })

let wide_dispatch d_unroll =
  let spec = { K.default_dispatch with cases = dispatch_cases 3; d_unroll } in
  ( K.dispatch_prog spec,
    [ K.dispatch_input ~spec ~len:(4 * d_unroll) ~case_probability:0. ~seed:1 ]
  )

(* A valid region on which value numbering once gave [cmpp.un.eq(p3, r1)]
   and [cmpp.uc.eq(9, r1)] one literal: p3's entry version and the
   immediate 9 packed to the same int.  On the input both stores write
   address 7, so their guards must not look disjoint. *)
let vn_collision () =
  let prog =
    Parser_.of_text
      {|program entry A
exits Exit
region A fallthrough Exit
  1. r5 = load(r2, 0) if T
  2. r6 = load(r5, 0) if T
  3. p1 = cmpp.un.eq(p3, r1) if T
  4. p2 = cmpp.uc.eq(9, r1) if T
  5. store(r6, 0, r7) if p1
  6. store(r8, 0, r9) if p2
endregion
|}
  in
  let input =
    {
      Cpr_sim.Equiv.memory = [ (100, 200); (200, 7) ];
      gprs =
        [ (Reg.gpr 1, 0); (Reg.gpr 2, 100); (Reg.gpr 7, 1); (Reg.gpr 8, 7);
          (Reg.gpr 9, 2) ];
      preds = [];
    }
  in
  (prog, input)

(* The benchmark's many-regions ladder: dispatch loops with chains of
   cold regions, (cases, unroll, cold regions), 10 ops each. *)
let many_regions_specs =
  [
    (2, 2, 25); (3, 2, 50); (4, 3, 75); (5, 3, 100); (6, 3, 125);
    (7, 4, 150); (2, 4, 200); (5, 2, 225); (8, 3, 250);
  ]

let cold_dispatch ~ncases ~d_unroll ~cold =
  let spec =
    {
      K.default_dispatch with
      cases = dispatch_cases ncases;
      d_unroll;
      d_cold_regions = cold;
      d_cold_size = 10;
    }
  in
  ( K.dispatch_prog spec,
    [ K.dispatch_input ~spec ~len:600 ~case_probability:0. ~seed:1 ] )

(* The nine many-regions and the nine wide-regions programs, named, with
   one training input each. *)
let many_regions () =
  List.map
    (fun (ncases, d_unroll, cold) ->
      let prog, inputs = cold_dispatch ~ncases ~d_unroll ~cold in
      (Printf.sprintf "dispatch-c%d-u%d-cold%d" ncases d_unroll cold, prog, inputs))
    many_regions_specs

let wide_regions () =
  List.map
    (fun u ->
      let prog, inputs = wide_stream u in
      (Printf.sprintf "stream-u%d" u, prog, inputs))
    (List.init 7 (fun i -> 20 + (4 * i)))
  @ List.map
      (fun d ->
        let prog, inputs = wide_dispatch d in
        (Printf.sprintf "dispatch-u%d" d, prog, inputs))
      [ 8; 10 ]
