open Cpr_ir
module Sim = Cpr_sim
open Helpers
module B = Builder
module W = Cpr_workloads

let strcpy_copies () =
  let prog = W.Strcpy.build ~unroll:4 () in
  let elts = [ 5; 6; 7; 8; 9; 10; 11 ] in
  let out = Sim.Equiv.run_on prog (W.Strcpy.string_input elts) in
  check Alcotest.(option string) "reaches Exit" (Some "Exit")
    out.Sim.Interp.exit_label;
  List.iteri
    (fun i v ->
      checki
        (Printf.sprintf "B[%d]" i)
        v
        (Sim.State.read_mem out.Sim.Interp.state (W.Strcpy.b_base + i)))
    elts;
  (* the terminator itself is not copied *)
  checki "no terminator copy" 0
    (Sim.State.read_mem out.Sim.Interp.state
       (W.Strcpy.b_base + List.length elts))

let empty_string () =
  let prog = W.Strcpy.build ~unroll:4 () in
  let out = Sim.Equiv.run_on prog (W.Strcpy.string_input []) in
  check Alcotest.(option string) "empty input exits immediately" (Some "Exit")
    out.Sim.Interp.exit_label;
  checki "nothing stored" 0 (List.length (Sim.State.store_trace out.Sim.Interp.state))

let op_counting () =
  let ctx = B.create () in
  let p = B.pred ctx and r = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 1) (Op.Imm 0) in
        (* nullified: guard is false *)
        let (_ : Op.t) = B.movi e ~guard:(Op.If p) r 7 in
        let (_ : Op.t) = B.movi e r 9 in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let out = Sim.Equiv.run_on prog Sim.Equiv.no_input in
  checki "issued counts all" 3 out.Sim.Interp.ops_issued;
  checki "executed counts guard-true" 2 out.Sim.Interp.ops_executed;
  checki "nullified op wrote nothing" 9 (Sim.State.read_gpr out.Sim.Interp.state r)

let branch_through_unset_btr_is_stuck () =
  let br = Op.make ~id:1 ~guard:Op.True Op.Branch [] [ Op.Reg (Reg.btr 1) ] in
  let prog = Prog.create ~entry:"A" [ Region.make "A" ~fallthrough:"Exit" [ br ] ] in
  checkb "stuck" true
    (match Sim.Equiv.run_on prog Sim.Equiv.no_input with
    | exception Sim.Interp.Stuck _ -> true
    | _ -> false)

let step_budget () =
  let ctx = B.create () in
  let p = B.pred ctx in
  let region =
    B.region ctx "Spin" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 0) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Spin" in
        ())
  in
  let prog = B.prog ctx ~entry:"Spin" [ region ] in
  let code = Sim.Code.decode prog in
  checkb "infinite loop hits the budget" true
    (match
       Sim.Interp.run ~max_steps:1000 code
         (Sim.Equiv.state_of code Sim.Equiv.no_input)
     with
    | exception Sim.Interp.Stuck _ -> true
    | _ -> false)

let profile_recording () =
  let prog = W.Strcpy.build ~unroll:4 () in
  let (_ : Sim.Interp.outcome) =
    Sim.Equiv.run_on ~profile:true prog
      (W.Strcpy.string_input (List.init 20 (fun _ -> 3)))
  in
  let loop = Prog.find_exn prog "Loop" in
  checki "loop entered 5 times (20 elts / unroll 4)" 5 loop.Region.entry_count;
  let back = List.nth (Region.branches loop) 3 in
  checki "loop-back taken 4 times" 4 (Region.taken_count loop back.Op.id)

let exit_labels_distinguished () =
  let ctx = B.create () in
  let p = B.pred ctx and x = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Done" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Reg x) (Op.Imm 1) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Error" in
        ())
  in
  let prog =
    B.prog ctx ~entry:"Main" ~exit_labels:[ "Done"; "Error" ] [ region ]
  in
  let run v =
    (Sim.Equiv.run_on prog
       { Sim.Equiv.memory = []; gprs = [ (x, v) ]; preds = [] })
      .Sim.Interp.exit_label
  in
  check Alcotest.(option string) "taken" (Some "Error") (run 1);
  check Alcotest.(option string) "fallthrough" (Some "Done") (run 2)

let equiv_detects_differences () =
  let prog, inputs = profiled_strcpy () in
  let mutated = Prog.copy prog in
  let loop = Prog.find_exn mutated "Loop" in
  (* flip a store value operand *)
  loop.Region.ops <-
    List.map
      (fun (op : Op.t) ->
        if Op.is_store op then { op with Op.srcs = List.mapi (fun i s -> if i = 2 then Op.Imm 123 else s) op.Op.srcs }
        else op)
      loop.Region.ops;
  expect_not_equiv ~msg:"store mutation must be caught" prog mutated inputs

let equiv_checks_exit_labels () =
  let mk target =
    let ctx = B.create () in
    let p = B.pred ctx in
    let region =
      B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
          let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 0) (Op.Imm 0) in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) target in
          ())
    in
    B.prog ctx ~entry:"Main" ~exit_labels:[ "Exit"; "A"; "B" ] [ region ]
  in
  expect_not_equiv ~msg:"exit label difference" (mk "A") (mk "B")
    [ Sim.Equiv.no_input ]

let suite =
  ( "interp & equiv",
    [
      case "strcpy copies" strcpy_copies;
      case "empty string" empty_string;
      case "op counting" op_counting;
      case "unset btr" branch_through_unset_btr_is_stuck;
      case "step budget" step_budget;
      case "profile recording" profile_recording;
      case "exit labels" exit_labels_distinguished;
      case "equiv detects store mutation" equiv_detects_differences;
      case "equiv detects exit difference" equiv_checks_exit_labels;
    ] )
