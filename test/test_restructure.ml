open Cpr_ir
open Helpers

(* Examine the paper-blocked strcpy after restructure + off-trace motion
   (Figures 7(b)/(c)). *)

let lookaheads_and_bypass () =
  let prog, _, _ = paper_transformed_strcpy () in
  let loop = loop_of prog in
  let lookaheads =
    List.filter
      (fun (op : Op.t) ->
        match op.Op.opcode with
        | Op.Cmpp (_, Op.Ac, Some Op.On) -> true
        | _ -> false)
      loop.Region.ops
  in
  checki "one lookahead per original compare" 4 (List.length lookaheads);
  (* the final lookahead of the taken-variation block has inverted sense:
     the original loop-back compares Ne, its lookahead Eq *)
  let conds =
    List.map
      (fun (op : Op.t) ->
        match op.Op.opcode with
        | Op.Cmpp (c, _, _) -> c
        | _ -> assert false)
      lookaheads
  in
  check
    Alcotest.(list bool)
    "senses: eq, eq, eq, inverted ne = eq... final differs from original"
    [ true; true; true; true ]
    (List.mapi (fun i c -> if i < 3 then c = Op.Eq else c = Op.Eq) conds);
  (* fall-through block gets an explicit bypass targeting Cmp1 *)
  let branches = Region.branches loop in
  checki "two on-trace branches: bypass + loop-back" 2 (List.length branches);
  check
    Alcotest.(list (option string))
    "targets" [ Some "Cmp1"; Some "Loop" ]
    (List.map snd (Region.branch_targets loop))

let pred_init_at_top () =
  let prog, _, _ = paper_transformed_strcpy () in
  let loop = loop_of prog in
  match loop.Region.ops with
  | (op : Op.t) :: _ -> (
    match op.Op.opcode with
    | Op.Pred_init bits ->
      (* paper op 31: p_on1 = 1, p_off1 = 0, p_off2 = 0 *)
      check Alcotest.(list bool) "init bits" [ true; false; false ] bits
    | _ -> Alcotest.fail "first op should be the Pred_init")
  | [] -> Alcotest.fail "empty loop"

let taken_variation_rewires_final_branch () =
  let prog, _, _ = paper_transformed_strcpy () in
  let loop = loop_of prog in
  let final = List.nth (Region.branches loop) 1 in
  (* guarded by the second block's on-trace FRP, which is defined by the
     init idiom + two AC lookaheads *)
  match final.Op.guard with
  | Op.If p_on ->
    let writers =
      List.filter
        (fun (op : Op.t) -> List.exists (Reg.equal p_on) op.Op.dests)
        loop.Region.ops
    in
    checki "init + 2 accumulating lookaheads" 3 (List.length writers);
    checkb "first writer is the cmpp.un eq(0,0) idiom" true
      (match (List.hd writers).Op.opcode with
      | Op.Cmpp (Op.Eq, Op.Un, None) ->
        (List.hd writers).Op.srcs = [ Op.Imm 0; Op.Imm 0 ]
      | _ -> false)
  | Op.True -> Alcotest.fail "final branch must be guarded by on-trace FRP"

let compensation_regions () =
  let prog, _, _ = paper_transformed_strcpy () in
  let cmp1 = Prog.find_exn prog "Cmp1" in
  let cmp2 = Prog.find_exn prog "Cmp2" in
  (* Figure 7(c): Cmp1 holds the first two original compare/branch pairs,
     their pbrs and the split store; 7 ops *)
  checki "Cmp1 op count (paper: 7)" 7 (Region.static_op_count cmp1);
  checki "Cmp1 branches" 2 (List.length (Region.branches cmp1));
  check Alcotest.(option string) "Cmp1 falls into the unreachable sentinel"
    (Some Cpr_core.Restructure.unreachable_label) cmp1.Region.fallthrough;
  checkb "unreachable label registered as exit" true
    (Prog.is_exit prog Cpr_core.Restructure.unreachable_label);
  (* Cmp2 is the taken-variation tail: original exit branch + compare +
     split store, falling through to the original continuation; 4 ops
     after DCE (paper: 5 - 1 removed) *)
  checki "Cmp2 op count (paper: 4 after DCE)" 4 (Region.static_op_count cmp2);
  check Alcotest.(option string) "Cmp2 inherits the loop fallthrough"
    (Some "Exit") cmp2.Region.fallthrough;
  check Alcotest.(option string) "loop now falls through to Cmp2"
    (Some "Cmp2") (loop_of prog).Region.fallthrough

let split_stores_on_trace () =
  let prog, _, _ = paper_transformed_strcpy () in
  let loop = loop_of prog in
  let stores = List.filter Op.is_store loop.Region.ops in
  (* 4 per iteration: slot-0 store (never moved) + 3 split copies *)
  checki "four on-trace stores" 4 (List.length stores);
  let split = List.filter (fun (op : Op.t) -> op.Op.orig <> None) stores in
  (* Figure 7(c): stores 9 and 23 split; store 16 merely re-wires *)
  checki "two split copies" 2 (List.length split);
  List.iter
    (fun (op : Op.t) ->
      checkb "split copies guarded by an on-trace FRP" true
        (op.Op.guard <> Op.True))
    split

let rewiring_eliminates_old_frps () =
  let prog, _, _ = paper_transformed_strcpy () in
  let loop = loop_of prog in
  (* predicates defined only in compensation regions must not be read
     on-trace *)
  let defined_on_trace =
    List.concat_map (fun (op : Op.t) -> Op.defs op) loop.Region.ops
    |> Reg.Set.of_list
  in
  List.iter
    (fun (op : Op.t) ->
      List.iter
        (fun u ->
          if Reg.is_pred u then
            checkb
              (Printf.sprintf "op %d reads on-trace pred %s" op.Op.id
                 (Reg.to_string u))
              true
              (Reg.Set.mem u defined_on_trace))
        (Op.uses op))
    loop.Region.ops

let equivalence_and_counts () =
  let prog, inputs, baseline = paper_transformed_strcpy () in
  expect_equiv baseline prog inputs;
  checki "on-trace ops (paper: 28)" 28
    (Region.static_op_count (loop_of prog));
  checki "compensation ops (paper: 11)" 11
    (Region.static_op_count (Prog.find_exn prog "Cmp1")
    + Region.static_op_count (Prog.find_exn prog "Cmp2"))

let suite =
  ( "restructure & off-trace motion",
    [
      case "lookaheads and bypass" lookaheads_and_bypass;
      case "pred_init at region top" pred_init_at_top;
      case "taken variation final branch" taken_variation_rewires_final_branch;
      case "compensation regions" compensation_regions;
      case "split stores" split_stores_on_trace;
      case "re-wiring removes old FRPs" rewiring_eliminates_old_frps;
      case "Section 6 counts (30 -> 28 + 11)" equivalence_and_counts;
    ] )
