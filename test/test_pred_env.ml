open Cpr_ir
module A = Cpr_analysis
open Helpers

(* After FRP conversion of the strcpy loop, the branch predicates must be
   pairwise disjoint (the property that lets the scheduler reorder and
   overlap them) and each block FRP must imply its predecessor. *)
let strcpy_frp_exprs () =
  let prog, _ = profiled_strcpy () in
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let env = A.Pred_env.analyze loop in
  let ops = A.Pred_env.ops env in
  let branch_idxs =
    List.filteri (fun _ _ -> true) (List.init (Array.length ops) Fun.id)
    |> List.filter (fun i -> Op.is_branch ops.(i))
  in
  checki "four branches" 4 (List.length branch_idxs);
  List.iteri
    (fun i bi ->
      List.iteri
        (fun j bj ->
          if i < j then
            checkb
              (Printf.sprintf "branch %d # branch %d" i j)
              true
              (A.Pqs.disjoint (A.Pred_env.taken_expr env bi)
                 (A.Pred_env.taken_expr env bj)))
        branch_idxs)
    branch_idxs;
  (* block FRPs narrow monotonically *)
  let guard_exprs =
    List.filter_map
      (fun i ->
        match ops.(i).Op.opcode with
        | Op.Cmpp _ when ops.(i).Op.guard <> Op.True ->
          Some (A.Pred_env.guard_expr env i)
        | _ -> None)
      (List.init (Array.length ops) Fun.id)
  in
  List.iteri
    (fun i e ->
      List.iteri
        (fun j e' -> if i < j then checkb "later FRP implies earlier" true (A.Pqs.implies e' e))
        guard_exprs)
    guard_exprs

let fallthrough_is_conjunction () =
  let prog, _ = profiled_strcpy () in
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let env = A.Pred_env.analyze loop in
  let ops = A.Pred_env.ops env in
  let pc = A.Pred_env.path_conds env in
  let ft = pc.(Array.length pc - 1) in
  Array.iteri
    (fun i op ->
      if Op.is_branch op then
        checkb "fallthrough disjoint from every taken" true
          (A.Pqs.disjoint ft (A.Pred_env.taken_expr env i)))
    ops

let constant_condition_folding () =
  (* the paper's on-trace FRP initialization idiom:
     p_on = cmpp.un eq (0, 0) if root  computes exactly root *)
  let ctx = Builder.create () in
  let root = Builder.pred ctx and p_on = Builder.pred ctx in
  let x = Builder.gpr ctx and pt = Builder.pred ctx in
  let region =
    Builder.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) =
          Builder.cmpp1 e Op.Eq Op.Un root (Op.Reg x) (Op.Imm 0)
        in
        let (_ : Op.t) =
          Builder.cmpp1 e Op.Eq Op.Un ~guard:(Op.If root) p_on (Op.Imm 0)
            (Op.Imm 0)
        in
        let (_ : Op.t) =
          Builder.cmpp1 e Op.Ne Op.Un ~guard:(Op.If root) pt (Op.Imm 0)
            (Op.Imm 0)
        in
        ())
  in
  ignore (Builder.prog ctx ~entry:"Main" [ region ]);
  let env = A.Pred_env.analyze region in
  let root_e = A.Pred_env.reg_expr_at_end env root in
  let on_e = A.Pred_env.reg_expr_at_end env p_on in
  let never = A.Pred_env.reg_expr_at_end env pt in
  checkb "p_on implies root" true (A.Pqs.implies on_e root_e);
  checkb "root implies p_on" true (A.Pqs.implies root_e on_e);
  checkb "ne(0,0) under root is false" true (A.Pqs.is_const_false never)

let pred_init_sets_constants () =
  let ctx = Builder.create () in
  let a = Builder.pred ctx and b = Builder.pred ctx in
  let region =
    Builder.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = Builder.pred_init e [ (a, true); (b, false) ] in
        ())
  in
  let env = A.Pred_env.analyze region in
  checkb "init true" true (A.Pqs.is_const_true (A.Pred_env.reg_expr_at_end env a));
  checkb "init false" true (A.Pqs.is_const_false (A.Pred_env.reg_expr_at_end env b))

let entry_preds_are_opaque () =
  let ctx = Builder.create () in
  let p = Builder.pred ctx in
  let r = Builder.gpr ctx in
  let region =
    Builder.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = Builder.movi e ~guard:(Op.If p) r 1 in
        ())
  in
  let env = A.Pred_env.analyze region in
  let e = A.Pred_env.guard_expr env 0 in
  checkb "live-in pred is not constant" true
    ((not (A.Pqs.is_const_true e)) && not (A.Pqs.is_const_false e));
  checkb "but self-disjoint with own negation" true
    (A.Pqs.disjoint e (A.Pqs.not_ e))

let wired_or_accumulates () =
  let ctx = Builder.create () in
  let acc = Builder.pred ctx in
  let x = Builder.gpr ctx and y = Builder.gpr ctx in
  let region =
    Builder.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = Builder.pred_init e [ (acc, false) ] in
        let (_ : Op.t) = Builder.cmpp1 e Op.Eq Op.On acc (Op.Reg x) (Op.Imm 0) in
        let (_ : Op.t) = Builder.cmpp1 e Op.Eq Op.On acc (Op.Reg y) (Op.Imm 0) in
        ())
  in
  let env = A.Pred_env.analyze region in
  let e = A.Pred_env.reg_expr_at_end env acc in
  (* expression should be the disjunction of the two condition literals *)
  checki "two literals" 2 (List.length (A.Pqs.keys e));
  checkb "not constant" true
    ((not (A.Pqs.is_const_true e)) && not (A.Pqs.is_const_false e))

(* A compare against an entry predicate and a compare against an
   immediate are different conditions, whatever the register's number. *)
let entry_and_immediate_versions_differ () =
  let prog, _ = vn_collision () in
  let env = A.Pred_env.analyze (Prog.find_exn prog "A") in
  checkb "store guards not disjoint" false
    (A.Pqs.disjoint (A.Pred_env.guard_expr env 4)
       (A.Pred_env.guard_expr env 5))

let suite =
  ( "pred_env",
    [
      case "strcpy FRP mutual exclusion" strcpy_frp_exprs;
      case "fallthrough expression" fallthrough_is_conjunction;
      case "constant-condition folding (op 36 idiom)" constant_condition_folding;
      case "pred_init constants" pred_init_sets_constants;
      case "entry predicates opaque" entry_preds_are_opaque;
      case "wired-or expression" wired_or_accumulates;
      case "entry and immediate versions differ"
        entry_and_immediate_versions_differ;
    ] )
