open Cpr_ir
module A = Cpr_analysis
open Helpers
module B = Builder

let straight_line () =
  let ctx = B.create () in
  let a = B.gpr ctx and b = B.gpr ctx and out = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.add e out a b in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" ~live_out:[ out ] [ region ] in
  let l = A.Liveness.analyze prog in
  let live = A.Liveness.live_in l "Main" in
  checkb "sources live in" true (Reg.Set.mem a live && Reg.Set.mem b live);
  checkb "dest not live in" false (Reg.Set.mem out live)

let guarded_defs_do_not_kill () =
  let ctx = B.create () in
  let p = B.pred ctx and r = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.movi e ~guard:(Op.If p) r 1 in
        let (_ : Op.t) = B.add e r r r in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let l = A.Liveness.analyze prog in
  checkb "r live in through guarded def" true
    (Reg.Set.mem r (A.Liveness.live_in l "Main"))

let unconditional_cmpp_dests_kill () =
  (* un/uc destinations write even when the guard is false, so they kill *)
  let ctx = B.create () in
  let g = B.pred ctx and p = B.pred ctx and r = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) =
          B.cmpp1 e Op.Eq Op.Un ~guard:(Op.If g) p (Op.Reg r) (Op.Imm 0)
        in
        let (_ : Op.t) = B.movi e ~guard:(Op.If p) r 1 in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let l = A.Liveness.analyze prog in
  checkb "p not live in (killed by UN dest)" false
    (Reg.Set.mem p (A.Liveness.live_in l "Main"))

let loop_carried () =
  let ctx = B.create () in
  let acc = B.gpr ctx and cnt = B.gpr ctx and p = B.pred ctx in
  let region =
    B.region ctx "Loop" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.addi e acc acc 1 in
        let (_ : Op.t) = B.addi e cnt cnt (-1) in
        let (_ : Op.t) = B.cmpp1 e Op.Gt Op.Un p (Op.Reg cnt) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Loop" in
        ())
  in
  let prog = B.prog ctx ~entry:"Loop" ~live_out:[ acc ] [ region ] in
  let l = A.Liveness.analyze prog in
  let live = A.Liveness.live_in l "Loop" in
  checkb "accumulator live around the loop" true (Reg.Set.mem acc live);
  checkb "counter live around the loop" true (Reg.Set.mem cnt live)

let branch_targets_contribute () =
  let ctx = B.create () in
  let p = B.pred ctx and r = B.gpr ctx and s = B.gpr ctx in
  let main =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Reg s) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Side" in
        let (_ : Op.t) = B.movi e r 0 in
        ())
  in
  let side =
    B.region ctx "Side" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.addi e r r 1 in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ main; side ] in
  let l = A.Liveness.analyze prog in
  checkb "r live at Side" true (Reg.Set.mem r (A.Liveness.live_in l "Side"));
  (* r is live into Main only because the branch to Side may take before
     Main's own unconditional def *)
  checkb "r live into Main via side exit" true
    (Reg.Set.mem r (A.Liveness.live_in l "Main"));
  let br = List.hd (Region.branches main) in
  checkb "live_at_target" true
    (Reg.Set.mem r (Target_reference.live_at_target l main br))

let exit_boundary_is_program_live_out () =
  let ctx = B.create () in
  let r = B.gpr ctx in
  let region = B.region ctx "Main" ~fallthrough:"Exit" (fun _ -> ()) in
  let prog = B.prog ctx ~entry:"Main" ~live_out:[ r ] [ region ] in
  let l = A.Liveness.analyze prog in
  checkb "live_out at exit label" true (Reg.Set.mem r (A.Liveness.live_in l "Exit"));
  checkb "flows through empty region" true
    (Reg.Set.mem r (A.Liveness.live_in l "Main"))

(* Reference for [Liveness.live_after_implies]: the symbolic condition
   under which [reg] is live just after op [idx], built as one expression.
   Each term's path is relative to [idx] and the disjunction is conjoined
   with the path condition reaching [idx] at the end; the conjunction
   removes spurious "an earlier exit was taken" disjuncts introduced by
   negating later branches' taken-expressions. *)
let live_expr_after l env (r : Region.t) idx reg =
  let ops = A.Pred_env.ops env in
  let n = Array.length ops in
  let acc = ref A.Pqs.fls in
  let path = ref A.Pqs.tru in
  (try
     for j = idx + 1 to n - 1 do
       let op = ops.(j) in
       if List.exists (Reg.equal reg) (Op.uses op) then
         acc := A.Pqs.or_ !acc (A.Pqs.and_ !path (A.Pred_env.guard_expr env j));
       if Op.is_branch op then begin
         if Reg.Set.mem reg (Target_reference.live_at_target l r op) then
           acc :=
             A.Pqs.or_ !acc (A.Pqs.and_ !path (A.Pred_env.taken_expr env j));
         path := A.Pqs.and_ !path (A.Pqs.not_ (A.Pred_env.taken_expr env j))
       end;
       if List.exists (Reg.equal reg) (A.Liveness.kills op) then raise Exit
     done;
     if Reg.Set.mem reg (A.Liveness.live_out_region l r) then
       acc := A.Pqs.or_ !acc !path
   with Exit -> ());
  A.Pqs.and_ (A.Pred_env.path_conds env).(idx + 1) !acc

(* The same condition as the disjunction of the terms
   [live_after_implies] checks one at a time, each built on the region's
   shared prefix path condition. *)
let prefix_shared_expr l env (r : Region.t) idx reg =
  let ops = A.Pred_env.ops env in
  let pc = A.Pred_env.path_conds env in
  let n = Array.length ops in
  let acc = ref A.Pqs.fls in
  let add j e = acc := A.Pqs.or_ !acc (A.Pqs.and_ pc.(j) e) in
  (try
     for j = idx + 1 to n - 1 do
       let op = ops.(j) in
       if List.exists (Reg.equal reg) (Op.uses op) then
         add j (A.Pred_env.guard_expr env j);
       if
         Op.is_branch op
         && Reg.Set.mem reg (Target_reference.live_at_target l r op)
       then add j (A.Pred_env.taken_expr env j);
       if List.exists (Reg.equal reg) (A.Liveness.kills op) then raise Exit
     done;
     if Reg.Set.mem reg (A.Liveness.live_out_region l r) then add n A.Pqs.tru
   with Exit -> ());
  !acc

(* The promotion-enabling property: in FRP-converted strcpy every
   non-store op's destination liveness implies its guard. *)
let live_expr_enables_promotion () =
  let prog, _ = profiled_strcpy () in
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let l = A.Liveness.analyze prog in
  let env = A.Pred_env.analyze loop in
  let ops = A.Pred_env.ops env in
  let live_at = A.Liveness.live_at_branches l loop ops in
  Array.iteri
    (fun idx (op : Op.t) ->
      match (op.Op.guard, op.Op.opcode) with
      | Op.If _, (Op.Alu _ | Op.Load | Op.Pbr) ->
        let ge = A.Pred_env.guard_expr env idx in
        List.iter
          (fun d ->
            (* r1/r2-style cursors fail this when live-out; strcpy's
               live_out is empty so everything promotes *)
            let le = live_expr_after l env loop idx d in
            checkb
              (Printf.sprintf "op %d dest %s promotable" op.Op.id
                 (Reg.to_string d))
              true (A.Pqs.implies le ge);
            checkb
              (Printf.sprintf "op %d dest %s live_after_implies" op.Op.id
                 (Reg.to_string d))
              true
              (A.Liveness.live_after_implies l env loop ~live_at idx d ge))
          (Op.defs op)
      | _ -> ())
    ops

(* An unconditional redefinition ends the old value's liveness: the
   store under the complementary predicate reads the new [r], so the
   guarded [mov] before it writes a dead value and may be promoted. *)
let kill_ends_liveness () =
  let ctx = B.create () in
  let p = B.pred ctx and pf = B.pred ctx and r = B.gpr ctx and x = B.gpr ctx in
  let base = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) =
          B.cmpp2 e Op.Eq (Op.Un, p) (Op.Uc, pf) (Op.Reg x) (Op.Imm 0)
        in
        let (_ : Op.t) = B.movi e ~guard:(Op.If p) r 1 in
        let (_ : Op.t) = B.movi e r 2 in
        let (_ : Op.t) = B.store e ~guard:(Op.If pf) ~base ~off:0 (Op.Reg r) in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let l = A.Liveness.analyze prog in
  let env = A.Pred_env.analyze region in
  let live_at = A.Liveness.live_at_branches l region (A.Pred_env.ops env) in
  checkb "reference: dead after the guarded mov" true
    (A.Pqs.is_const_false (live_expr_after l env region 1 r));
  checkb "dead after the guarded mov" true
    (A.Liveness.live_after_implies l env region ~live_at 1 r A.Pqs.fls);
  checkb "live after the unguarded mov" false
    (A.Liveness.live_after_implies l env region ~live_at 2 r A.Pqs.fls);
  checkb "guarded mov promotable" true
    (A.Liveness.live_after_implies l env region ~live_at 1 r
       (A.Pred_env.guard_expr env 1))

(* Every truth assignment of [keys], as a lookup function. *)
let assignments keys =
  let keys = Array.of_list keys in
  let k = Array.length keys in
  List.init (1 lsl k) (fun bits key ->
      let rec find i =
        if i = k then false
        else if keys.(i) = key then bits land (1 lsl i) <> 0
        else find (i + 1)
      in
      find 0)

(* [live_after_implies] decides exactly what the reference expression
   decides, for every promotion candidate and destination that
   speculation meets: each region is checked against the program as
   [Spec.speculate] leaves the regions before it.  Where the two
   expressions have at most 12 literals between them, brute force also
   shows they are the same Boolean function.  Asking whether liveness
   implies [false] (is the value dead after the op?) checks every term,
   not only the ones that can refuse a promotion.  Speculation sees regions
   FRP-converted straight from superblock formation (the [spec] stage,
   [fullcpr], [icbm]) and after if-conversion ([fullpipe]); the second
   kind is where promotion is refused, so both are checked.  The exit
   sets the queries read, built once for the region, are the per-branch
   rescan's. *)
let check_region_decisions name prog (r : Region.t) =
  let l = A.Liveness.analyze prog in
  let env = A.Pred_env.analyze r in
  let live_at = A.Liveness.live_at_branches l r (A.Pred_env.ops env) in
  Array.iteri
    (fun k (op : Op.t) ->
      if Op.is_branch op then
        check
          Alcotest.(list string)
          (Printf.sprintf "%s %s branch %d live at target" name r.Region.label
             op.Op.id)
          (List.map Reg.to_string
             (Reg.Set.elements (Target_reference.live_at_target l r op)))
          (List.map Reg.to_string (Reg.Set.elements live_at.(k))))
    (A.Pred_env.ops env);
  Array.iteri
    (fun idx (op : Op.t) ->
      match (op.Op.guard, op.Op.opcode) with
      | Op.If _, (Op.Alu _ | Op.Falu _ | Op.Load | Op.Pbr) ->
        let ge = A.Pred_env.guard_expr env idx in
        List.iter
          (fun d ->
            let where =
              Printf.sprintf "%s %s op %d dest %s" name r.Region.label
                op.Op.id (Reg.to_string d)
            in
            let reference = live_expr_after l env r idx d in
            List.iter
              (fun (what, g) ->
                checkb
                  (Printf.sprintf "%s implies %s" where what)
                  (A.Pqs.implies reference g)
                  (A.Liveness.live_after_implies l env r ~live_at idx d g))
              [ ("its guard", ge); ("false", A.Pqs.fls) ];
            let shared = prefix_shared_expr l env r idx d in
            let keys =
              List.sort_uniq compare (A.Pqs.keys reference @ A.Pqs.keys shared)
            in
            if List.length keys <= 12 then
              List.iter
                (fun assign ->
                  if A.Pqs.eval assign reference <> A.Pqs.eval assign shared
                  then Alcotest.failf "%s: expressions differ" where)
                (assignments keys))
          (Op.defs op)
      | _ -> ())
    (A.Pred_env.ops env)

let promotion_decisions_match name prog inputs =
  let ifconv = Option.get (Cpr_pipeline.Passes.find "ifconv") in
  List.iter
    (fun if_convert ->
      let p = Cpr_pipeline.Passes.prepare prog inputs in
      let name =
        if if_convert then begin
          ignore
            (ifconv.Cpr_pipeline.Passes.transform Cpr_core.Heur.default p
              : Cpr_core.Icbm.region_stats option);
          name ^ " (if-converted)"
        end
        else name
      in
      ignore (Cpr_core.Frp.convert p : int);
      List.iter
        (fun r ->
          check_region_decisions name p r;
          ignore (Cpr_core.Spec.speculate_region p r : Cpr_core.Spec.stats))
        (Prog.regions p))
    [ false; true ]

let decisions_workloads () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      promotion_decisions_match w.name (w.build ()) (w.inputs ()))
    Cpr_workloads.Registry.all

let decisions_kernels () =
  List.iter
    (fun unroll ->
      let prog, inputs = wide_stream unroll in
      promotion_decisions_match (Printf.sprintf "stream-u%d" unroll) prog inputs)
    [ 20; 44 ];
  List.iter
    (fun d_unroll ->
      let prog, inputs = wide_dispatch d_unroll in
      promotion_decisions_match
        (Printf.sprintf "dispatch-u%d" d_unroll)
        prog inputs)
    [ 8; 10 ]

let decisions_fuzz () =
  let check = Cpr_fuzz.Driver.default_check in
  for seed = 0 to 300 do
    promotion_decisions_match
      (Printf.sprintf "seed %d" seed)
      (Cpr_workloads.Gen.prog_of_seed seed)
      (Cpr_fuzz.Driver.inputs_for check seed)
  done

(* Structural soundness on random programs: registers read before any
   write during a real execution must be in live_in of the entry. *)
let prop_live_in_covers_dynamic_reads =
  QCheck2.Test.make ~name:"live_in(entry) covers use-before-def of entry region"
    ~count:60
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let prog = Cpr_workloads.Gen.prog_of_seed seed in
      let l = A.Liveness.analyze prog in
      let entry = Prog.find_exn prog prog.Prog.entry in
      let live = A.Liveness.live_in l prog.Prog.entry in
      (* scan entry region: any reg used before an unconditional def *)
      let defined = ref Reg.Set.empty in
      List.for_all
        (fun (op : Op.t) ->
          let ok =
            List.for_all
              (fun u -> Reg.Set.mem u !defined || Reg.Set.mem u live)
              (Op.uses op)
          in
          if op.Op.guard = Op.True then
            List.iter
              (fun d -> defined := Reg.Set.add d !defined)
              (Op.defs op);
          ok)
        entry.Region.ops)

let suite =
  ( "liveness",
    [
      case "straight line" straight_line;
      case "guarded defs do not kill" guarded_defs_do_not_kill;
      case "un/uc dests kill" unconditional_cmpp_dests_kill;
      case "loop carried" loop_carried;
      case "branch targets contribute" branch_targets_contribute;
      case "exit boundary" exit_boundary_is_program_live_out;
      case "live_expr enables strcpy promotion" live_expr_enables_promotion;
      case "an unconditional def ends liveness" kill_ends_liveness;
      case "promotion decisions match the reference: workloads"
        decisions_workloads;
      case "promotion decisions match the reference: kernels"
        decisions_kernels;
      case "promotion decisions match the reference: fuzz seeds 0..300"
        decisions_fuzz;
      QCheck_alcotest.to_alcotest prop_live_in_covers_dynamic_reads;
    ] )
