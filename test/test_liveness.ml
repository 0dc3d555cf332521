open Cpr_ir
module A = Cpr_analysis
module Obs = Cpr_obs.Obs
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
            (ifconv.Cpr_pipeline.Passes.transform Cpr_core.Heur.default
               ~live:(A.Liveness.tracker p) p
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

(* ------------------------------------------------------------------ *)
(* analyze and update against the round-robin reference.              *)
(* ------------------------------------------------------------------ *)

let set_names s = List.map Reg.to_string (Reg.Set.elements s)

(* Every answer [l] gives about [prog] as it stands equals the
   reference's: [live_in] at every region, exit and branch-target label,
   [live_out_region] of every region, and the bitset queries —
   [mem_live_in] and [mem_live_out] for every register the region
   touches, every register live in or out of it, the program's
   [live_out] and one register beyond every id in the program, and
   [live_out_count] per class. *)
let matches_reference where prog l =
  let want = Liveness_reference.analyze prog in
  let regions = Prog.regions prog in
  let labels =
    List.concat_map
      (fun (r : Region.t) ->
        (r.Region.label :: Option.to_list r.Region.fallthrough)
        @ List.filter_map snd (Region.branch_targets r))
      regions
    @ prog.Prog.exit_labels
  in
  List.iter
    (fun label ->
      let got = A.Liveness.live_in l label in
      let expected = Liveness_reference.live_in want label in
      if not (Reg.Set.equal got expected) then
        Alcotest.failf "%s: live_in %s = {%s}, reference {%s}" where label
          (String.concat " " (set_names got))
          (String.concat " " (set_names expected)))
    labels;
  let beyond =
    List.map
      (fun cls -> { Reg.id = 1 lsl 20; cls })
      [ Reg.Gpr; Reg.Pred; Reg.Btr ]
  in
  List.iter
    (fun (r : Region.t) ->
      let label = r.Region.label in
      let out = Liveness_reference.live_out_region want r in
      let inn = Liveness_reference.live_in want label in
      if not (Reg.Set.equal (A.Liveness.live_out_region l r) out) then
        Alcotest.failf "%s: live_out_region %s differs" where label;
      let universe =
        List.fold_left
          (fun s (op : Op.t) ->
            List.fold_left (fun s x -> Reg.Set.add x s) s
              (Op.uses op @ op.Op.dests))
          (Reg.Set.union out inn) r.Region.ops
        |> Reg.Set.union (Reg.Set.of_list (prog.Prog.live_out @ beyond))
      in
      Reg.Set.iter
        (fun x ->
          if A.Liveness.mem_live_in l label x <> Reg.Set.mem x inn then
            Alcotest.failf "%s: mem_live_in %s %s" where label
              (Reg.to_string x);
          if A.Liveness.mem_live_out l r x <> Reg.Set.mem x out then
            Alcotest.failf "%s: mem_live_out %s %s" where label
              (Reg.to_string x))
        universe;
      List.iter
        (fun cls ->
          let expected =
            Reg.Set.cardinal
              (Reg.Set.filter (fun (x : Reg.t) -> x.Reg.cls = cls) out)
          in
          if A.Liveness.live_out_count l r cls <> expected then
            Alcotest.failf "%s: live_out_count %s = %d, reference %d" where
              label
              (A.Liveness.live_out_count l r cls)
              expected)
        [ Reg.Gpr; Reg.Pred; Reg.Btr ])
    regions

(* [Icbm.run] with a tracker that checks every solution it hands out —
   after FRP conversion, promotion, each demotion round and each
   off-trace block — and, once the run (and its DCE) is over, an update
   of the last one.  Returns how many solutions were checked. *)
let icbm_steps_match where prog =
  let tracker = A.Liveness.tracker prog in
  let last = ref None and steps = ref 0 in
  let live () =
    let l = tracker () in
    incr steps;
    matches_reference (Printf.sprintf "%s step %d" where !steps) prog l;
    last := Some l;
    l
  in
  ignore (Cpr_core.Icbm.run_live ~live prog : Cpr_core.Icbm.region_stats);
  Option.iter
    (fun l ->
      matches_reference (where ^ " after DCE") prog (A.Liveness.update l))
    !last;
  !steps

(* [analyze] on the raw and the prepared program, then [update] across
   every rewrite of ICBM on the prepared one. *)
let program_matches where prog inputs =
  matches_reference (where ^ " raw") prog (A.Liveness.analyze prog);
  let p = Cpr_pipeline.Passes.prepare prog inputs in
  matches_reference (where ^ " prepared") p (A.Liveness.analyze p);
  icbm_steps_match (where ^ " icbm") p

(* Every registry workload after every stage, by [analyze] and by
   [update] of the solution for the stage's input (the stage rewrites
   the prepared program in place), then every step of [Icbm.run]. *)
let reference_on_workloads () =
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      let prog = w.build () and inputs = w.inputs () in
      List.iter
        (fun (stage : Cpr_pipeline.Passes.stage) ->
          let where = w.name ^ "/" ^ stage.Cpr_pipeline.Passes.name in
          let p = Cpr_pipeline.Passes.prepare prog inputs in
          let before = A.Liveness.analyze p in
          (* As the pipeline runs a stage: the tracker starts from the
             solution of the pristine copy the stage is verified
             against. *)
          let live =
            A.Liveness.tracker ~from:(A.Liveness.analyze (Prog.copy p)) p
          in
          ignore
            (stage.Cpr_pipeline.Passes.transform Cpr_core.Heur.default ~live p
              : Cpr_core.Icbm.region_stats option);
          matches_reference (where ^ " analyze") p (A.Liveness.analyze p);
          matches_reference (where ^ " update") p (A.Liveness.update before);
          matches_reference (where ^ " tracker") p (live ()))
        Cpr_pipeline.Passes.stages;
      ignore (program_matches w.name prog inputs : int))
    Cpr_workloads.Registry.all

let reference_on_kernels () =
  List.iter
    (fun (name, prog, inputs) ->
      let steps = program_matches name prog inputs in
      checkb (name ^ ": ICBM asked for liveness") true (steps > 0))
    (many_regions () @ wide_regions ())

let reference_on_fuzz () =
  let check = Cpr_fuzz.Driver.default_check in
  for seed = 0 to 2000 do
    ignore
      (program_matches
         (Printf.sprintf "seed %d" seed)
         (Cpr_workloads.Gen.prog_of_seed seed)
         (Cpr_fuzz.Driver.inputs_for check seed)
        : int)
  done

(* A rewrite that removes the only use keeping a register live around a
   loop: the least fixpoint drops it, while propagating from the old
   solution would keep it (the loop's own live-in re-supplies it). *)
let update_drops_cycle_liveness () =
  let ctx = B.create () in
  let x = B.gpr ctx and y = B.gpr ctx and cnt = B.gpr ctx and p = B.pred ctx in
  let loop =
    B.region ctx "Loop" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.add e y x x in
        let (_ : Op.t) = B.addi e cnt cnt (-1) in
        let (_ : Op.t) = B.cmpp1 e Op.Gt Op.Un p (Op.Reg cnt) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Loop" in
        ())
  in
  let prog = B.prog ctx ~entry:"Loop" [ loop ] in
  let l = A.Liveness.analyze prog in
  checkb "x live around the loop" true
    (Reg.Set.mem x (A.Liveness.live_in l "Loop"));
  loop.Region.ops <- List.tl loop.Region.ops;
  let u = A.Liveness.update l in
  checkb "x dead after its use is removed" false
    (Reg.Set.mem x (A.Liveness.live_in u "Loop"));
  checkb "the old solution is unchanged" true
    (Reg.Set.mem x (A.Liveness.live_in l "Loop"));
  matches_reference "after the rewrite" prog u

(* ICBM analyzes each program at most once and updates afterwards. *)
let icbm_analyzes_once () =
  let value name = Obs.counter_value (Obs.counter name) in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      List.iter
        (fun (name, prog, inputs) ->
          let p = Cpr_pipeline.Passes.prepare prog inputs in
          Obs.set_enabled true;
          Obs.reset ();
          ignore (Cpr_core.Icbm.run p : Cpr_core.Icbm.region_stats);
          Obs.set_enabled false;
          let analyses = value "liveness.analyze" in
          checkb
            (Printf.sprintf "%s: %d analyses in Icbm.run" name analyses)
            true (analyses <= 1);
          checkb (name ^ ": later steps update") true
            (value "liveness.update" > 0))
        (many_regions ()))

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
      case "update drops liveness only a loop kept" update_drops_cycle_liveness;
      case "analyze, update = reference on every workload stage"
        reference_on_workloads;
      case "analyze, update = reference on the many- and wide-regions kernels"
        reference_on_kernels;
      case "analyze, update = reference on fuzz seeds 0..2000"
        reference_on_fuzz;
      case "Icbm.run analyzes at most once" icbm_analyzes_once;
      QCheck_alcotest.to_alcotest prop_live_in_covers_dynamic_reads;
    ] )
