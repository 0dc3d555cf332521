open Cpr_ir
module Depgraph = Cpr_analysis.Depgraph
module Liveness = Cpr_analysis.Liveness

type region_stats = {
  blocks_formed : int;
  blocks_transformed : int;
  blocks_demoted : int;
  ops_moved : int;
  ops_split : int;
}

let zero_stats =
  {
    blocks_formed = 0;
    blocks_transformed = 0;
    blocks_demoted = 0;
    ops_moved = 0;
    ops_split = 0;
  }

let add_stats a b =
  {
    blocks_formed = a.blocks_formed + b.blocks_formed;
    blocks_transformed = a.blocks_transformed + b.blocks_transformed;
    blocks_demoted = a.blocks_demoted + b.blocks_demoted;
    ops_moved = a.ops_moved + b.ops_moved;
    ops_split = a.ops_split + b.ops_split;
  }

let uc_dests_of (op : Op.t) =
  match op.Op.opcode with
  | Op.Cmpp (_, a1, a2) ->
    List.filter_map
      (fun (a, d) -> if a = Op.Uc then Some d else None)
      (List.combine (a1 :: Option.to_list a2) op.Op.dests)
  | _ -> []

(* Conservative legality pre-check for one prospective CPR block, on the
   pre-restructure region.  Computes the prospective move set (the same
   closure off-trace motion will compute, modulo the re-wiring of
   fall-through predicate uses past the block's last branch) and rejects
   the block if

   - some dependence (of any kind) leads from a moved op to a staying op
     positioned no later than the block's last branch — such a staying op
     would read or be ordered against a value that has moved below the
     bypass; or
   - a moved op whose effect is needed on-trace (a store, or a producer
     of a value consumed by a staying op) has a guard that cannot be
     substituted by the on-trace FRP. *)
let block_legal liveness (region : Region.t) graph ops
    (block : Restructure.block_ref) =
  let n = Array.length ops in
  let idx_of_id id =
    let found = ref (-1) in
    Array.iteri (fun i (o : Op.t) -> if o.Op.id = id then found := i) ops;
    !found
  in
  let cmp_idxs = List.map idx_of_id block.Restructure.compare_ids in
  let br_idxs = List.map idx_of_id block.Restructure.branch_ids in
  if List.exists (fun i -> i < 0) (cmp_idxs @ br_idxs) then false
  else begin
    let last_branch = List.fold_left max 0 br_idxs in
    let uc_dests =
      List.concat_map (fun i -> uc_dests_of ops.(i)) cmp_idxs
    in
    let is_uc r = List.exists (Reg.equal r) uc_dests in
    let root_pred =
      match block.Restructure.root_guard with
      | Op.True -> None
      | Op.If p -> Some p
    in
    (* Prospective move set: closure over flow/memory-flow successors,
       skipping fall-through-predicate uses past the last branch (those
       are re-wired to the on-trace FRP by restructure). *)
    let in_move = Array.make n false in
    let skip (e : Depgraph.edge) =
      e.Depgraph.dst > last_branch
      &&
      match e.Depgraph.kind with
      | Depgraph.Flow r -> is_uc r
      | _ -> false
    in
    let definitely_splittable k =
      let op = ops.(k) in
      (not (Op.is_branch op))
      && (not
            (List.exists
               (fun id -> op.Op.id = id)
               block.Restructure.compare_ids))
      && (match op.Op.guard with
         | Op.True -> true
         | Op.If q ->
           is_uc q || Option.fold ~none:false ~some:(Reg.equal q) root_pred)
    in
    (* Mirrors Offtrace.apply: the reaching pbr of each block branch is
       part of the prospective move set (the branch reads its btr off
       trace; a conservatively-live btr makes the pbr a split
       candidate). *)
    let pbr_idxs =
      List.filter_map
        (fun bi ->
          if bi < 0 then None
          else
            match Region.reaching_pbr region ops.(bi) with
            | Some pbr ->
              let i = idx_of_id pbr.Op.id in
              if i < 0 then None else Some i
            | None -> None)
        br_idxs
    in
    let queue = Queue.create () in
    List.iter
      (fun i ->
        if not in_move.(i) then begin
          in_move.(i) <- true;
          Queue.add i queue
        end)
      (cmp_idxs @ br_idxs @ pbr_idxs);
    while not (Queue.is_empty queue) do
      let k = Queue.pop queue in
      if not (definitely_splittable k) then
        List.iter
          (fun (e : Depgraph.edge) ->
            match e.Depgraph.kind with
            | Depgraph.Flow _ | Depgraph.Mem_flow ->
              if (not (skip e)) && not in_move.(e.Depgraph.dst) then begin
                in_move.(e.Depgraph.dst) <- true;
                Queue.add e.Depgraph.dst queue
              end
            | _ -> ())
          (Depgraph.succs graph k)
    done;
    (* The final branch of a taken-variation block stays on-trace as the
       bypass, but keeping it in the prospective move set is conservative
       (its dependences are a superset). *)
    let hazard_edge =
      List.exists
        (fun (e : Depgraph.edge) ->
          let hit =
            in_move.(e.Depgraph.src)
            && (not in_move.(e.Depgraph.dst))
            && e.Depgraph.dst <= last_branch
            && not (skip e)
          in
          if hit && Sys.getenv_opt "CPR_DEBUG_LEGAL" <> None then
            Format.eprintf "  hazard edge %d -> %d@."
              ops.(e.Depgraph.src).Op.id ops.(e.Depgraph.dst).Op.id;
          hit)
        (Depgraph.edges graph)
    in
    (if Sys.getenv_opt "CPR_DEBUG_LEGAL" <> None then
       Format.eprintf "block last_branch=%d moveset=[%s]@." last_branch
         (String.concat ","
            (List.filteri (fun i _ -> in_move.(i)) (List.init n Fun.id)
            |> List.map (fun i -> string_of_int ops.(i).Op.id))));
    let substitutable i =
      match ops.(i).Op.guard with
      | Op.True -> true
      | Op.If q ->
        is_uc q
        || Option.fold ~none:false ~some:(Reg.equal q) root_pred
        ||
        (* guard defined by ops that stay on-trace above the bypass *)
        List.for_all
          (fun k ->
            if List.exists (Reg.equal q) (Op.defs ops.(k)) then
              (not in_move.(k)) && k <= last_branch
            else true)
          (List.init n Fun.id)
    in
    (* Prospective split set: moved ops whose effect the on-trace path
       needs (stores, producers for staying consumers, live-out values),
       closed over the inputs their on-trace copies read.  If any member
       cannot be split — a branch, one of the block's own compares, or an
       op whose guard is neither substitutable nor computed on-trace —
       the block is demoted. *)
    let live_on_trace =
      if block.Restructure.taken_variation then
        Liveness.live_at_target liveness region ops.(last_branch)
      else Liveness.live_out_region liveness region
    in
    let live_exposed = Array.make (n + 1) live_on_trace in
    for i = n - 1 downto 0 do
      live_exposed.(i) <-
        (if Op.is_branch ops.(i) && not in_move.(i) then
           Reg.Set.union live_exposed.(i + 1)
             (Liveness.live_at_target liveness region ops.(i))
         else live_exposed.(i + 1))
    done;
    let final_branch_idx = last_branch in
    let needed = Array.make n false in
    let splittable i =
      let op = ops.(i) in
      (not (Op.is_branch op))
      && (not
            (List.exists (fun id -> op.Op.id = id) block.Restructure.compare_ids))
      && substitutable i
    in
    let bad = ref false in
    let work = Queue.create () in
    let mark i =
      if in_move.(i) && not needed.(i) then begin
        needed.(i) <- true;
        if not (splittable i) then begin
          if Sys.getenv_opt "CPR_DEBUG_LEGAL" <> None then
            Format.eprintf "  unsplittable needed: %a@." Op.pp ops.(i);
          bad := true
        end
        else Queue.add i work
      end
    in
    for i = 0 to n - 1 do
      if
        in_move.(i)
        && not (block.Restructure.taken_variation && i > last_branch)
      then begin
        let op = ops.(i) in
        let staying_consumer =
          List.exists
            (fun (e : Depgraph.edge) ->
              match e.Depgraph.kind with
              | Depgraph.Flow _ ->
                (not in_move.(e.Depgraph.dst))
                && e.Depgraph.dst <> final_branch_idx
                (* uses of fall-through predicates past the last branch
                   are re-wired to the on-trace FRP by restructure *)
                && not (skip e)
              | _ -> false)
            (Depgraph.succs graph i)
        in
        if
          Op.is_store op || staying_consumer
          || List.exists
               (fun d -> Reg.Set.mem d live_exposed.(i + 1))
               (Op.defs op)
        then mark i
      end
    done;
    while not (Queue.is_empty work) do
      let m = Queue.pop work in
      (* The on-trace copy reads the op's sources and accumulator inputs;
         its guard is substituted by the on-trace FRP (or already computed
         on-trace), so guard-flow producers do not propagate. *)
      let src_regs =
        List.filter_map
          (function Op.Reg r -> Some r | Op.Imm _ | Op.Lab _ -> None)
          ops.(m).Op.srcs
        @ Op.accumulator_dests ops.(m)
      in
      List.iter
        (fun (e : Depgraph.edge) ->
          match e.Depgraph.kind with
          | Depgraph.Flow r
            when in_move.(e.Depgraph.src) && List.exists (Reg.equal r) src_regs
            -> mark e.Depgraph.src
          | _ -> ())
        (Depgraph.preds graph m)
    done;
    (if Sys.getenv_opt "CPR_DEBUG_LEGAL" <> None then
       if hazard_edge || !bad then begin
         Format.eprintf "DEMOTE block (branches %s): hazard=%b bad_split=%b@."
           (String.concat ","
              (List.map string_of_int block.Restructure.branch_ids))
           hazard_edge !bad;
         if hazard_edge then
           List.iter
             (fun (e : Depgraph.edge) ->
               if
                 in_move.(e.Depgraph.src)
                 && (not in_move.(e.Depgraph.dst))
                 && e.Depgraph.dst <= last_branch
                 && not (skip e)
               then
                 Format.eprintf "  hazard: %d -> %d@." ops.(e.Depgraph.src).Op.id
                   ops.(e.Depgraph.dst).Op.id)
             (Depgraph.edges graph)
       end);
    (not hazard_edge) && not !bad
  end

let to_block_refs ops (blocks : Match_blocks.cpr_block list) =
  List.filter_map
    (fun (b : Match_blocks.cpr_block) ->
      if not (Match_blocks.nontrivial b) then None
      else if
        List.length b.Match_blocks.compare_idxs
        <> List.length b.Match_blocks.branch_idxs
      then None
      else
        Some
          {
            Restructure.compare_ids =
              List.map (fun i -> ops.(i).Op.id) b.Match_blocks.compare_idxs;
            Restructure.branch_ids =
              List.map (fun i -> ops.(i).Op.id) b.Match_blocks.branch_idxs;
            Restructure.root_guard =
              (match b.Match_blocks.compare_idxs with
              | c0 :: _ -> ops.(c0).Op.guard
              | [] -> Op.True);
            Restructure.taken_variation = b.Match_blocks.taken_variation;
          })
    blocks

let transform_region_with_blocks prog (region : Region.t) block_refs =
  let subst = Reg.Tbl.create 17 in
  let plans = ref [] in
  let stopped = ref false in
  List.iter
    (fun block ->
      if not !stopped then begin
        let plan = Restructure.transform_block prog region ~subst block in
        if Sys.getenv_opt "CPR_DEBUG_OFFTRACE" <> None then
          Format.eprintf "plan: bypass=%d comp=%s compares=[%s] branches=[%s]@."
            plan.Restructure.bypass_id plan.Restructure.comp_label
            (String.concat ","
               (List.map string_of_int block.Restructure.compare_ids))
            (String.concat ","
               (List.map string_of_int block.Restructure.branch_ids));
        plans := plan :: !plans;
        if block.Restructure.taken_variation then stopped := true
      end)
    block_refs;
  let plans = List.rev !plans in
  (* One Pred_init at region top covering every transformed block
     (Figure 7(b), op 31). *)
  let pairs = List.concat_map Restructure.pred_init_pairs plans in
  if pairs <> [] then begin
    let init =
      Op.make ~id:(Prog.fresh_op_id prog)
        (Op.Pred_init (List.map snd pairs))
        (List.map fst pairs) []
    in
    region.Region.ops <- init :: region.Region.ops
  end;
  List.fold_left
    (fun acc plan ->
      let s = Offtrace.apply prog region plan in
      {
        acc with
        blocks_transformed = acc.blocks_transformed + 1;
        ops_moved = acc.ops_moved + s.Offtrace.moved;
        ops_split = acc.ops_split + s.Offtrace.split;
      })
    { zero_stats with blocks_formed = List.length block_refs }
    plans

let transform_region heur prog liveness (region : Region.t) =
  let blocks = Match_blocks.run heur prog liveness region in
  let ops = Array.of_list region.Region.ops in
  let graph = Depgraph.build Cpr_machine.Descr.medium prog liveness region in
  let refs = to_block_refs ops blocks in
  let legal, demoted =
    List.partition (fun b -> block_legal liveness region graph ops b) refs
  in
  let stats = transform_region_with_blocks prog region legal in
  {
    stats with
    blocks_formed = List.length blocks;
    blocks_demoted = List.length demoted;
  }

let run ?(heur = Heur.default) (prog : Prog.t) =
  let hottest =
    List.fold_left
      (fun acc (r : Region.t) -> max acc r.Region.entry_count)
      0 (Prog.regions prog)
  in
  let threshold =
    max 1 (int_of_float (heur.Heur.hot_region_fraction *. float_of_int hottest))
  in
  let original = Prog.regions prog in
  let stats =
    List.fold_left
      (fun acc (r : Region.t) ->
        if r.Region.entry_count < threshold then acc
        else begin
          (* Section 7: "where control CPR has not been applied, the
             performance of the unoptimized code is measured" — regions
             in which no CPR block forms revert to their original
             (pre-FRP-conversion) code. *)
          let snapshot = r.Region.ops in
          if not (Frp.convert_region prog r) then acc
          else begin
            let (_ : Spec.stats) = Spec.speculate_region prog r in
            let liveness = Liveness.analyze prog in
            let s = transform_region heur prog liveness r in
            if s.blocks_transformed = 0 then begin
              r.Region.ops <- snapshot;
              add_stats acc { s with blocks_formed = s.blocks_formed }
            end
            else add_stats acc s
          end
        end)
      zero_stats original
  in
  let (_ : int) = Dce.run prog in
  stats

let pp_stats ppf s =
  Format.fprintf ppf
    "blocks formed %d, transformed %d, demoted %d; ops moved %d, split %d"
    s.blocks_formed s.blocks_transformed s.blocks_demoted s.ops_moved
    s.ops_split
