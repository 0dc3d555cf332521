open Cpr_ir
module Depgraph = Cpr_analysis.Depgraph
module Liveness = Cpr_analysis.Liveness

type stats = {
  moved : int;
  split : int;
}

(* The motion reads only [Flow], [Mem_flow], [Anti] and [Output] edges,
   so the graph has data edges only. *)
let apply (prog : Prog.t) liveness (region : Region.t)
    (plan : Restructure.plan) =
  let ops = Array.of_list region.Region.ops in
  let n = Array.length ops in
  let idx_of_id =
    let tbl = Hashtbl.create 64 in
    Array.iteri (fun i (op : Op.t) -> Hashtbl.replace tbl op.Op.id i) ops;
    fun id ->
      match Hashtbl.find_opt tbl id with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Offtrace: op id %d not in region %s" id region.Region.label)
  in
  let bypass_pos = idx_of_id plan.Restructure.bypass_id in
  let graph = Depgraph.data Cpr_machine.Descr.medium prog region in
  let live_at = Liveness.live_at_branches liveness region ops in
  let block = plan.Restructure.block in
  let taken_var = block.Restructure.taken_variation in
  (* Set 1: the original compares and branches (minus, in the taken
     variation, the final branch which stays as the bypass) and their
     transitive register/memory flow successors. *)
  let in_move = Array.make n false in
  let branch_seeds =
    List.filter_map
      (fun id ->
        if taken_var && id = plan.Restructure.bypass_id then None
        else Some (idx_of_id id))
      block.Restructure.branch_ids
  in
  (* A moved branch's prepare-to-branch moves with it — the branch reads
     its btr in the compensation region, and an in-region reaching pbr is
     a structural invariant.  Usually set 3 would move the pbr anyway
     (its btr has no other use); seeding it here also covers hyperblocks
     in which predicated pbr definitions keep the btr conservatively
     live, where the split machinery then emits an on-trace copy. *)
  let pbr_seeds =
    List.filter_map
      (fun bi ->
        Option.map
          (fun (pbr : Op.t) -> idx_of_id pbr.Op.id)
          (Region.reaching_pbr region ops.(bi)))
      branch_seeds
  in
  let seeds =
    List.map idx_of_id block.Restructure.compare_ids @ branch_seeds @ pbr_seeds
  in
  let root_pred_early =
    match block.Restructure.root_guard with
    | Op.True -> None
    | Op.If p -> Some p
  in
  (* An op whose guard is definitely substitutable by the on-trace FRP
     can always be split if needed, so the move closure need not
     propagate through it: its consumers will read the on-trace copy. *)
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
         List.exists (Reg.equal q) plan.Restructure.uc_dests
         || Option.fold ~none:false ~some:(Reg.equal q) root_pred_early)
  in
  let queue = Queue.create () in
  List.iter
    (fun i ->
      if not in_move.(i) then begin
        in_move.(i) <- true;
        Queue.add i queue
      end)
    seeds;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    if not (definitely_splittable k) then
      List.iter
        (fun (e : Depgraph.edge) ->
          match e.Depgraph.kind with
          | Depgraph.Flow _ | Depgraph.Mem_flow ->
            let j = e.Depgraph.dst in
            (* The bypass branch reads the off-trace FRP computed by the
               lookaheads, never a moved value; everything else reachable
               moves. *)
            if (not in_move.(j)) && j <> bypass_pos then begin
              in_move.(j) <- true;
              Queue.add j queue
            end
          | _ -> ())
        (Depgraph.succs graph k)
  done;
  (* Taken variation: the hyperblock tail past the final branch also goes
     to the compensation region. *)
  if taken_var then
    for i = bypass_pos + 1 to n - 1 do
      in_move.(i) <- true
    done;
  let uses_of =
    (* For each op index, the indices of later ops reading one of its
       destinations (before an unconditional overwrite is not tracked:
       over-approximating users keeps the tests conservative). *)
    Array.init n (fun i ->
        List.filter_map
          (fun (e : Depgraph.edge) ->
            match e.Depgraph.kind with
            | Depgraph.Flow _ -> Some e.Depgraph.dst
            | _ -> None)
          (Depgraph.succs graph i))
  in
  let live_on_trace =
    if taken_var then
      live_at.(bypass_pos)
    else Liveness.live_out_region liveness region
  in
  (* live_exposed.(i): registers whose value some on-trace continuation
     past op [i] may read — the on-trace fall-through (or taken target)
     plus the targets of every *staying* branch after [i] (exits outside
     this CPR block still leave through the original code). *)
  let live_exposed = Array.make (n + 1) live_on_trace in
  for i = n - 1 downto 0 do
    live_exposed.(i) <-
      (if Op.is_branch ops.(i) && (not in_move.(i)) && i <> bypass_pos then
         Reg.Set.union live_exposed.(i + 1) live_at.(i)
       else live_exposed.(i + 1))
  done;
  (* Set 2: moved ops whose effect the on-trace path needs are split.  An
     op is split only when its guard is substitutable by the on-trace FRP
     (true, the root predicate, or one of the block's fall-through
     predicates) or its guard's definition stays on-trace; ops guarded by
     moved taken-predicates are no-ops on trace and are never split. *)
  let root_pred =
    match block.Restructure.root_guard with
    | Op.True -> None
    | Op.If p -> Some p
  in
  let substitutable_guard (op : Op.t) =
    match op.Op.guard with
    | Op.True -> Some (Op.If plan.Restructure.p_on)
    | Op.If q ->
      if
        List.exists (Reg.equal q) plan.Restructure.uc_dests
        || Option.fold ~none:false ~some:(Reg.equal q) root_pred
      then Some (Op.If plan.Restructure.p_on)
      else
        (* keep the guard only when its definition stays on-trace AND
           precedes the bypass — the compensation block (and the copies at
           the bypass) read the guard's value as of the bypass point *)
        let def_ok =
          List.for_all
            (fun i ->
              if List.exists (Reg.equal q) (Op.defs ops.(i)) then
                (not in_move.(i)) && i < bypass_pos
              else true)
            (List.init n Fun.id)
        in
        if def_ok then Some op.Op.guard else None
  in
  let needed_on_trace i =
    let op = ops.(i) in
    (* The tail of a taken-variation block executes only off-trace (the
       on-trace continuation is the branch target); its values are never
       needed on trace. *)
    (not (taken_var && i > bypass_pos))
    && (Op.is_store op
       || List.exists (fun j -> not in_move.(j)) uses_of.(i)
       || List.exists (fun d -> Reg.Set.mem d live_exposed.(i + 1)) op.Op.dests)
  in
  let is_split = Array.make n false in
  let split_guard = Array.make n Op.True in
  let split_count = ref 0 in
  let work = Queue.create () in
  let mark i =
    if in_move.(i) && not is_split.(i) then begin
      let op = ops.(i) in
      let can_split =
        (not (Op.is_branch op))
        && not
             (Op.is_cmpp op
             && List.exists
                  (fun id -> ops.(i).Op.id = id)
                  block.Restructure.compare_ids)
      in
      match (can_split, substitutable_guard op) with
      | true, Some guard ->
        incr split_count;
        is_split.(i) <- true;
        split_guard.(i) <- guard;
        Queue.add i work
      | _ ->
        invalid_arg
          (Printf.sprintf
             "Offtrace: op %d needed on-trace but not splittable (pre-check \
              should have demoted this block)"
             op.Op.id)
    end
  in
  for i = 0 to n - 1 do
    if in_move.(i) && needed_on_trace i then mark i
  done;
  (* Close the split set over inputs: the on-trace copy of a split op
     reads its sources (and its guard, unless substituted) on trace, so a
     moved producer of those values must be split as well. *)
  while not (Queue.is_empty work) do
    let m = Queue.pop work in
    let src_regs =
      List.filter_map
        (function Op.Reg r -> Some r | Op.Imm _ | Op.Lab _ -> None)
        ops.(m).Op.srcs
      @ (match split_guard.(m) with
        | Op.If g when split_guard.(m) = ops.(m).Op.guard -> [ g ]
        | _ -> [])
      @ Op.accumulator_dests ops.(m)
    in
    List.iter
      (fun (e : Depgraph.edge) ->
        match e.Depgraph.kind with
        | Depgraph.Flow r
          when in_move.(e.Depgraph.src)
               && (not is_split.(e.Depgraph.src))
               && List.exists (Reg.equal r) src_regs -> mark e.Depgraph.src
        | _ -> ())
      (Depgraph.preds graph m)
  done;
  let copy_of i =
    {
      (ops.(i)) with
      Op.id = Prog.fresh_op_id prog;
      Op.guard = split_guard.(i);
      Op.orig = Some ops.(i).Op.id;
    }
  in
  (* Copies of ops originally above the bypass materialize at the bypass
     (after it in the fall-through variation, before it in the taken one,
     where the on-trace FRP is fully accumulated); copies of ops below it
     stay in place, preserving order against the staying ops around
     them. *)
  let early_copies =
    List.filter_map
      (fun i -> if is_split.(i) && i < bypass_pos then Some (copy_of i) else None)
      (List.init n Fun.id)
  in
  (* Set 3: operations whose results are consumed only off-trace (paper
     order: after the split set, since the on-trace copy of a split op
     still consumes its inputs on trace).  Memory operations and branches
     are excluded (moving a load past on-trace stores could change its
     value). *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let op = ops.(i) in
      if
        (not in_move.(i))
        && (not (Op.is_mem op))
        && (not (Op.is_branch op))
        && i <> bypass_pos
        && op.Op.dests <> []
        (* zero remaining uses means dead code (DCE's job), not
           off-trace-only code -- and it may be a later CPR block's
           compare whose uses its own restructure already re-wired *)
        && uses_of.(i) <> []
        && List.for_all
             (fun j -> in_move.(j) && not is_split.(j))
             uses_of.(i)
        && not
             (List.exists (fun d -> Reg.Set.mem d live_exposed.(i + 1)) op.Op.dests)
        (* Sinking [i] into the compensation region re-orders it after
           every staying op; a staying (or split — its on-trace copy runs
           above the bypass) later redefinition of a register [i] reads or
           writes would then clobber it first.  Flow hazards are covered
           by the staying-use and liveness tests above; anti and output
           hazards must be checked explicitly. *)
        && List.for_all
             (fun (e : Cpr_analysis.Depgraph.edge) ->
               match e.Depgraph.kind with
               | Depgraph.Anti _ | Depgraph.Output _ ->
                 in_move.(e.Depgraph.dst) && not is_split.(e.Depgraph.dst)
               | _ -> true)
             (Depgraph.succs graph i)
      then begin
        in_move.(i) <- true;
        changed := true
      end
    done
  done;
  (* Rebuild the on-trace op list and fill the compensation region. *)
  let comp = Prog.find_exn prog plan.Restructure.comp_label in
  comp.Region.ops <-
    List.filteri (fun i _ -> in_move.(i)) (Array.to_list ops);
  let on_trace = ref [] in
  Array.iteri
    (fun i op ->
      if in_move.(i) then begin
        if is_split.(i) && i > bypass_pos then
          on_trace := copy_of i :: !on_trace
      end
      else begin
        if taken_var && i = bypass_pos then
          on_trace := List.rev_append early_copies !on_trace;
        on_trace := op :: !on_trace;
        if (not taken_var) && i = bypass_pos then
          on_trace := List.rev_append early_copies !on_trace
      end)
    ops;
  region.Region.ops <- List.rev !on_trace;
  { moved = List.length comp.Region.ops; split = !split_count }
