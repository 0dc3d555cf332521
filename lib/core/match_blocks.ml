open Cpr_ir
module Depgraph = Cpr_analysis.Depgraph

type cpr_block = {
  branch_idxs : int list;
  compare_idxs : int list;
  root_guard : Op.guard;
  taken_variation : bool;
  entry_freq : int;
}

let nontrivial b =
  match b.branch_idxs with
  | [] -> false
  | [ _ ] -> b.taken_variation && b.compare_idxs <> []
  | _ :: _ :: _ -> true

(* UN and UC destinations of a cmpp. *)
let dests_with_action (op : Op.t) action =
  match op.Op.opcode with
  | Op.Cmpp (_, a1, a2) ->
    List.filter_map
      (fun (a, d) -> if a = action then Some d else None)
      (List.combine (a1 :: Option.to_list a2) op.Op.dests)
  | _ -> []

(* Unique op computing [p]; suitable only if that op is a cmpp defining
   [p] through a UN destination before index [limit]. *)
let controlling_compare ops limit p =
  let defs = ref [] in
  Array.iteri
    (fun i (op : Op.t) ->
      if i < limit && List.exists (Reg.equal p) (Op.defs op) then
        defs := i :: !defs)
    ops;
  match !defs with
  | [ i ] when List.exists (Reg.equal p) (dests_with_action ops.(i) Op.Un) ->
    Some i
  | _ -> None

type grow_state = {
  mutable sp : Reg.Set.t;
  mutable sp_true : bool;  (** the always-true predicate is in SP *)
  mutable succ : bool array;  (** separability successor set, by op index *)
  graph : Depgraph.t;
  ops : Op.t array;
}

(* Accumulate the (transitive) dependence successors of the compare at
   [cmp_idx] into [st.succ], following register-flow and memory-flow
   edges, ignoring the dependence through the compare's own fall-through
   (UC) predicate when it is used as the guard of another compare — the
   restructure schema substitutes the root predicate there (Section 5.2). *)
let append_successors st cmp_idx =
  let uc_dests = Reg.Set.of_list (dests_with_action st.ops.(cmp_idx) Op.Uc) in
  let skip (e : Depgraph.edge) =
    e.Depgraph.src = cmp_idx
    &&
    match e.Depgraph.kind with
    | Depgraph.Flow r ->
      Reg.Set.mem r uc_dests
      && Op.is_cmpp st.ops.(e.Depgraph.dst)
      && st.ops.(e.Depgraph.dst).Op.guard = Op.If r
      && not
           (List.exists
              (function Op.Reg x -> Reg.equal x r | _ -> false)
              st.ops.(e.Depgraph.dst).Op.srcs)
    | _ -> false
  in
  let queue = Queue.create () in
  Queue.add cmp_idx queue;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    List.iter
      (fun (e : Depgraph.edge) ->
        match e.Depgraph.kind with
        | Depgraph.Flow _ | Depgraph.Mem_flow ->
          if (not (skip e)) && not st.succ.(e.Depgraph.dst) then begin
            st.succ.(e.Depgraph.dst) <- true;
            Queue.add e.Depgraph.dst queue
          end
        | _ -> ())
      (Depgraph.succs st.graph k)
  done

let guard_in_sp st = function
  | Op.True -> st.sp_true
  | Op.If p -> Reg.Set.mem p st.sp

(* Growing a block reads only register- and memory-flow edges, so the
   graph has data edges only. *)
let run (heur : Heur.t) (prog : Prog.t) (region : Region.t) =
  let ops = Array.of_list region.Region.ops in
  let graph = Depgraph.data Cpr_machine.Descr.medium prog region in
  let branch_idxs =
    List.filter (fun i -> Op.is_branch ops.(i))
      (List.init (Array.length ops) Fun.id)
  in
  (* Profiled frequency of sequential control reaching each branch. *)
  let freq_at =
    let freqs = Hashtbl.create 17 in
    let remaining = ref region.Region.entry_count in
    List.iter
      (fun i ->
        Hashtbl.replace freqs i !remaining;
        remaining :=
          max 0 (!remaining - Region.taken_count region ops.(i).Op.id))
      branch_idxs;
    fun i -> Option.value ~default:0 (Hashtbl.find_opt freqs i)
  in
  let compare_of i =
    match ops.(i).Op.guard with
    | Op.True -> None
    | Op.If p -> controlling_compare ops i p
  in
  let result = ref [] in
  let rec seed = function
    | [] -> ()
    | b0 :: rest -> (
      match compare_of b0 with
      | None ->
        (* Suitability cannot even initialize: trivial block. *)
        result :=
          {
            branch_idxs = [ b0 ];
            compare_idxs = [];
            root_guard = Op.True;
            taken_variation = false;
            entry_freq = freq_at b0;
          }
          :: !result;
        seed rest
      | Some c0 ->
        let st =
          {
            sp = Reg.Set.empty;
            sp_true = ops.(c0).Op.guard = Op.True;
            succ = Array.make (Array.length ops) false;
            graph;
            ops;
          }
        in
        (match ops.(c0).Op.guard with
        | Op.If p -> st.sp <- Reg.Set.add p st.sp
        | Op.True -> ());
        List.iter
          (fun d -> st.sp <- Reg.Set.add d st.sp)
          (dests_with_action ops.(c0) Op.Uc);
        append_successors st c0;
        let entry_freq = freq_at b0 in
        let taken_sum = ref (Region.taken_count region ops.(b0).Op.id) in
        let block_branches = ref [ b0 ] in
        let block_compares = ref [ c0 ] in
        let taken_var = ref false in
        let rec grow cands =
          match cands with
          | [] -> []
          | cand :: cand_rest -> (
            if List.length !block_branches >= heur.Heur.max_block_branches then
              cands
            else
              match compare_of cand with
              | None -> cands
              | Some c ->
                if not (guard_in_sp st ops.(c).Op.guard) then cands
                else if st.succ.(c) then cands
                else begin
                  let cand_taken = Region.taken_count region ops.(cand).Op.id in
                  let ratio x =
                    if entry_freq = 0 then 0.0
                    else float_of_int x /. float_of_int entry_freq
                  in
                  let pred_taken =
                    ratio cand_taken >= heur.Heur.predict_taken_threshold
                    && entry_freq > 0
                  in
                  if
                    (not pred_taken)
                    && ratio (!taken_sum + cand_taken)
                       > heur.Heur.exit_weight_threshold
                    && entry_freq > 0
                  then cands
                  else begin
                    block_branches := cand :: !block_branches;
                    block_compares := c :: !block_compares;
                    taken_sum := !taken_sum + cand_taken;
                    List.iter
                      (fun d -> st.sp <- Reg.Set.add d st.sp)
                      (dests_with_action ops.(c) Op.Uc);
                    append_successors st c;
                    if pred_taken then begin
                      taken_var := true;
                      cand_rest
                    end
                    else grow cand_rest
                  end
                end)
        in
        let remaining = grow rest in
        result :=
          {
            branch_idxs = List.rev !block_branches;
            compare_idxs = List.rev !block_compares;
            root_guard = ops.(c0).Op.guard;
            taken_variation = !taken_var;
            entry_freq;
          }
          :: !result;
        seed remaining)
  in
  seed branch_idxs;
  List.rev !result

let pp ppf b =
  Format.fprintf ppf "cpr-block{branches=[%s]; %s; entry=%d}"
    (String.concat ","
       (List.map string_of_int b.branch_idxs))
    (if b.taken_variation then "taken" else "fall-through")
    b.entry_freq
