open Cpr_ir

let kills (op : Op.t) =
  let unconditional =
    match op.Op.guard with
    | Op.True ->
      List.filter
        (fun d -> not (List.exists (Reg.equal d) (Op.accumulator_dests op)))
        op.Op.dests
    | Op.If _ -> []
  in
  unconditional @ Op.writes_when_guard_false op

(* The fixpoint runs over packed bitsets with registers indexed densely
   (every register appearing in an op or in [live_out] gets a slot) and
   each region precompiled into reverse-order transfer steps, so the
   per-iteration work is word-wide boolean algebra on preresolved index
   arrays — no per-op [Reg.Set.of_list], no tree rebalancing.  Reg.Set
   views are materialized lazily (and cached per label) at the API
   boundary only. *)
type step = {
  target : string option;  (* branch target to merge, for branches *)
  kill_ix : int array;
  use_ix : int array;
}

type t = {
  prog : Prog.t;
  stride : int;  (* per-class id bound: index = Reg.slot ~stride *)
  table : (string, Bitset.t) Hashtbl.t;
  boundary_bits : Bitset.t;
  boundary_set : Reg.Set.t;
  set_cache : (string, Reg.Set.t) Hashtbl.t;
}

(* The register universe is indexed arithmetically ({!Reg.slot}, with
   [stride] bounding every per-class id that appears), so compiling ops
   to transfer steps involves no hash table at all. *)
let analyze (prog : Prog.t) =
  let regions = Prog.regions prog in
  let stride =
    List.fold_left
      (fun s (r : Region.t) -> List.fold_left Op.reg_bound s r.Region.ops)
      (List.fold_left
         (fun s (r : Reg.t) -> max s (r.Reg.id + 1))
         1 prog.Prog.live_out)
      regions
  in
  let ix_of = Reg.slot ~stride in
  let ix l = Array.of_list (List.map ix_of l) in
  let order =
    List.rev_map
      (fun (r : Region.t) ->
        let ops = Array.of_list r.Region.ops in
        let targets = Region.targets_by_index r in
        let last = Array.length ops - 1 in
        let steps =
          Array.init (last + 1) (fun k ->
              let op = ops.(last - k) in
              {
                target = targets.(last - k);
                kill_ix = ix (kills op);
                use_ix = ix (Op.uses op);
              })
        in
        (r.Region.label, r.Region.fallthrough, steps))
      regions
  in
  let n = 3 * stride in
  let boundary_bits = Bitset.create n in
  List.iter
    (fun r -> Bitset.set boundary_bits (ix_of r))
    prog.Prog.live_out;
  let table = Hashtbl.create 17 in
  let live_bits label =
    if Prog.is_exit prog label then boundary_bits
    else
      match Hashtbl.find_opt table label with
      | Some b -> b
      | None -> Bitset.create n
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (label, fallthrough, steps) ->
        let live =
          Bitset.copy
            (match fallthrough with
            | Some l -> live_bits l
            | None -> boundary_bits)
        in
        for si = 0 to Array.length steps - 1 do
          let s = steps.(si) in
          (match s.target with
          | Some l -> ignore (Bitset.union_into ~into:live (live_bits l))
          | None -> ());
          let kill = s.kill_ix and use = s.use_ix in
          for k = 0 to Array.length kill - 1 do
            Bitset.unset live kill.(k)
          done;
          for k = 0 to Array.length use - 1 do
            Bitset.set live use.(k)
          done
        done;
        if not (Bitset.equal live (live_bits label)) then begin
          Hashtbl.replace table label live;
          changed := true
        end)
      order
  done;
  {
    prog;
    stride;
    table;
    boundary_bits;
    boundary_set = Reg.Set.of_list prog.Prog.live_out;
    set_cache = Hashtbl.create 17;
  }

let to_set t bits =
  Bitset.fold
    (fun i s -> Reg.Set.add (Reg.of_slot ~stride:t.stride i) s)
    bits Reg.Set.empty

let live_in t label =
  if Prog.is_exit t.prog label then t.boundary_set
  else
    match Hashtbl.find_opt t.set_cache label with
    | Some s -> s
    | None ->
      let s =
        match Hashtbl.find_opt t.table label with
        | Some bits -> to_set t bits
        | None -> Reg.Set.empty
      in
      Hashtbl.replace t.set_cache label s;
      s

let live_at_label t = function
  | Some l -> live_in t l
  | None -> t.boundary_set

let live_at_targets t (r : Region.t) =
  List.map
    (fun (_, target) -> live_at_label t target)
    (Region.branch_targets r)

let live_at_branches t (r : Region.t) ops =
  let targets = Region.targets_by_index r in
  if Array.length targets <> Array.length ops then
    invalid_arg "Liveness.live_at_branches: another region's ops";
  Array.mapi
    (fun i op ->
      if Op.is_branch op then live_at_label t targets.(i) else Reg.Set.empty)
    ops

let live_out_region t (r : Region.t) =
  match r.Region.fallthrough with
  | Some l -> live_in t l
  | None -> t.boundary_set

(* Every condition under which [reg] is live after [idx] is one term
   [pc.(j) ∧ e]: a use under guard [e], or an exit at [j] taken under [e]
   where [reg] is live at the target, or the fall-through exit ([e] =
   [tru], [j] = end).  The prefix [pc.(j)] from region entry is shared by
   every query on the region, so a term is built once and reused by later
   queries.  A disjunction implies [guard] exactly when each of its terms
   does, so the disjunction is never built: each term is checked on its
   own and the scan stops at the first that fails.  An unconditional kill
   ends the scan — nothing past it can read the value present after
   [idx].  The live set at each exit comes from the caller's
   [live_at_branches] array, built once per region snapshot, so no query
   resolves a branch target. *)
let live_after_implies t env (r : Region.t) ~live_at idx reg guard =
  let ops = Pred_env.ops env in
  let pc = Pred_env.path_conds env in
  let n = Array.length ops in
  let covered j e = Pqs.implies (Pqs.and_ pc.(j) e) guard in
  let rec scan j =
    if j = n then
      (not (Reg.Set.mem reg (live_out_region t r))) || covered n Pqs.tru
    else
      let op = ops.(j) in
      ((not (List.exists (Reg.equal reg) (Op.uses op)))
      || covered j (Pred_env.guard_expr env j))
      && ((not (Op.is_branch op))
         || (not (Reg.Set.mem reg live_at.(j)))
         || covered j (Pred_env.taken_expr env j))
      && (List.exists (Reg.equal reg) (kills op) || scan (j + 1))
  in
  scan (idx + 1)
