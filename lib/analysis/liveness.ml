open Cpr_ir
open Cpr_obs

let c_analyze = Obs.counter "liveness.analyze"
let c_update = Obs.counter "liveness.update"

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
   and each region precompiled into reverse-order transfer steps, so the
   per-iteration work is word-wide boolean algebra on preresolved index
   arrays — no per-op [Reg.Set.of_list], no tree rebalancing.  Reg.Set
   views are materialized lazily (and cached per label) at the API
   boundary only.

   Each class gets its own block of slots, [base.(k) + id] for class
   rank [k]: predicate and branch-target ids stay far below the GPR ids
   of a large program, so one stride for all three classes would spend
   most of every word on slots that no register can take.  Ascending
   slots still enumerate registers in [Reg.compare] order. *)
type layout = {
  bound : int array;  (* per class rank: every id is below it *)
  base : int array;  (* per class rank: the first slot *)
  nbits : int;
}

(* Blocks are rounded up to whole words, so a solution keeps its layout
   (and its compiled regions) while a rewrite mints a few registers. *)
let layout_for need =
  let w = Sys.int_size in
  let round b = (max b 1 + w - 1) / w * w in
  let bound = Array.map round need in
  let base = [| 0; bound.(0); bound.(0) + bound.(1) |] in
  { bound; base; nbits = base.(2) + bound.(2) }

let fits lay need =
  need.(0) <= lay.bound.(0) && need.(1) <= lay.bound.(1)
  && need.(2) <= lay.bound.(2)

let slot lay (r : Reg.t) = lay.base.(Reg.cls_rank r.Reg.cls) + r.Reg.id

let reg_of_slot lay i =
  if i < lay.base.(1) then Reg.gpr i
  else if i < lay.base.(2) then Reg.pred (i - lay.base.(1))
  else Reg.btr (i - lay.base.(2))

(* [need] holds, per class rank, one past the largest id seen. *)
let see need (r : Reg.t) =
  let k = Reg.cls_rank r.Reg.cls in
  if r.Reg.id >= need.(k) then need.(k) <- r.Reg.id + 1

let op_need need (op : Op.t) =
  List.iter (function Op.Reg r -> see need r | Op.Imm _ | Op.Lab _ -> ())
    op.Op.srcs;
  (match op.Op.guard with Op.If g -> see need g | Op.True -> ());
  List.iter (see need) op.Op.dests

type step = {
  target : int;  (* for a branch, its target's index in [targets]; else -1 *)
  kill_ix : int array;
  use_ix : int array;
}

(* A region's transfer, with the op list it was compiled from: the steps
   are a function of that list and the layout alone, so a solution
   reuses them for every region whose list is physically the one
   compiled.  [need] is the list's per-class id bound. *)
type compiled = {
  ops : Op.t list;
  need : int array;
  steps : step array;  (* reverse program order *)
  targets : string array;  (* distinct branch targets *)
}

type t = {
  prog : Prog.t;
  layout : layout;
  compiled : (string, compiled) Hashtbl.t;  (* by region label *)
  index : (string, int) Hashtbl.t;  (* region label -> slot in [live] *)
  live : Bitset.t array;  (* live-in bits, by region index *)
  boundary_bits : Bitset.t;
  boundary_set : Reg.Set.t;
  set_cache : (string, Reg.Set.t) Hashtbl.t;
}

let compile lay ~need (r : Region.t) =
  let ix l = Array.of_list (List.map (slot lay) l) in
  let ops = Array.of_list r.Region.ops in
  let by_index = Region.targets_by_index r in
  let targets = ref [] in
  let target_ix = function
    | None -> -1
    | Some l ->
      let rec find k = function
        | [] ->
          targets := !targets @ [ l ];
          k
        | x :: rest -> if String.equal x l then k else find (k + 1) rest
      in
      find 0 !targets
  in
  let last = Array.length ops - 1 in
  let steps =
    Array.init (last + 1) (fun k ->
        let op = ops.(last - k) in
        {
          target = target_ix by_index.(last - k);
          kill_ix = ix (kills op);
          use_ix = ix (Op.uses op);
        })
  in
  { ops = r.Region.ops; need; steps; targets = Array.of_list !targets }

(* Where a label's live-in comes from during a solve: the region with
   that index, or [boundary] (an exit), or [nowhere] (neither). *)
let boundary = -1
let nowhere = -2

(* The least fixpoint by worklist, as GHC's [CmmLive] solves it: every
   region is visited once, in reverse layout order (the order the
   round-robin solver used), and afterwards only the predecessors of a
   region whose live-in grew are visited again.  Live-in sets start
   empty, so the result is the system's unique least fixpoint whatever
   the visiting order.  Labels are resolved once per solve, so a visit
   does no hashing. *)
let solve (prog : Prog.t) ~nbits ~boundary_bits
    (order : (Region.t * compiled) array) =
  let n = Array.length order in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri
    (fun i ((r : Region.t), _) -> Hashtbl.replace index r.Region.label i)
    order;
  let source label =
    if Prog.is_exit prog label then boundary
    else Option.value ~default:nowhere (Hashtbl.find_opt index label)
  in
  let fall =
    Array.map
      (fun ((r : Region.t), _) ->
        match r.Region.fallthrough with
        | Some l -> source l
        | None -> boundary)
      order
  in
  let target_src = Array.map (fun (_, c) -> Array.map source c.targets) order in
  let preds = Array.make n [] in
  let add_pred i j =
    if j >= 0 && not (List.mem i preds.(j)) then preds.(j) <- i :: preds.(j)
  in
  for i = 0 to n - 1 do
    add_pred i fall.(i);
    Array.iter (add_pred i) target_src.(i)
  done;
  let empty = Bitset.create nbits in
  let live = Array.make n empty in
  let bits_of src =
    if src >= 0 then live.(src) else if src = boundary then boundary_bits
    else empty
  in
  let queue = Queue.create () in
  let queued = Array.make n true in
  for i = 0 to n - 1 do
    Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    queued.(i) <- false;
    let bits = Bitset.copy (bits_of fall.(i)) in
    let steps = (snd order.(i)).steps and srcs = target_src.(i) in
    for si = 0 to Array.length steps - 1 do
      let s = steps.(si) in
      if s.target >= 0 then
        ignore (Bitset.union_into ~into:bits (bits_of srcs.(s.target)));
      let kill = s.kill_ix and use = s.use_ix in
      for k = 0 to Array.length kill - 1 do
        Bitset.unset bits kill.(k)
      done;
      for k = 0 to Array.length use - 1 do
        Bitset.set bits use.(k)
      done
    done;
    if not (Bitset.equal bits live.(i)) then begin
      live.(i) <- bits;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            Queue.add p queue
          end)
        preds.(i)
    end
  done;
  (index, live)

(* Solve [prog] as it stands, reusing [prev]'s compiled regions whose op
   list is physically the one they were compiled from, while [prev]'s
   layout still fits every register id.  Slots are computed
   arithmetically, so compiling ops to transfer steps involves no hash
   table at all. *)
let solution ?prev (prog : Prog.t) =
  let reusable (r : Region.t) =
    match prev with
    | None -> None
    | Some p -> (
      match Hashtbl.find_opt p.compiled r.Region.label with
      | Some c when c.ops == r.Region.ops -> Some c
      | _ -> None)
  in
  let need = Array.make 3 0 in
  List.iter (see need) prog.Prog.live_out;
  let regions =
    List.map
      (fun (r : Region.t) ->
        let reused = reusable r in
        let own =
          match reused with
          | Some c -> c.need
          | None ->
            let own = Array.make 3 0 in
            List.iter (op_need own) r.Region.ops;
            own
        in
        Array.iteri (fun k b -> if b > need.(k) then need.(k) <- b) own;
        (r, reused, own))
      (Prog.regions prog)
  in
  let lay, same_layout =
    match prev with
    | Some p when fits p.layout need -> (p.layout, true)
    | _ -> (layout_for need, false)
  in
  let compiled = Hashtbl.create ((2 * List.length regions) + 1) in
  let order =
    Array.of_list
      (List.rev_map
         (fun ((r : Region.t), reused, own) ->
           let c =
             match reused with
             | Some c when same_layout -> c
             | _ -> compile lay ~need:own r
           in
           Hashtbl.replace compiled r.Region.label c;
           (r, c))
         regions)
  in
  let boundary_bits = Bitset.create lay.nbits in
  List.iter
    (fun r -> Bitset.set boundary_bits (slot lay r))
    prog.Prog.live_out;
  let index, live = solve prog ~nbits:lay.nbits ~boundary_bits order in
  {
    prog;
    layout = lay;
    compiled;
    index;
    live;
    boundary_bits;
    boundary_set = Reg.Set.of_list prog.Prog.live_out;
    set_cache = Hashtbl.create 17;
  }

let analyze prog =
  Obs.incr c_analyze;
  solution prog

let update t =
  Obs.incr c_update;
  solution ~prev:t t.prog

(* A [from] solved for another program — the program [prog] was copied
   from — is re-solved on [prog]: [Prog.copy] shares every region's op
   list, so each compiled region is reused and nothing recompiles. *)
let tracker ?from prog =
  let last = ref None in
  fun () ->
    let l =
      match (!last, from) with
      | Some l, _ -> update l
      | None, Some l when l.prog == prog -> l
      | None, Some l ->
        Obs.incr c_update;
        solution ~prev:l prog
      | None, None -> analyze prog
    in
    last := Some l;
    l

(* The live-in bits of a label: the boundary at an exit, nothing at a
   label that is neither an exit nor a region. *)
let bits_in t label =
  if Prog.is_exit t.prog label then Some t.boundary_bits
  else Option.map (fun i -> t.live.(i)) (Hashtbl.find_opt t.index label)

let bits_out t (r : Region.t) =
  match r.Region.fallthrough with
  | Some l -> bits_in t l
  | None -> Some t.boundary_bits

let to_set t bits =
  Bitset.fold
    (fun i s -> Reg.Set.add (reg_of_slot t.layout i) s)
    bits Reg.Set.empty

let live_in t label =
  if Prog.is_exit t.prog label then t.boundary_set
  else
    match Hashtbl.find_opt t.set_cache label with
    | Some s -> s
    | None ->
      let s =
        match bits_in t label with
        | Some bits -> to_set t bits
        | None -> Reg.Set.empty
      in
      Hashtbl.replace t.set_cache label s;
      s

let mem_bits t bits (r : Reg.t) =
  match bits with
  | Some b ->
    r.Reg.id < t.layout.bound.(Reg.cls_rank r.Reg.cls)
    && Bitset.mem b (slot t.layout r)
  | None -> false

let mem_live_in t label r = mem_bits t (bits_in t label) r
let mem_live_out t region r = mem_bits t (bits_out t region) r

let live_out_count t region cls =
  match bits_out t region with
  | None -> 0
  | Some b ->
    let k = Reg.cls_rank cls in
    let lo = t.layout.base.(k) in
    Bitset.count_range b lo (lo + t.layout.bound.(k))

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
    if j = n then (not (mem_live_out t r reg)) || covered n Pqs.tru
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
