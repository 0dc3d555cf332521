open Cpr_ir
open Cpr_obs

let c_queries = Obs.counter "pressure.queries"
let c_reg_visits = Obs.counter "pressure.reg_visits"

(* The walks' one-by-one register visits, counted by the set: when
   telemetry is off, one atomic load and no [cardinal]. *)
let count_visits s =
  if Obs.enabled () then Obs.add c_reg_visits (Reg.Set.cardinal s)

type class_stat = {
  cls : Reg.cls;
  maxlive : int;
  maxlive_blind : int;
}

type t = {
  n_points : int;
  per_point : int array array;
  per_point_blind : int array array;
  stats : class_stat array;
}

let classes = [| Reg.Gpr; Reg.Pred; Reg.Btr |]

let stat t cls = t.stats.(Reg.cls_rank cls)
let maxlive t cls = (stat t cls).maxlive
let maxlive_blind t cls = (stat t cls).maxlive_blind

(* Condition, once control reaches op [u], that [r] holds a value some
   definition before [u] wrote: the OR of their write conditions
   ([Pred_env.write_cond]; Un/Uc destinations write even under a false
   guard, so they pin it to [tru]).  [defs] lists [r]'s definition
   sites. *)
let written env defs r u =
  List.fold_left
    (fun acc d ->
      if d < u then Pqs.or_ acc (Pred_env.write_cond env d r) else acc)
    Pqs.fls defs

(* Greedy slot packing: registers whose occupancy conditions are pairwise
   disjoint share one physical slot (Johnson & Schlansker-style
   predicate-cognizant counting).  A register joins the first slot whose
   accumulated condition it is provably disjoint from. *)
let place slots c =
  let rec go = function
    | [] -> [ c ]
    | s :: rest ->
      Obs.incr c_queries;
      if Pqs.disjoint s c then Pqs.or_ s c :: rest else s :: go rest
  in
  go slots

(* Count one program point / cycle: [live_per_class] holds, per class
   rank, the occupancy condition of each live register in ascending
   [Reg.compare] order.  A [fls] register needs no slot.  A [tru]
   register takes a slot of its own that nothing can join later
   ([disjoint tru c] holds only for [c = fls]), and it cannot join an
   earlier slot either; so the packed count is the number of [tru]
   registers plus the packing of the rest, and [tru] ones are counted
   without a query. *)
let count_point live_per_class =
  let blind = Array.map List.length live_per_class in
  let pa =
    Array.map
      (fun conds ->
        let n_tru, slots =
          List.fold_left
            (fun (n_tru, slots) c ->
              if Pqs.is_const_false c then (n_tru, slots)
              else if Pqs.is_const_true c then (n_tru + 1, slots)
              else (n_tru, place slots c))
            (0, []) conds
        in
        n_tru + List.length slots)
      live_per_class
  in
  (blind, pa)

let finish ~n_points ~per_point ~per_point_blind =
  let top = Array.fold_left max 0 in
  let stats =
    Array.mapi
      (fun k cls ->
        {
          cls;
          maxlive = top per_point.(k);
          maxlive_blind = top per_point_blind.(k);
        })
      classes
  in
  { n_points; per_point; per_point_blind; stats }

(* Per class rank, the conditions of [set]'s registers in ascending
   [Reg.compare] order. *)
let by_class ~cond set =
  let per = Array.make 3 [] in
  Seq.iter
    (fun (r : Reg.t) ->
      let k = Reg.cls_rank r.Reg.cls in
      per.(k) <- cond r :: per.(k))
    (Reg.Set.to_rev_seq set);
  per

(* Per register, in program order: definition sites and kill sites. *)
type sites = {
  defs : int list Reg.Tbl.t;
  kills : int list Reg.Tbl.t;
}

let sites_of ops =
  let defs = Reg.Tbl.create 16 and kills = Reg.Tbl.create 16 in
  let push tbl r i =
    Reg.Tbl.replace tbl r
      (i :: Option.value ~default:[] (Reg.Tbl.find_opt tbl r))
  in
  Array.iteri
    (fun i op ->
      List.iter (fun d -> push defs d i) op.Op.dests;
      List.iter (fun d -> push kills d i) (Liveness.kills op))
    ops;
  { defs; kills }

let sites tbl r = Option.value ~default:[] (Reg.Tbl.find_opt tbl r)

(* Does a register's region-entry value matter?  The blind liveness
   transfer keeps guarded defs alive all the way back to entry (a guarded
   def does not kill), so [live_in] grossly overstates the set of entry
   values anyone can read.  The entry value of [r] is consumable only at
   a demand site with no kill of [r] before it whose execution condition
   is not covered by the write conditions of the preceding defs — the
   Johnson & Schlansker covering test.  In the canonical CPR shape (def
   under [p], use under [p]) the def covers the use, the entry value is
   dead, and the refinement below is what lets the two arms of a cmpp
   share their slots.  A register the region never writes has no kill
   and [written] = [fls], and [implies guard fls] holds exactly when the
   guard is const-false, so it is decided without a query.  The
   fall-through demand (guard [tru]) is made for the written registers
   live out only, in [Reg.compare] order — the order the whole live-out
   set was once walked in, so the queries come in the same sequence; an
   unwritten live-out register is needed by that demand alone, and
   [needed] answers for it from the live-out bits. *)
let entry_matters env liveness (region : Region.t) st ~writes live_at =
  let ops = Pred_env.ops env in
  let n = Array.length ops in
  let needed = Reg.Tbl.create 16 in
  let demand r ~u ~guard =
    if not (Reg.Tbl.mem needed r) then
      match Reg.Tbl.find_opt st.defs r with
      | None ->
        if not (Pqs.is_const_false guard) then Reg.Tbl.replace needed r ()
      | Some defs ->
        let killed = List.exists (fun k -> k < u) (sites st.kills r) in
        if not killed then begin
          Obs.incr c_queries;
          if not (Pqs.implies guard (written env defs r u)) then
            Reg.Tbl.replace needed r ()
        end
  in
  Array.iteri
    (fun i op ->
      let g = Pred_env.guard_expr env i in
      (* src operands are read only when the guard holds; the guard
         register itself and accumulator destinations are read
         unconditionally *)
      List.iter
        (function
          | Op.Reg r -> demand r ~u:i ~guard:g | Op.Imm _ | Op.Lab _ -> ())
        op.Op.srcs;
      Option.iter (fun p -> demand p ~u:i ~guard:Pqs.tru) (Op.guard_reg op);
      List.iter (fun r -> demand r ~u:i ~guard:Pqs.tru) (Op.accumulator_dests op);
      if Op.is_branch op then begin
        count_visits live_at.(i);
        Reg.Set.iter (fun r -> demand r ~u:i ~guard:g) live_at.(i)
      end)
    ops;
  Obs.add c_reg_visits (Array.length writes);
  Array.iter
    (fun r ->
      if Liveness.mem_live_out liveness region r then
        demand r ~u:n ~guard:Pqs.tru)
    writes;
  fun r ->
    Reg.Tbl.mem needed r
    || ((not (Reg.Tbl.mem st.defs r))
       && Liveness.mem_live_out liveness region r)

(* What both counts know of a region before walking it: the predicate
   environment, the def/kill sites, the registers the region writes
   (ascending [Reg.compare]), the live set at each branch's target (by op
   index), whether a register is occupied from entry (live in and its
   entry value needed, see {!entry_matters}), and per class rank the
   number of registers live through the region (live out, never
   written). *)
type context = {
  env : Pred_env.t;
  st : sites;
  writes : Reg.t array;
  live_at : Reg.Set.t array;
  entry_occupied : Reg.t -> bool;
  through : int array;
}

let context ?env liveness (region : Region.t) =
  let env =
    match env with Some e -> e | None -> Pred_env.analyze region
  in
  let ops = Pred_env.ops env in
  let st = sites_of ops in
  let writes =
    Reg.Tbl.fold (fun r _ acc -> r :: acc) st.defs []
    |> List.sort Reg.compare |> Array.of_list
  in
  let live_at = Liveness.live_at_branches liveness region ops in
  let label = region.Region.label in
  let needed = entry_matters env liveness region st ~writes live_at in
  let through =
    Array.map (fun cls -> Liveness.live_out_count liveness region cls) classes
  in
  Array.iter
    (fun (r : Reg.t) ->
      if Liveness.mem_live_out liveness region r then begin
        let k = Reg.cls_rank r.Reg.cls in
        through.(k) <- through.(k) - 1
      end)
    writes;
  {
    env;
    st;
    writes;
    live_at;
    entry_occupied =
      (fun r -> Liveness.mem_live_in liveness label r && needed r);
    through;
  }

(* Registers the region never writes.  Such a register is never killed,
   so it is live over one prefix [0, last] of the points (or cycles),
   under one constant occupancy condition: [tru] when it is occupied from
   entry, else [fls].  Neither constant takes part in slot packing (see
   {!count_point}), so these registers are counted per class with
   difference arrays instead of entering every point's list: the
   registers live through a cold region grow with the program, the
   region's own registers do not.

   Those live out of the region are not even visited one by one.  Never
   killed, such a register is live in; its fall-through demand has guard
   [tru] and no def before it, so its entry value is needed; so it is
   occupied from entry, under [tru], over every point (or cycle).  Per
   class they are [through] of the context — the region's live-out count
   minus its written registers live out — added in one step with [last]
   the final point.  The walks visit one by one only the registers the
   region writes and the demanded unwritten ones that are not live out
   (the live sets at branch targets stay small). *)
type prefixes = {
  blind : int array array;  (* per class rank, one delta per point *)
  occupied : int array array;
}

let prefixes n_points =
  let deltas () = Array.init 3 (fun _ -> Array.make (n_points + 1) 0) in
  { blind = deltas (); occupied = deltas () }

let add_prefix_count p k ~count ~last ~occupied =
  let bump a =
    a.(0) <- a.(0) + count;
    a.(last + 1) <- a.(last + 1) - count
  in
  bump p.blind.(k);
  if occupied then bump p.occupied.(k)

let add_prefix p (r : Reg.t) ~last ~occupied =
  add_prefix_count p (Reg.cls_rank r.Reg.cls) ~count:1 ~last ~occupied

(* The registers live through the region, occupied over [0, last]. *)
let add_through p cx ~last =
  Array.iteri
    (fun k count -> add_prefix_count p k ~count ~last ~occupied:true)
    cx.through

let add_prefixes p ~per_point ~per_point_blind =
  for k = 0 to 2 do
    let blind = ref 0 and occupied = ref 0 in
    for i = 0 to Array.length per_point.(k) - 1 do
      blind := !blind + p.blind.(k).(i);
      occupied := !occupied + p.occupied.(k).(i);
      per_point_blind.(k).(i) <- per_point_blind.(k).(i) + !blind;
      per_point.(k).(i) <- per_point.(k).(i) + !occupied
    done
  done

(* Occupancy conditions accumulate forward: once a register has been
   written under condition [c], it may hold a needed value whenever [c]
   held; an unconditional write ([write_cond] = tru) pins it to tru.
   Registers occupied from entry are tru until then. *)
let make_cond_env cx =
  let tbl = Reg.Tbl.create 16 in
  let get r =
    match Reg.Tbl.find_opt tbl r with
    | Some c -> c
    | None -> if cx.entry_occupied r then Pqs.tru else Pqs.fls
  in
  let record i =
    List.iter
      (fun d ->
        Reg.Tbl.replace tbl d
          (Pqs.or_ (get d) (Pred_env.write_cond cx.env i d)))
      (Pred_env.ops cx.env).(i).Op.dests
  in
  (get, record)

let sweep ?cx liveness (region : Region.t) =
  let cx =
    match cx with Some cx -> cx | None -> context liveness region
  in
  let ops = Pred_env.ops cx.env in
  let n = Array.length ops in
  let pre = prefixes (n + 1) in
  add_through pre cx ~last:n;
  (* Walking backward, the first point where an unwritten register is
     live is the last point of its prefix. *)
  let seen = Reg.Tbl.create 16 in
  let add_live point r s =
    if Reg.Tbl.mem cx.st.defs r then Reg.Set.add r s
    else if Liveness.mem_live_out liveness region r then s
    else begin
      if not (Reg.Tbl.mem seen r) then begin
        Reg.Tbl.add seen r ();
        add_prefix pre r ~last:point ~occupied:(cx.entry_occupied r)
      end;
      s
    end
  in
  (* Backward pass: blind live set, of the registers the region writes,
     at each of the n+1 program points (point i = just before op i;
     point n = region exit), using the same transfer as [Liveness] —
     guarded defs do not kill, branches merge their target's live-in. *)
  let live = Array.make (n + 1) Reg.Set.empty in
  Obs.add c_reg_visits (Array.length cx.writes);
  live.(n) <-
    Array.fold_left
      (fun s r ->
        if Liveness.mem_live_out liveness region r then Reg.Set.add r s
        else s)
      Reg.Set.empty cx.writes;
  for i = n - 1 downto 0 do
    let op = ops.(i) in
    let s = live.(i + 1) in
    let s =
      if Op.is_branch op then begin
        count_visits cx.live_at.(i);
        Reg.Set.fold (add_live i) cx.live_at.(i) s
      end
      else s
    in
    let s = List.fold_left (fun s d -> Reg.Set.remove d s) s (Liveness.kills op) in
    let s = List.fold_left (fun s u -> add_live i u s) s (Op.uses op) in
    live.(i) <- s
  done;
  let get_cond, record = make_cond_env cx in
  let per_point = Array.init 3 (fun _ -> Array.make (n + 1) 0) in
  let per_point_blind = Array.init 3 (fun _ -> Array.make (n + 1) 0) in
  for i = 0 to n do
    let blind, pa = count_point (by_class ~cond:get_cond live.(i)) in
    Array.iteri (fun k c -> per_point_blind.(k).(i) <- c) blind;
    Array.iteri (fun k c -> per_point.(k).(i) <- c) pa;
    if i < n then record i
  done;
  add_prefixes pre ~per_point ~per_point_blind;
  finish ~n_points:(n + 1) ~per_point ~per_point_blind

(* ------------------------------------------------------------------ *)
(* Exact per-cycle counts over a schedule                              *)

(* Each demand for a register value (a use, a taken exit whose target
   needs it, or region fall-through) pins the register from the cycle of
   the last unconditional write before it (region entry if none) to the
   demand's cycle.  Guarded writes in between only widen the occupancy
   condition, not the interval: if no guard held, an older value (or the
   entry value) is still the one being kept alive. *)
let of_schedule ?cx liveness (region : Region.t) ~(ops : Op.t array)
    ~(cycle : int array) ~length =
  let n = Array.length ops in
  let cx =
    match cx with Some cx -> cx | None -> context liveness region
  in
  let defs = cx.st.defs and kills = cx.st.kills in
  (* Occupancy condition at a demand site: tru when the entry value can
     still reach it, else the disjunction of the write conditions of the
     preceding definitions. *)
  let cond_at r u =
    let has_kill_before = List.exists (fun k -> k < u) (sites kills r) in
    if (not has_kill_before) && cx.entry_occupied r then Pqs.tru
    else written cx.env (sites defs r) r u
  in
  let start_of r u =
    List.fold_left
      (fun acc k -> if k < u then max acc cycle.(k) else acc)
      0 (sites kills r)
  in
  (* Occupancy intervals per register: [(lo, hi, u)] for a demand at op
     [u] (or [n], the fall-through).  A register the region never writes
     keeps only its last demand cycle: its prefix ends there; one that is
     also live out is counted in [cx.through]. *)
  let ivals = Reg.Tbl.create 16 in
  let unwritten_last = Reg.Tbl.create 16 in
  let add_demand r ~end_cycle ~u =
    if Reg.Tbl.mem defs r then begin
      let lo = start_of r u in
      let iv = (min lo end_cycle, max lo end_cycle, u) in
      Reg.Tbl.replace ivals r
        (iv :: Option.value ~default:[] (Reg.Tbl.find_opt ivals r))
    end
    else if not (Liveness.mem_live_out liveness region r) then
      match Reg.Tbl.find_opt unwritten_last r with
      | Some hi when hi >= end_cycle -> ()
      | _ -> Reg.Tbl.replace unwritten_last r end_cycle
  in
  Array.iteri
    (fun i op ->
      List.iter (fun r -> add_demand r ~end_cycle:cycle.(i) ~u:i) (Op.uses op);
      if Op.is_branch op then begin
        count_visits cx.live_at.(i);
        Reg.Set.iter
          (fun r -> add_demand r ~end_cycle:cycle.(i) ~u:i)
          cx.live_at.(i)
      end)
    ops;
  Obs.add c_reg_visits (Array.length cx.writes);
  Array.iter
    (fun r ->
      if Liveness.mem_live_out liveness region r then
        add_demand r ~end_cycle:(max 0 (length - 1)) ~u:n)
    cx.writes;
  let n_cycles = max length 0 in
  let pre = prefixes n_cycles in
  if n_cycles > 0 then begin
    add_through pre cx ~last:(n_cycles - 1);
    Reg.Tbl.iter
      (fun r hi ->
        add_prefix pre r ~last:(min (n_cycles - 1) hi)
          ~occupied:(cx.entry_occupied r))
      unwritten_last
  end;
  (* Each cycle's live registers, as per-class condition lists in
     ascending [Reg.compare] order: registers are visited in descending
     order and prepended.  Each register is walked over its own
     [min lo, max hi] span only, so the work is the sum of the interval
     lengths, not cycles x registers. *)
  let live = Array.init n_cycles (fun _ -> Array.make 3 []) in
  let walk (r : Reg.t) ivs =
    let lo0 = List.fold_left (fun m (lo, _, _) -> min m lo) max_int ivs in
    let hi0 =
      min (n_cycles - 1) (List.fold_left (fun m (_, hi, _) -> max m hi) 0 ivs)
    in
    if lo0 <= hi0 then begin
      let conds = Array.make (hi0 - lo0 + 1) None in
      List.iter
        (fun (lo, hi, u) ->
          if lo <= hi0 then begin
            let c = cond_at r u in
            for cy = lo to min hi hi0 do
              conds.(cy - lo0) <-
                Some
                  (match conds.(cy - lo0) with
                  | None -> c
                  | Some acc -> Pqs.or_ acc c)
            done
          end)
        ivs;
      let k = Reg.cls_rank r.Reg.cls in
      Array.iteri
        (fun i -> function
          | Some c -> live.(lo0 + i).(k) <- c :: live.(lo0 + i).(k)
          | None -> ())
        conds
    end
  in
  Reg.Tbl.fold (fun r ivs acc -> (r, ivs) :: acc) ivals []
  |> List.sort (fun (a, _) (b, _) -> Reg.compare b a)
  |> List.iter (fun (r, ivs) -> walk r ivs);
  let per_point = Array.init 3 (fun _ -> Array.make n_cycles 0) in
  let per_point_blind = Array.init 3 (fun _ -> Array.make n_cycles 0) in
  Array.iteri
    (fun c live_per_class ->
      let blind, pa = count_point live_per_class in
      Array.iteri (fun k v -> per_point_blind.(k).(c) <- v) blind;
      Array.iteri (fun k v -> per_point.(k).(c) <- v) pa)
    live;
  add_prefixes pre ~per_point ~per_point_blind;
  finish ~n_points:n_cycles ~per_point ~per_point_blind
