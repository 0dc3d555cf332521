(* The per-cycle rescan that [Cpr_analysis.Pressure.of_schedule]
   replaced, kept as its oracle: at every cycle it scans every register's
   intervals, then sorts the live registers and greedily packs all of
   them, [tru] ones included.  Beside it, the program-point sweep with
   every live register in every point's list, the registers the region
   never writes included. *)

open Cpr_ir
module Pqs = Cpr_analysis.Pqs
module Pred_env = Cpr_analysis.Pred_env
module Liveness = Cpr_analysis.Liveness
module Pressure = Cpr_analysis.Pressure

let classes = [| Reg.Gpr; Reg.Pred; Reg.Btr |]

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
   accumulated condition it is provably disjoint from; a [tru] condition
   can never share, so it skips the queries entirely. *)
let place slots c =
  if Pqs.is_const_true c then c :: slots
  else
    let rec go = function
      | [] -> [ c ]
      | s :: rest ->
        if Pqs.disjoint s c then Pqs.or_ s c :: rest else s :: go rest
    in
    go slots

(* Count one program point / cycle: [live] is the blind live list per
   class rank; [cond] gives each register's occupancy condition. *)
let count_point ~cond live_per_class =
  let blind = Array.map List.length live_per_class in
  let pa =
    Array.map
      (fun regs ->
        let slots =
          List.fold_left
            (fun slots r ->
              let c = cond r in
              if Pqs.is_const_false c then slots else place slots c)
            []
            (List.sort Reg.compare regs)
        in
        List.length slots)
      live_per_class
  in
  (blind, pa)

let finish ~n_points ~per_point ~per_point_blind =
  let top = Array.fold_left max 0 in
  let stats =
    Array.mapi
      (fun k cls ->
        {
          Pressure.cls;
          maxlive = top per_point.(k);
          maxlive_blind = top per_point_blind.(k);
        })
      classes
  in
  { Pressure.n_points; per_point; per_point_blind; stats }

(* Does a register's region-entry value matter?  The blind liveness
   transfer keeps guarded defs alive all the way back to entry (a guarded
   def does not kill), so [live_in] grossly overstates the set of entry
   values anyone can read.  The entry value of [r] is consumable only at
   a demand site with no kill of [r] before it whose execution condition
   is not covered by the write conditions of the preceding defs — the
   Johnson & Schlansker covering test.  In the canonical CPR shape (def
   under [p], use under [p]) the def covers the use, the entry value is
   dead, and the refinement below is what lets the two arms of a cmpp
   share their slots. *)
let entry_matters env liveness (region : Region.t) =
  let ops = Pred_env.ops env in
  let n = Array.length ops in
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
  let sites tbl r = Option.value ~default:[] (Reg.Tbl.find_opt tbl r) in
  let needed = Reg.Tbl.create 16 in
  let demand r ~u ~guard =
    if not (Reg.Tbl.mem needed r) then begin
      let killed = List.exists (fun k -> k < u) (sites kills r) in
      if not killed then begin
        if not (Pqs.implies guard (written env (sites defs r) r u)) then
          Reg.Tbl.replace needed r ()
      end
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
      if Op.is_branch op then
        Reg.Set.iter
          (fun r -> demand r ~u:i ~guard:g)
          (Target_reference.live_at_target liveness region op))
    ops;
  Reg.Set.iter
    (fun r -> demand r ~u:n ~guard:Pqs.tru)
    (Liveness.live_out_region liveness region);
  fun r -> Reg.Tbl.mem needed r

(* Backward pass: blind live set at each of the n+1 program points
   (point i = just before op i; point n = region exit), with the
   [Liveness] transfer; then a forward pass accumulating each register's
   occupancy condition from the write conditions of its defs. *)
let sweep liveness (region : Region.t) =
  let ops = Array.of_list region.Region.ops in
  let n = Array.length ops in
  let live = Array.make (n + 1) Reg.Set.empty in
  live.(n) <- Liveness.live_out_region liveness region;
  for i = n - 1 downto 0 do
    let op = ops.(i) in
    let s = live.(i + 1) in
    let s =
      if Op.is_branch op then
        Reg.Set.union s (Target_reference.live_at_target liveness region op)
      else s
    in
    let s =
      List.fold_left (fun s d -> Reg.Set.remove d s) s (Liveness.kills op)
    in
    live.(i) <- List.fold_left (fun s u -> Reg.Set.add u s) s (Op.uses op)
  done;
  let env = Pred_env.analyze region in
  let entry_live = Liveness.live_in liveness region.Region.label in
  let entry_needed = entry_matters env liveness region in
  let conds = Reg.Tbl.create 16 in
  let cond r =
    match Reg.Tbl.find_opt conds r with
    | Some c -> c
    | None ->
      if Reg.Set.mem r entry_live && entry_needed r then Pqs.tru else Pqs.fls
  in
  let per_point = Array.init 3 (fun _ -> Array.make (n + 1) 0) in
  let per_point_blind = Array.init 3 (fun _ -> Array.make (n + 1) 0) in
  for i = 0 to n do
    let live_per_class = Array.make 3 [] in
    Reg.Set.iter
      (fun (r : Reg.t) ->
        let k = Reg.cls_rank r.Reg.cls in
        live_per_class.(k) <- r :: live_per_class.(k))
      live.(i);
    let blind, pa = count_point ~cond live_per_class in
    Array.iteri (fun k v -> per_point_blind.(k).(i) <- v) blind;
    Array.iteri (fun k v -> per_point.(k).(i) <- v) pa;
    if i < n then
      List.iter
        (fun d ->
          Reg.Tbl.replace conds d
            (Pqs.or_ (cond d) (Pred_env.write_cond env i d)))
        ops.(i).Op.dests
  done;
  finish ~n_points:(n + 1) ~per_point ~per_point_blind

(* Each demand for a register value (a use, a taken exit whose target
   needs it, or region fall-through) pins the register from the cycle of
   the last unconditional write before it (region entry if none) to the
   demand's cycle.  Guarded writes in between only widen the occupancy
   condition, not the interval: if no guard held, an older value (or the
   entry value) is still the one being kept alive. *)
let of_schedule liveness (region : Region.t) ~(ops : Op.t array)
    ~(cycle : int array) ~length =
  let n = Array.length ops in
  let env = Pred_env.analyze region in
  let entry_live = Liveness.live_in liveness region.Region.label in
  let entry_needed = entry_matters env liveness region in
  let live_out = Liveness.live_out_region liveness region in
  (* Per register, in program order: definition sites and kill sites. *)
  let defs = Reg.Tbl.create 16 and kills = Reg.Tbl.create 16 in
  let push tbl r i =
    Reg.Tbl.replace tbl r (i :: (Option.value ~default:[] (Reg.Tbl.find_opt tbl r)))
  in
  Array.iteri
    (fun i op ->
      List.iter (fun d -> push defs d i) op.Op.dests;
      List.iter (fun d -> push kills d i) (Liveness.kills op))
    ops;
  (* Occupancy condition at a demand site: tru when the entry value can
     still reach it, else the disjunction of the write conditions of the
     preceding definitions. *)
  let cond_at r u =
    let has_kill_before =
      match Reg.Tbl.find_opt kills r with
      | Some l -> List.exists (fun k -> k < u) l
      | None -> false
    in
    if (not has_kill_before) && Reg.Set.mem r entry_live && entry_needed r
    then Pqs.tru
    else
      written env (Option.value ~default:[] (Reg.Tbl.find_opt defs r)) r u
  in
  let start_of r u =
    match Reg.Tbl.find_opt kills r with
    | None -> 0
    | Some l ->
      List.fold_left
        (fun acc k -> if k < u then max acc cycle.(k) else acc)
        0 l
  in
  (* Collect occupancy intervals (lo, hi, cond) per register. *)
  let ivals : (Reg.t * (int * int * Pqs.t Lazy.t)) list ref = ref [] in
  let add_demand r ~end_cycle ~u =
    let lo = start_of r u in
    let lo, hi = (min lo end_cycle, max lo end_cycle) in
    ivals := (r, (lo, hi, lazy (cond_at r u))) :: !ivals
  in
  Array.iteri
    (fun i op ->
      List.iter (fun r -> add_demand r ~end_cycle:cycle.(i) ~u:i) (Op.uses op);
      if Op.is_branch op then
        Reg.Set.iter
          (fun r -> add_demand r ~end_cycle:cycle.(i) ~u:i)
          (Target_reference.live_at_target liveness region op))
    ops;
  Reg.Set.iter
    (fun r -> add_demand r ~end_cycle:(max 0 (length - 1)) ~u:n)
    live_out;
  let n_cycles = max length 0 in
  let per_point = Array.init 3 (fun _ -> Array.make n_cycles 0) in
  let per_point_blind = Array.init 3 (fun _ -> Array.make n_cycles 0) in
  (* Group intervals per register once, then count each cycle. *)
  let by_reg = Reg.Tbl.create 16 in
  List.iter
    (fun (r, iv) ->
      Reg.Tbl.replace by_reg r
        (iv :: (Option.value ~default:[] (Reg.Tbl.find_opt by_reg r))))
    !ivals;
  for c = 0 to n_cycles - 1 do
    let live_per_class = Array.make 3 [] in
    let conds = Reg.Tbl.create 16 in
    Reg.Tbl.iter
      (fun r ivs ->
        let covering = List.filter (fun (lo, hi, _) -> lo <= c && c <= hi) ivs in
        if covering <> [] then begin
          let k = Reg.cls_rank r.Reg.cls in
          live_per_class.(k) <- r :: live_per_class.(k);
          Reg.Tbl.replace conds r
            (List.fold_left
               (fun acc (_, _, cond) -> Pqs.or_ acc (Lazy.force cond))
               Pqs.fls covering)
        end)
      by_reg;
    let cond r =
      match Reg.Tbl.find_opt conds r with Some c -> c | None -> Pqs.tru
    in
    let blind, pa = count_point ~cond live_per_class in
    Array.iteri (fun k v -> per_point_blind.(k).(c) <- v) blind;
    Array.iteri (fun k v -> per_point.(k).(c) <- v) pa
  done;
  finish ~n_points:n_cycles ~per_point ~per_point_blind
