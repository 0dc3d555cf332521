(* The round-robin solver [Cpr_analysis.Liveness] replaced: every call
   compiles every region to reverse-order transfer steps over packed
   bitsets, then sweeps all regions until a sweep changes nothing. *)

open Cpr_ir
module Bitset = Cpr_analysis.Bitset
module Liveness = Cpr_analysis.Liveness

(* One stride for all three classes: [cls_rank * stride + id]. *)
let slot ~stride (r : Reg.t) = (Reg.cls_rank r.Reg.cls * stride) + r.Reg.id

let of_slot ~stride ix =
  let id = ix mod stride in
  if ix < stride then Reg.gpr id
  else if ix < 2 * stride then Reg.pred id
  else Reg.btr id

(* One past the largest register id [op] mentions, or [b]. *)
let reg_bound b (op : Op.t) =
  let see b (r : Reg.t) = max b (r.Reg.id + 1) in
  let b =
    List.fold_left
      (fun b -> function Op.Reg r -> see b r | Op.Imm _ | Op.Lab _ -> b)
      b op.Op.srcs
  in
  let b = match op.Op.guard with Op.If g -> see b g | Op.True -> b in
  List.fold_left see b op.Op.dests

type step = {
  target : string option;
  kill_ix : int array;
  use_ix : int array;
}

type t = {
  prog : Prog.t;
  stride : int;
  table : (string, Bitset.t) Hashtbl.t;
}

let analyze (prog : Prog.t) =
  let regions = Prog.regions prog in
  let stride =
    List.fold_left
      (fun s (r : Region.t) -> List.fold_left reg_bound s r.Region.ops)
      (List.fold_left
         (fun s (r : Reg.t) -> max s (r.Reg.id + 1))
         1 prog.Prog.live_out)
      regions
  in
  let ix_of = slot ~stride in
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
                kill_ix = ix (Liveness.kills op);
                use_ix = ix (Op.uses op);
              })
        in
        (r.Region.label, r.Region.fallthrough, steps))
      regions
  in
  let n = 3 * stride in
  let boundary_bits = Bitset.create n in
  List.iter (fun r -> Bitset.set boundary_bits (ix_of r)) prog.Prog.live_out;
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
        Array.iter
          (fun s ->
            (match s.target with
            | Some l -> ignore (Bitset.union_into ~into:live (live_bits l))
            | None -> ());
            Array.iter (Bitset.unset live) s.kill_ix;
            Array.iter (Bitset.set live) s.use_ix)
          steps;
        if not (Bitset.equal live (live_bits label)) then begin
          Hashtbl.replace table label live;
          changed := true
        end)
      order
  done;
  { prog; stride; table }

let live_in t label =
  if Prog.is_exit t.prog label then Reg.Set.of_list t.prog.Prog.live_out
  else
    match Hashtbl.find_opt t.table label with
    | Some bits ->
      Bitset.fold
        (fun i s -> Reg.Set.add (of_slot ~stride:t.stride i) s)
        bits Reg.Set.empty
    | None -> Reg.Set.empty

let live_out_region t (r : Region.t) =
  match r.Region.fallthrough with
  | Some l -> live_in t l
  | None -> Reg.Set.of_list t.prog.Prog.live_out
