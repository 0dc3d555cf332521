open Cpr_ir

type base =
  | Entry_base of Reg.t
  | Const_base
  | Segment of Reg.t * int
  | Opaque of int

type addr = {
  base : base;
  off : int;
}

type t = {
  noalias : Reg.Set.t;
  addrs : addr option array;
}

let base_equal a b =
  match (a, b) with
  | Entry_base r, Entry_base r' -> Reg.equal r r'
  | Const_base, Const_base -> true
  | Segment (r, i), Segment (r', j) -> Reg.equal r r' && i = j
  | Opaque i, Opaque j -> i = j
  | (Entry_base _ | Const_base | Segment _ | Opaque _), _ -> false

let root = function
  | Entry_base r | Segment (r, _) -> Some r
  | Const_base | Opaque _ -> None

(* Def-site indices per register, descending, computed in one pass so
   that [chase] resolves "last def of [r] before [idx]" by walking a
   short per-register list instead of rescanning the whole op prefix
   (which made address resolution O(ops^2) per region).  The table holds
   only the registers the region defines. *)
let def_sites ops =
  let sites : int list Reg.Tbl.t = Reg.Tbl.create 32 in
  Array.iteri
    (fun k op ->
      List.iter
        (fun d ->
          Reg.Tbl.replace sites d
            (k :: Option.value ~default:[] (Reg.Tbl.find_opt sites d)))
        (Op.defs op))
    ops;
  sites

(* Index of the last def of [r] strictly before [idx]. *)
let last_def sites (r : Reg.t) idx =
  match Reg.Tbl.find_opt sites r with
  | None -> None
  | Some l -> List.find_opt (fun k -> k < idx) l

let rec chase ops sites r idx fuel =
  if fuel = 0 then None
  else
    match last_def sites r idx with
    | None -> Some { base = Entry_base r; off = 0 }
    | Some k -> (
      let op = ops.(k) in
      let opaque = Some { base = Opaque op.Op.id; off = 0 } in
      if op.Op.guard <> Op.True then opaque
      else
        match (op.Op.opcode, op.Op.srcs) with
        | Op.Alu Op.Add, [ Op.Reg a; Op.Imm c ] | Op.Alu Op.Add, [ Op.Imm c; Op.Reg a ]
          -> (
          match chase ops sites a k (fuel - 1) with
          | Some addr -> Some { addr with off = addr.off + c }
          | None -> None)
        | Op.Alu Op.Add, [ Op.Reg a; Op.Reg b ] -> (
          (* base + computed index: rooted at whichever side resolves to a
             region-entry register *)
          match (chase ops sites a k (fuel - 1), chase ops sites b k (fuel - 1))
          with
          | Some { base = Entry_base ra; off }, _ ->
            Some { base = Segment (ra, op.Op.id); off }
          | _, Some { base = Entry_base rb; off } ->
            Some { base = Segment (rb, op.Op.id); off }
          | _ -> opaque)
        | Op.Alu Op.Sub, [ Op.Reg a; Op.Imm c ] -> (
          match chase ops sites a k (fuel - 1) with
          | Some addr -> Some { addr with off = addr.off - c }
          | None -> None)
        | Op.Alu Op.Mov, [ _; Op.Reg a ] -> chase ops sites a k (fuel - 1)
        | Op.Alu Op.Mov, [ _; Op.Imm c ] -> Some { base = Const_base; off = c }
        | _ -> opaque)

let addr_of_op ops sites idx =
  let op = ops.(idx) in
  match (op.Op.opcode, op.Op.srcs) with
  | Op.Load, [ Op.Reg base; Op.Imm off ]
  | Op.Store, [ Op.Reg base; Op.Imm off; _ ] -> (
    match chase ops sites base idx 32 with
    | Some a -> Some { a with off = a.off + off }
    | None -> None)
  | _ -> None

let analyze (prog : Prog.t) (r : Region.t) =
  let ops = Array.of_list r.Region.ops in
  let sites = def_sites ops in
  {
    noalias = Reg.Set.of_list prog.Prog.noalias_bases;
    addrs = Array.init (Array.length ops) (addr_of_op ops sites);
  }

let addr_of t idx = t.addrs.(idx)

let independent t i j =
  match (t.addrs.(i), t.addrs.(j)) with
  | Some a, Some b ->
    if base_equal a.base b.base then a.off <> b.off
    else (
      match (root a.base, root b.base) with
      | Some ra, Some rb ->
        (not (Reg.equal ra rb))
        && Reg.Set.mem ra t.noalias && Reg.Set.mem rb t.noalias
      | _ -> false)
  | _ -> false
