open Cpr_ir

type operand =
  | Gpr of int
  | Pred of int
  | Imm of int
  | Bad of string

type opcode =
  | Cmpp of Op.cond * Op.action list * int list * operand * operand
  | Alu of Op.alu * int * operand * operand
  | Falu of Op.falu * int * operand * operand
  | Load of int * operand * operand
  | Store of operand * operand * operand
  | Pred_init of int list * bool list
  | Pbr of int * int
  | Branch of int
  | Malformed of string

type op = {
  guard : int;
  opcode : opcode;
  is_branch : bool;
  source : Op.t;
}

type target =
  | Region of int
  | Exit of string
  | Unknown of string

type region = {
  region : Region.t;
  ops : op array;
  fallthrough : target option;
}

type t = {
  prog : Prog.t;
  regions : region array;
  entry : target;
  targets : target array;
  labels : string array;
  gprs : int Reg.Tbl.t;
  preds : int Reg.Tbl.t;
  btrs : int Reg.Tbl.t;
  entries : int array;
  taken : int array array;
}

(* Dense numbering in order of first mention. *)
let number file r =
  match Reg.Tbl.find_opt file r with
  | Some i -> i
  | None ->
    let i = Reg.Tbl.length file in
    Reg.Tbl.add file r i;
    i

let decode (prog : Prog.t) =
  let gprs = Reg.Tbl.create 64
  and preds = Reg.Tbl.create 64
  and btrs = Reg.Tbl.create 8 in
  (* label -> (label index, target); the targets newest first *)
  let labels = Hashtbl.create 17 in
  let targets = ref [] in
  (* regions found but not yet decoded, newest first *)
  let pending = ref [] and n_regions = ref 0 in
  let resolve label =
    if Prog.is_exit prog label then Exit label
    else
      match Prog.find prog label with
      | None -> Unknown label
      | Some r ->
        pending := r :: !pending;
        incr n_regions;
        Region (!n_regions - 1)
  in
  let label l =
    match Hashtbl.find_opt labels l with
    | Some it -> it
    | None ->
      let it = (Hashtbl.length labels, resolve l) in
      Hashtbl.replace labels l it;
      targets := (l, snd it) :: !targets;
      it
  in
  let operand = function
    | Op.Reg r -> (
      match r.Reg.cls with
      | Reg.Gpr -> Gpr (number gprs r)
      | Reg.Pred -> Pred (number preds r)
      | Reg.Btr -> Bad "btr read as value")
    | Op.Imm i -> Imm i
    | Op.Lab _ -> Bad "label read as value"
  in
  let op (o : Op.t) =
    let guard =
      match o.Op.guard with Op.True -> -1 | Op.If p -> number preds p
    in
    let opcode =
      match (o.Op.opcode, o.Op.dests, o.Op.srcs) with
      | Op.Cmpp (c, a1, a2), ds, [ x; y ] ->
        Cmpp
          ( c,
            a1 :: Option.to_list a2,
            List.map (number preds) ds,
            operand x,
            operand y )
      | Op.Cmpp _, _, _ -> Malformed "malformed cmpp"
      | Op.Alu a, [ d ], [ x; y ] ->
        Alu (a, number gprs d, operand x, operand y)
      | Op.Alu _, _, _ -> Malformed "malformed alu"
      | Op.Falu f, [ d ], [ x; y ] ->
        Falu (f, number gprs d, operand x, operand y)
      | Op.Falu _, _, _ -> Malformed "malformed falu"
      | Op.Load, [ d ], [ base; off ] ->
        Load (number gprs d, operand base, operand off)
      | Op.Load, _, _ -> Malformed "malformed load"
      | Op.Store, _, [ base; off; v ] ->
        Store (operand base, operand off, operand v)
      | Op.Store, _, _ -> Malformed "malformed store"
      | Op.Pred_init bits, ds, _ ->
        Pred_init (List.map (number preds) ds, bits)
      | Op.Pbr, [ d ], Op.Lab l :: _ -> Pbr (number btrs d, fst (label l))
      | Op.Pbr, _, _ -> Malformed "malformed pbr"
      | Op.Branch, _, [ Op.Reg b ] -> Branch (number btrs b)
      | Op.Branch, _, _ -> Malformed "malformed branch"
    in
    { guard; opcode; is_branch = Op.is_branch o; source = o }
  in
  let entry = snd (label prog.Prog.entry) in
  (* Decode regions in discovery order until no label names a new one. *)
  let decoded = ref [] in
  let rec drain () =
    match List.rev !pending with
    | [] -> ()
    | found ->
      pending := [];
      List.iter
        (fun (r : Region.t) ->
          let ops = Array.of_list (List.map op r.Region.ops) in
          let fallthrough =
            Option.map (fun l -> snd (label l)) r.Region.fallthrough
          in
          decoded := { region = r; ops; fallthrough } :: !decoded)
        found;
      drain ()
  in
  drain ();
  let regions = Array.of_list (List.rev !decoded) in
  let targets = Array.of_list (List.rev !targets) in
  {
    prog;
    regions;
    entry;
    targets = Array.map snd targets;
    labels = Array.map fst targets;
    gprs;
    preds;
    btrs;
    entries = Array.make (Array.length regions) 0;
    taken = Array.map (fun r -> Array.make (Array.length r.ops) 0) regions;
  }

let commit_profile t =
  Array.iteri
    (fun i r ->
      let region = r.region in
      Region.add_entries region t.entries.(i);
      t.entries.(i) <- 0;
      let taken = t.taken.(i) in
      Array.iteri
        (fun j c ->
          if c > 0 then begin
            Region.add_taken region r.ops.(j).source.Op.id c;
            taken.(j) <- 0
          end)
        taken)
    t.regions
