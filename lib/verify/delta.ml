open Cpr_ir

type side = {
  prog : Prog.t;
  regions : Region.t list;
  succs : (string, string list) Hashtbl.t;
  exits : (string, unit) Hashtbl.t;
}

(* [b], a reachable region of [input], is [r] untouched. *)
let same_region (b : Region.t) (r : Region.t) =
  b.Region.ops == r.Region.ops && b.Region.fallthrough = r.Region.fallthrough

(* The side of [prog] and, given the [input] side, the regions of
   [prog] unchanged since then. *)
let walk ?input (prog : Prog.t) =
  let unchanged = Hashtbl.create 64 in
  (* An unchanged region has the successors it had in the input. *)
  let successors (r : Region.t) =
    match input with
    | Some i -> (
      match Hashtbl.find_opt i.succs r.Region.label with
      | Some ss -> (
        match Prog.find i.prog r.Region.label with
        | Some b when same_region b r ->
          Hashtbl.replace unchanged r.Region.label b;
          ss
        | _ -> Region.successors r)
      | None -> Region.successors r)
    | None -> Region.successors r
  in
  (* A label is reached once it has its successors. *)
  let succs = Hashtbl.create 17 in
  let rec go label =
    if (not (Hashtbl.mem succs label)) && not (Prog.is_exit prog label) then
      match Prog.find prog label with
      | None -> ()
      | Some r ->
        let ss = successors r in
        Hashtbl.replace succs label ss;
        List.iter go ss
  in
  go prog.Prog.entry;
  (* Filled in [succs]'s iteration order, so that iterating [exits]
     visits the labels in one fixed order. *)
  let exits = Hashtbl.create 7 in
  Hashtbl.iter
    (fun _ ss ->
      List.iter
        (fun succ ->
          if Prog.is_exit prog succ then Hashtbl.replace exits succ ())
        ss)
    succs;
  let regions =
    List.filter
      (fun (r : Region.t) -> Hashtbl.mem succs r.Region.label)
      (Prog.regions prog)
  in
  ({ prog; regions; succs; exits }, unchanged)

let side prog = fst (walk prog)

type t = {
  input : side;
  output : side;
  unchanged : (string, Region.t) Hashtbl.t;
  checked : (string, unit) Hashtbl.t;
}

let compute ~before after =
  let input = side before in
  let output, unchanged = walk ~input after in
  { input; output; unchanged; checked = Hashtbl.create 7 }

let unchanged t (r : Region.t) = Hashtbl.mem t.unchanged r.Region.label

let input_region t (r : Region.t) = Hashtbl.find_opt t.unchanged r.Region.label

let mark t label = Hashtbl.replace t.checked label ()
