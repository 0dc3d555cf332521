open Cpr_ir
module Obs = Cpr_obs.Obs

type kind = Raise | Corrupt

let kind_name = function
  | Raise -> "raise"
  | Corrupt -> "corrupt"

let all_kinds = [ Raise; Corrupt ]

exception Chaos_fault of string

type armed_point = { stage : string; kind : kind; mutable fired : bool }

let point : armed_point option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let arm ~stage kind =
  Domain.DLS.get point := Some { stage; kind; fired = false }

let disarm () = Domain.DLS.get point := None

let armed () =
  match !(Domain.DLS.get point) with
  | Some a -> Some (a.stage, a.kind)
  | None -> None

let c_injected = Obs.counter "chaos.injected"

(* Drop one op, preferring corruption classes the detection path
   provably flags: a store first (the translation validator's tv-store
   check demands every input store keep an instance, for every
   transform stage), then an op defining a predicate a later op in the
   region consumes (the dataflow lint errors on the use when no other
   definition reaches it).  Last resort is any op with a
   later-consumed def — a wrong-value miscompile that a
   coverage-limited per-region verifier may or may not see, kept so
   chaos still exercises that path on programs without predicates or
   stores. *)
let corrupt prog =
  let later_uses arr i d =
    let used = ref false in
    for j = i + 1 to Array.length arr - 1 do
      let later = arr.(j) in
      if
        (match Op.guard_reg later with
        | Some g -> Reg.equal g d
        | None -> false)
        || List.exists (Reg.equal d) (Op.uses later)
      then used := true
    done;
    !used
  in
  let candidate cls (r : Region.t) =
    let arr = Array.of_list r.Region.ops in
    let found = ref None in
    for i = Array.length arr - 1 downto 0 do
      let op = arr.(i) in
      let droppable = not (Op.is_branch op || Op.is_pbr op) in
      let hit =
        match cls with
        | `Pred ->
          droppable
          && List.exists
               (fun d -> Reg.is_pred d && later_uses arr i d)
               (Op.defs op)
        | `Store -> Op.is_store op
        | `Any -> droppable && List.exists (later_uses arr i) (Op.defs op)
      in
      if hit then found := Some i
    done;
    !found
  in
  let pick cls =
    List.find_map
      (fun r -> Option.map (fun i -> (r, i)) (candidate cls r))
      (Prog.regions prog)
  in
  match List.find_map pick [ `Store; `Pred; `Any ] with
  | Some (r, i) ->
    r.Region.ops <- List.filteri (fun k _ -> k <> i) r.Region.ops
  | None -> ()

let trip ~stage prog =
  match !(Domain.DLS.get point) with
  | Some a when a.stage = stage && ((not a.fired) || a.kind = Corrupt) ->
    let first = not a.fired in
    a.fired <- true;
    if first then Obs.incr c_injected;
    (match a.kind with
    | Raise -> raise (Chaos_fault ("injected exception at stage " ^ stage))
    | Corrupt -> corrupt prog)
  | _ -> ()
