type cls =
  | Gpr
  | Pred
  | Btr

type t = {
  id : int;
  cls : cls;
}

let gpr id = { id; cls = Gpr }
let pred id = { id; cls = Pred }
let btr id = { id; cls = Btr }

let cls_rank = function Gpr -> 0 | Pred -> 1 | Btr -> 2
let compare a b =
  match Int.compare (cls_rank a.cls) (cls_rank b.cls) with
  | 0 -> Int.compare a.id b.id
  | c -> c

let equal a b = compare a b = 0
let hash a = (cls_rank a.cls * 1_000_003) + a.id
let is_pred r = r.cls = Pred

let to_string r =
  let prefix = match r.cls with Gpr -> "r" | Pred -> "p" | Btr -> "b" in
  prefix ^ string_of_int r.id

let pp ppf r = Format.pp_print_string ppf (to_string r)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
