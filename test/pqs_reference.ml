open Cpr_ir

type key = Cpr_analysis.Pqs.key =
  | Cond of int
  | Entry of int

type lit = {
  key : key;
  pos : bool;
}

(* A conjunction is a list of literals sorted by key with unique keys; a
   contradictory conjunction is represented by its absence.  The whole
   expression is a disjunction of conjunctions; [Dnf []] is false and
   [Dnf [ [] ]] is true. *)
type t =
  | Unknown
  | Dnf of lit list list

let max_conjs = 256
let key_compare : key -> key -> int = compare
let tru = Dnf [ [] ]
let fls = Dnf []
let unknown = Unknown
let const b = if b then tru else fls
let cond_lit id = Dnf [ [ { key = Cond id; pos = true } ] ]
let entry_lit (r : Reg.t) = Dnf [ [ { key = Entry r.Reg.id; pos = true } ] ]

(* Merge two sorted conjunctions; [None] on contradiction. *)
let conj_and c1 c2 =
  let rec go acc c1 c2 =
    match (c1, c2) with
    | [], rest | rest, [] -> Some (List.rev_append acc rest)
    | l1 :: t1, l2 :: t2 -> (
      match key_compare l1.key l2.key with
      | 0 -> if l1.pos = l2.pos then go (l1 :: acc) t1 t2 else None
      | c when c < 0 -> go (l1 :: acc) t1 c2
      | _ -> go (l2 :: acc) c1 t2)
  in
  go [] c1 c2

let conj_subsumes small big =
  (* [small] implies [big] as conjunctions when big ⊆ small *)
  List.for_all (fun l -> List.exists (fun l' -> l = l') small) big

let add_conj conjs c =
  if List.exists (fun c' -> conj_subsumes c c') conjs then conjs
  else c :: List.filter (fun c' -> not (conj_subsumes c' c)) conjs

let dnf cs = if List.length cs > max_conjs then Unknown else Dnf cs

(* Constant operands dominate in practice (unguarded ops, straight-line
   prefixes), so short-circuit them before touching the DNF machinery:
   the general paths below re-run subsumption over every conjunction. *)
let or_ a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Dnf [], x | x, Dnf [] -> x
  | Dnf [ [] ], _ | _, Dnf [ [] ] -> tru
  | Dnf ca, Dnf cb -> dnf (List.fold_left add_conj ca cb)

let and_ a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> Unknown
  | Dnf [ [] ], x | x, Dnf [ [] ] -> x
  | Dnf [], _ | _, Dnf [] -> fls
  | Dnf ca, Dnf cb ->
    let product =
      List.concat_map
        (fun c1 -> List.filter_map (fun c2 -> conj_and c1 c2) cb)
        ca
    in
    dnf (List.fold_left add_conj [] product)

let not_ = function
  | Unknown -> Unknown
  | Dnf conjs ->
    (* De Morgan: the negation of a DNF is the conjunction, over its
       conjunctions, of the disjunction of the negated literals. *)
    List.fold_left
      (fun acc conj ->
        let negated =
          Dnf (List.map (fun l -> [ { l with pos = not l.pos } ]) conj)
        in
        and_ acc negated)
      tru conjs

let is_unknown = function Unknown -> true | Dnf _ -> false

let disjoint a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> false
  | Dnf [], _ | _, Dnf [] -> true
  | Dnf ca, Dnf cb ->
    List.for_all
      (fun c1 -> List.for_all (fun c2 -> conj_and c1 c2 = None) cb)
      ca

let implies a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> false
  | Dnf [], _ -> true
  | Dnf ca, Dnf cb ->
    List.for_all (fun c1 -> List.exists (fun c2 -> conj_subsumes c1 c2) cb) ca

let eval assign = function
  | Unknown -> None
  | Dnf conjs ->
    Some
      (List.exists
         (fun conj -> List.for_all (fun l -> assign l.key = l.pos) conj)
         conjs)

let keys = function
  | Unknown -> []
  | Dnf conjs ->
    List.sort_uniq key_compare (List.concat_map (List.map (fun l -> l.key)) conjs)

let of_cover text =
  let lit s =
    let neg = s.[0] = '~' in
    let s = if neg then String.sub s 1 (String.length s - 1) else s in
    let num s = int_of_string (String.sub s 1 (String.length s - 1)) in
    let key =
      match String.index_opt s '@' with
      | Some at -> Entry (num (String.sub s 0 at))
      | None -> Cond (num s)
    in
    let e = Dnf [ [ { key; pos = true } ] ] in
    if neg then not_ e else e
  in
  match text with
  | "true" -> tru
  | "false" -> fls
  | _ ->
    List.fold_left
      (fun acc cube ->
        or_ acc
          (List.fold_left
             (fun c s -> and_ c (lit s))
             tru
             (String.split_on_char '&' (String.trim cube))))
      fls
      (String.split_on_char '|' text)
