open Cpr_ir

type key =
  | Cond of int
  | Entry of int

(* A reduced ordered BDD node: [var] is tested at this node, [lo]/[hi]
   are the cofactors for false/true.  Smaller [var]s sit nearer the root.
   Nodes are hash-consed per domain, so within one epoch (between two
   [invalidate]s) equal functions are physically equal.  [uid] only
   feeds the hashes and orders the operands of symmetric operations. *)
type t = {
  uid : int;
  var : int;
  lo : t;
  hi : t;
}

(* The terminals are process-global and sort below every variable.  A
   node is only ever built with [lo != hi], so every non-terminal node
   denotes a non-constant function, even one whose children come from
   different epochs or domains: a constant result is always one of these
   two physical values. *)
let rec fls = { uid = 0; var = max_int; lo = fls; hi = fls }
let rec tru = { uid = 1; var = max_int; lo = tru; hi = tru }

(* Variable order: later ops on top, so [Cond] literals by descending op
   id, then [Entry] literals below all of them.  A path condition
   [pc ∧ ¬taken] then adds the new branch's literals above the existing
   chain and shares it, instead of rebuilding the whole chain below. *)
let bias = 1 lsl 61
let var_of_key = function Cond id -> -bias - id | Entry r -> bias + r
let key_of_var v = if v < 0 then Cond (-bias - v) else Entry (v - bias)

module Node_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = a.var = b.var && a.lo == b.lo && a.hi == b.hi

  let hash n =
    let h = (n.var * 0x2545F491) lxor (n.lo.uid * 0x9E3779B1) in
    let h = h lxor n.hi.uid in
    h lxor (h lsr 29)
end)

(* The operation cache is direct-mapped and lossy: a slot holds the last
   (operation, operands, result) that hashed to it.  Operands are
   compared physically, so a slot can never answer for a node it was not
   filled with.  2^10 slots keep the memory flat; DESIGN.md has the
   sizing. *)
let cache_bits = 10
let cache_mask = (1 lsl cache_bits) - 1

(* Per-domain state: the scheduler's domain pool runs whole workloads in
   parallel, and a shared table would need a lock on the hottest path in
   the compiler. *)
type state = {
  unique : t Node_tbl.t;
  mutable next_uid : int;
  c_op : int array;
  c_a : t array;
  c_b : t array;
  c_r : t array;
}

let state_key =
  Domain.DLS.new_key (fun () ->
      let n = cache_mask + 1 in
      {
        unique = Node_tbl.create 1024;
        next_uid = 2;
        c_op = Array.make n (-1);
        c_a = Array.make n fls;
        c_b = Array.make n fls;
        c_r = Array.make n fls;
      })

let state () = Domain.DLS.get state_key

(* Telemetry, dark (one atomic load each) unless a [--trace] sink or the
   benchmark's traced mode enabled Cpr_obs: queries answered, nodes
   built, and operation-cache hits and misses. *)
module Obs = Cpr_obs.Obs

let q_queries = Obs.counter "pqs.queries"
let q_interned = Obs.counter "pqs.interned"
let q_hits = Obs.counter "pqs.memo_hits"
let q_misses = Obs.counter "pqs.memo_misses"

let mk st var lo hi =
  if lo == hi then lo
  else
    let n = { uid = st.next_uid; var; lo; hi } in
    match Node_tbl.find_opt st.unique n with
    | Some m -> m
    | None ->
      Obs.incr q_interned;
      st.next_uid <- st.next_uid + 1;
      Node_tbl.add st.unique n n;
      n

let const b = if b then tru else fls
let op_and = 0
let op_or = 1
let op_not = 2
let op_meets = 3
let op_implies = 4

let cached st op a b compute =
  let h = (((a.uid * 0x9E3779B1) + b.uid) * 8) + op in
  let i = (h lxor (h lsr 16)) land cache_mask in
  if st.c_op.(i) = op && st.c_a.(i) == a && st.c_b.(i) == b then begin
    Obs.incr q_hits;
    st.c_r.(i)
  end
  else begin
    Obs.incr q_misses;
    let r = compute () in
    st.c_op.(i) <- op;
    st.c_a.(i) <- a;
    st.c_b.(i) <- b;
    st.c_r.(i) <- r;
    r
  end

(* Shannon expansion of a binary operation on the topmost variable. *)
let expand st f a b =
  if a.var = b.var then mk st a.var (f a.lo b.lo) (f a.hi b.hi)
  else if a.var < b.var then mk st a.var (f a.lo b) (f a.hi b)
  else mk st b.var (f a b.lo) (f a b.hi)

let rec and_rec st a b =
  if a == b || b == tru then a
  else if a == tru then b
  else if a == fls || b == fls then fls
  else if a.uid > b.uid then and_rec st b a
  else cached st op_and a b (fun () -> expand st (and_rec st) a b)

let rec or_rec st a b =
  if a == b || b == fls then a
  else if a == fls then b
  else if a == tru || b == tru then tru
  else if a.uid > b.uid then or_rec st b a
  else cached st op_or a b (fun () -> expand st (or_rec st) a b)

let rec not_rec st a =
  if a == tru then fls
  else if a == fls then tru
  else
    cached st op_not a a (fun () ->
        mk st a.var (not_rec st a.lo) (not_rec st a.hi))

let and_ a b = and_rec (state ()) a b
let or_ a b = or_rec (state ()) a b
let not_ a = not_rec (state ()) a
let lit key = mk (state ()) (var_of_key key) fls tru
let cond_lit id = lit (Cond id)
let entry_lit (r : Reg.t) = lit (Entry r.Reg.id)
let is_const_false t = t == fls
let is_const_true t = t == tru

(* The queries walk the same cofactor pairs as [and_ a b] and
   [and_ a (not_ b)] would, but stop at the first witness and build no
   node.  Every non-terminal denotes a non-constant function, so a
   terminal on either side settles the answer. *)
let rec meets st a b =
  if a == fls || b == fls then false
  else if a == tru || b == tru || a == b then true
  else if a.uid > b.uid then meets st b a
  else
    cached st op_meets a b (fun () ->
        const
          (if a.var = b.var then meets st a.lo b.lo || meets st a.hi b.hi
           else if a.var < b.var then meets st a.lo b || meets st a.hi b
           else meets st a b.lo || meets st a b.hi))
    == tru

let rec implies_rec st a b =
  if a == fls || b == tru || a == b then true
  else if a == tru || b == fls then false
  else
    cached st op_implies a b (fun () ->
        const
          (if a.var = b.var then
             implies_rec st a.lo b.lo && implies_rec st a.hi b.hi
           else if a.var < b.var then
             implies_rec st a.lo b && implies_rec st a.hi b
           else implies_rec st a b.lo && implies_rec st a b.hi))
    == tru

let disjoint a b =
  Obs.incr q_queries;
  not (meets (state ()) a b)

let implies a b =
  Obs.incr q_queries;
  implies_rec (state ()) a b

let invalidate () =
  let st = state () in
  Node_tbl.reset st.unique;
  Array.fill st.c_op 0 (cache_mask + 1) (-1);
  Array.fill st.c_a 0 (cache_mask + 1) fls;
  Array.fill st.c_b 0 (cache_mask + 1) fls;
  Array.fill st.c_r 0 (cache_mask + 1) fls

(* Program-boundary hook: literals are keyed by op id, so nodes stay
   meaningful across programs and invalidation only bounds memory.
   Dropping the table on every small program costs more than it saves,
   so [trim] resets only past a real program's working set. *)
let trim_threshold = 1 lsl 14

let trim () =
  if Node_tbl.length (state ()).unique > trim_threshold then invalidate ()

(* Substitution by Shannon expansion: at its top variable [v] the
   function is [f v ? hi : lo] over the rewritten cofactors.  The memo is
   per call, so a node shared by many paths is rewritten once. *)
let subst f t =
  let st = state () in
  let memo = Node_tbl.create 16 in
  let rec go n =
    if n == tru || n == fls then n
    else
      match Node_tbl.find_opt memo n with
      | Some r -> r
      | None ->
        let c = f (key_of_var n.var) in
        let hi = go n.hi and lo = go n.lo in
        let r =
          or_rec st (and_rec st c hi) (and_rec st (not_rec st c) lo)
        in
        Node_tbl.add memo n r;
        r
  in
  go t

let rec eval assign t =
  if t == tru then true
  else if t == fls then false
  else eval assign (if assign (key_of_var t.var) then t.hi else t.lo)

let keys t =
  let seen = Node_tbl.create 16 in
  let vars = ref [] in
  let rec go n =
    if n != tru && n != fls && not (Node_tbl.mem seen n) then begin
      Node_tbl.add seen n n;
      vars := n.var :: !vars;
      go n.lo;
      go n.hi
    end
  in
  go t;
  List.sort_uniq compare (List.map key_of_var !vars)

(* Minato–Morreale irredundant sum of products: a cover [c] with
   [l <= c <= u], returned with its cubes as (var, polarity) lists. *)
let rec isop st l u =
  if l == fls then (fls, [])
  else if u == tru then (tru, [ [] ])
  else
    let v = min l.var u.var in
    let cof n = if n.var = v then (n.lo, n.hi) else (n, n) in
    let l0, l1 = cof l and u0, u1 = cof u in
    let r0, c0 = isop st (and_rec st l0 (not_rec st u1)) u0 in
    let r1, c1 = isop st (and_rec st l1 (not_rec st u0)) u1 in
    let rest =
      or_rec st
        (and_rec st l0 (not_rec st r0))
        (and_rec st l1 (not_rec st r1))
    in
    let rs, cs = isop st rest (and_rec st u0 u1) in
    ( or_rec st (mk st v r0 r1) rs,
      List.map (List.cons (v, false)) c0
      @ List.map (List.cons (v, true)) c1
      @ cs )

(* Finding messages embed expressions, so print a canonical text: the
   irredundant cover with literals in key order and cubes sorted. *)
let pp ppf t =
  if t == tru then Format.pp_print_string ppf "true"
  else if t == fls then Format.pp_print_string ppf "false"
  else
    let lit (v, pos) = (key_of_var v, not pos) in
    let cube c = List.sort compare (List.map lit c) in
    let cubes = List.sort compare (List.map cube (snd (isop (state ()) t t))) in
    let pp_lit ppf (key, neg) =
      if neg then Format.pp_print_char ppf '~';
      match key with
      | Cond id -> Format.fprintf ppf "c%d" id
      | Entry id -> Format.fprintf ppf "p%d@entry" id
    in
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " | ")
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '&')
         pp_lit)
      ppf cubes
