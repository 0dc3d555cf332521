module R = Pqs_reference

type key = Pqs_intf.key =
  | Cond of int
  | Entry of int

(* A hash-consed handle: [node] is the underlying DNF value (computed by
   the reference engine, so the algebra is the reference algebra by
   construction) and [uid] identifies the node in the interning arena of
   the domain that built it — equal uids mean structurally equal nodes,
   so memo tables key binary operations on uid pairs in O(1).

   [pos_mask]/[neg_mask] are 62-bit polarity fingerprints computed once
   at intern time: bit [hash(key) mod 62] of [pos_mask] is set when the
   node contains a positive occurrence of [key] (and symmetrically for
   [neg_mask]).  The reference [disjoint] can only prove two DNFs
   disjoint when some key occurs with opposite polarities across them,
   so two ANDs over the fingerprints refute most queries without
   touching the memo tables — this is where interning pays on the
   scheduler's hot path, where almost all guard pairs are compatible.

   Handles are self-contained: invalidating the arena (per program, or
   when a table outgrows its cap) never dangles an outstanding handle —
   it only costs future sharing.  A structurally equal node interned
   after an invalidation gets a fresh uid, and uids are never reused
   within a domain, so stale memo entries can never be confused with new
   nodes. *)
type t = {
  uid : int;
  node : R.t;
  pos_mask : int;
  neg_mask : int;
}

let lit_bit key =
  let h = match key with Cond i -> 2 * i | Entry i -> (2 * i) + 1 in
  1 lsl (h mod 62)

let masks_of node =
  let pos = ref 0 and neg = ref 0 in
  R.iter_lits
    (fun key p ->
      let bit = lit_bit key in
      if p then pos := !pos lor bit else neg := !neg lor bit)
    node;
  (!pos, !neg)

(* The three constants are process-global with reserved uids, so a
   handle built on one domain (e.g. [tru] captured at module
   initialization) keys the same memo entry on every domain. *)
let unknown = { uid = 0; node = R.unknown; pos_mask = 0; neg_mask = 0 }
let fls = { uid = 1; node = R.fls; pos_mask = 0; neg_mask = 0 }
let tru = { uid = 2; node = R.tru; pos_mask = 0; neg_mask = 0 }
let first_uid = 3

module Node_tbl = Hashtbl.Make (struct
  type t = R.t

  let equal = ( = )

  (* The default polymorphic hash folds only ~10 meaningful nodes —
     DNFs sharing a prefix would all collide.  Deepen the traversal;
     expressions are capped (max_conjs) so this stays bounded. *)
  let hash (x : t) = Hashtbl.hash_param 64 256 x
end)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = Hashtbl.hash x
end)

(* Per-domain state: the scheduler's domain pool runs whole workloads in
   parallel, and a shared arena would need a lock on the hottest path in
   the compiler.  Handles never cross domains (pool results carry
   schedules, findings and strings, not predicate expressions), so each
   domain interns and memoizes privately; only the three fixed-uid
   constants are shared. *)
type state = {
  intern : t Node_tbl.t;
  mutable next_uid : int;
  and_tbl : t Int_tbl.t;
  or_tbl : t Int_tbl.t;
  not_tbl : t Int_tbl.t;
  dis_tbl : bool Int_tbl.t;
  imp_tbl : bool Int_tbl.t;
}

let seed st =
  Node_tbl.replace st.intern unknown.node unknown;
  Node_tbl.replace st.intern fls.node fls;
  Node_tbl.replace st.intern tru.node tru

let state_key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          intern = Node_tbl.create 1024;
          next_uid = first_uid;
          and_tbl = Int_tbl.create 1024;
          or_tbl = Int_tbl.create 1024;
          not_tbl = Int_tbl.create 256;
          dis_tbl = Int_tbl.create 1024;
          imp_tbl = Int_tbl.create 256;
        }
      in
      seed st;
      st)

let state () = Domain.DLS.get state_key

(* Caps bound a pathological program (or a driver that never calls
   [invalidate]) rather than tune steady state: a full table is dropped
   wholesale and rebuilt warm.  Uid allocation keeps counting across
   drops, preserving the never-reused invariant. *)
let intern_cap = 1 lsl 18
let memo_cap = 1 lsl 16

(* Binary memo keys are the two uids packed into one immediate int, so a
   lookup neither allocates nor runs the polymorphic hash over a tuple.
   Packing is injective while uids stay below 2^31 — reaching that
   ceiling would take billions of interns in one domain, but if it ever
   happens the memo is skipped (losing sharing, never soundness). *)
let pack_limit = 1 lsl 31
let pack a b = (a.uid lsl 31) lor b.uid
let packable a b = a.uid < pack_limit && b.uid < pack_limit

(* Query telemetry: totals and constant short-circuits as before, plus
   the cache-effectiveness triple of the hash-consing layer.  The
   counters are dark (one atomic load each) unless a [--trace] sink or
   the benchmark's traced mode enabled Cpr_obs. *)
module Obs = Cpr_obs.Obs

let q_queries = Obs.counter "pqs.queries"
let q_fast = Obs.counter "pqs.fast_path_hits"
let q_interned = Obs.counter "pqs.interned"
let q_hits = Obs.counter "pqs.memo_hits"
let q_misses = Obs.counter "pqs.memo_misses"

let intern st node =
  match Node_tbl.find_opt st.intern node with
  | Some t -> t
  | None ->
    Obs.incr q_interned;
    let pos_mask, neg_mask = masks_of node in
    let t = { uid = st.next_uid; node; pos_mask; neg_mask } in
    st.next_uid <- st.next_uid + 1;
    if Node_tbl.length st.intern >= intern_cap then begin
      Node_tbl.reset st.intern;
      seed st
    end;
    Node_tbl.replace st.intern node t;
    t

let memo1 tbl key compute =
  match Int_tbl.find_opt tbl key with
  | Some r ->
    Obs.incr q_hits;
    r
  | None ->
    Obs.incr q_misses;
    let r = compute () in
    if Int_tbl.length tbl >= memo_cap then Int_tbl.reset tbl;
    Int_tbl.replace tbl key r;
    r

let memo2 tbl a b compute =
  if packable a b then memo1 tbl (pack a b) compute else compute ()

let invalidate () =
  let st = state () in
  Node_tbl.reset st.intern;
  seed st;
  Int_tbl.reset st.and_tbl;
  Int_tbl.reset st.or_tbl;
  Int_tbl.reset st.not_tbl;
  Int_tbl.reset st.dis_tbl;
  Int_tbl.reset st.imp_tbl

(* Program-boundary hook: predicate literals are keyed by op id, so
   cached nodes and memoized answers stay correct across programs —
   invalidation only bounds memory.  Dropping warm caches on every small
   program costs more than it saves, so [trim] resets only once the
   arena has grown past a real program's working set. *)
let trim_threshold = 1 lsl 14

let trim () =
  if Node_tbl.length (state ()).intern > trim_threshold then invalidate ()

let const b = if b then tru else fls
let cond_lit id = intern (state ()) (R.cond_lit id)
let entry_lit r = intern (state ()) (R.entry_lit r)
let is_const_false t = R.is_const_false t.node
let is_const_true t = R.is_const_true t.node
let is_unknown t = R.is_unknown t.node
let equal a b = a == b || (a.uid = b.uid && a.node = b.node)

(* The constant short-circuits mirror the reference engine's match arms
   exactly (including returning the argument handle itself where the
   reference returns the argument), so only genuinely structural
   operands reach the memo tables. *)
let and_ a b =
  if is_unknown a || is_unknown b then unknown
  else if is_const_true a then b
  else if is_const_true b then a
  else if is_const_false a || is_const_false b then fls
  else
    let st = state () in
    memo2 st.and_tbl a b (fun () -> intern st (R.and_ a.node b.node))

let or_ a b =
  if is_unknown a || is_unknown b then unknown
  else if is_const_false a then b
  else if is_const_false b then a
  else if is_const_true a || is_const_true b then tru
  else
    let st = state () in
    memo2 st.or_tbl a b (fun () -> intern st (R.or_ a.node b.node))

let not_ a =
  if is_unknown a then unknown
  else if is_const_true a then fls
  else if is_const_false a then tru
  else
    let st = state () in
    memo1 st.not_tbl a.uid (fun () -> intern st (R.not_ a.node))

let disjoint a b =
  Obs.incr q_queries;
  if is_unknown a || is_unknown b then begin
    Obs.incr q_fast;
    false
  end
  else if is_const_false a || is_const_false b then begin
    Obs.incr q_fast;
    true
  end
  else if a.pos_mask land b.neg_mask = 0 && a.neg_mask land b.pos_mask = 0
  then begin
    (* The reference proof needs every conjunction pair to contradict,
       and a pair can only contradict on a key present with opposite
       polarities on the two sides.  No fingerprint overlap means no
       such key exists anywhere, so (both operands being satisfiable
       DNFs here) the proof cannot exist.  Collisions only ever add
       phantom overlaps, which fall through — never a wrong answer. *)
    Obs.incr q_fast;
    false
  end
  else if a.uid = b.uid then
    (* a shared satisfiable node can never contradict itself: every
       conjunction merges with itself *)
    false
  else
    let st = state () in
    memo2 st.dis_tbl a b (fun () -> R.disjoint a.node b.node)

let implies a b =
  Obs.incr q_queries;
  if is_unknown a || is_unknown b then begin
    Obs.incr q_fast;
    false
  end
  else if is_const_false a then begin
    Obs.incr q_fast;
    true
  end
  else if a.uid = b.uid then true
  else
    let st = state () in
    memo2 st.imp_tbl a b (fun () -> R.implies a.node b.node)

let eval assign t = R.eval assign t.node
let keys t = R.keys t.node
let pp ppf t = R.pp ppf t.node
let to_reference t = t.node
