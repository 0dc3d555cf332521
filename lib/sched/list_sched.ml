open Cpr_ir
module Descr = Cpr_machine.Descr
module Depgraph = Cpr_analysis.Depgraph
module IntSet = Set.Make (Int)

(* Candidate order is decreasing critical-path priority, ties broken by
   program order. *)
let compare_candidates priority a b =
  match Int.compare priority.(b) priority.(a) with
  | 0 -> Int.compare a b
  | c -> c

let finish machine region ops cycle =
  let length = ref 0 in
  Array.iteri
    (fun i op ->
      length := max !length (cycle.(i) + Descr.latency_of machine op))
    ops;
  { Schedule.region; ops; cycle; length = !length }

let classes = [| Descr.I; Descr.F; Descr.M; Descr.B |]

let class_index op =
  match Descr.fu_of_op op with
  | Descr.I -> 0
  | Descr.F -> 1
  | Descr.M -> 2
  | Descr.B -> 3

(* A binary min-heap of op indices in a fixed array, under a strict
   order [less]. *)
module Heap = struct
  type t = {
    mutable size : int;
    items : int array;
  }

  let create capacity = { size = 0; items = Array.make capacity 0 }
  let is_empty h = h.size = 0
  let top h = h.items.(0)

  let push less h x =
    let a = h.items in
    let k = ref h.size in
    h.size <- h.size + 1;
    while !k > 0 && less x a.((!k - 1) / 2) do
      let parent = (!k - 1) / 2 in
      a.(!k) <- a.(parent);
      k := parent
    done;
    a.(!k) <- x

  let pop less h =
    let a = h.items in
    let top = a.(0) in
    let n = h.size - 1 in
    h.size <- n;
    let last = a.(n) in
    let k = ref 0 in
    let continue = ref (n > 0) in
    while !continue do
      let l = (2 * !k) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && less a.(l + 1) a.(l) then l + 1 else l in
        if less a.(c) last then begin
          a.(!k) <- a.(c);
          k := c
        end
        else continue := false
      end
    done;
    if n > 0 then a.(!k) <- last;
    top
end

(* Ready-heap scheduler.  Each op carries its unplaced-predecessor count
   and a running [earliest] issue bound (the max over already-placed
   predecessors of [cycle src + latency]); when the count hits zero the
   op is released — into its unit class's ready heap if [earliest] has
   passed, otherwise into a bucket keyed by that future cycle.  There is
   one heap per class (I/F/M/B), ordered by [compare_candidates], and a
   per-class [used] count for the current cycle.  Within a cycle,
   placements cascade in rounds: a round pops the heads of each class
   while that class has a free slot (on the sequential machine, the best
   of the four heads when nothing has issued yet), and the zero- and
   negative-latency releases it makes join the next round.

   The emitted cycle array is the one of the greedy policy that sorts
   every ready op by [compare_candidates] and issues, in that order,
   whatever still fits: within a round classes never compete for a slot
   (a regular machine's limits are per class), so the ops of class c
   placed in a round are exactly the first [slots c] ready ops of c in
   candidate order — the heads of c's heap.  The sequential machine
   issues one op per cycle, the first of all candidates.  Ops a round
   leaves behind keep their readiness, so no later round of the same
   cycle can place them.  test/test_sched.ml keeps the rescan-everything
   scheduler as an oracle and enforces identical cycle arrays.  Idle
   stretches between release buckets are skipped in O(log buckets), with
   fuel charged for the skipped cycles so the no-progress failure mode
   is unchanged.  Each placement costs O(log n), so a region schedules
   in O(edges + n log n). *)
let of_graph machine (region : Region.t) graph =
  let n = Depgraph.n_ops graph in
  let ops = Depgraph.ops graph in
  let priority = Cpr_analysis.Height.priority graph in
  let less a b = compare_candidates priority a b < 0 in
  let cycle = Array.make n (-1) in
  let cls = Array.map class_index ops in
  let heaps =
    let sizes = Array.make 4 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) cls;
    Array.map Heap.create sizes
  in
  let ready i = Heap.push less heaps.(cls.(i)) i in
  let sequential = machine.Descr.issue = Descr.Sequential in
  let slots = Array.map (Descr.slots machine) classes in
  let used = Array.make 4 0 in
  let issued = ref 0 in
  let unscheduled = ref n in
  let npreds = Array.make n 0 in
  let earliest = Array.make n 0 in
  for i = 0 to n - 1 do
    npreds.(i) <- List.length (Depgraph.preds graph i)
  done;
  (* Future releases: cycle -> ops becoming ready then. *)
  let buckets : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let occupied = ref IntSet.empty in
  let push_bucket c i =
    let prev = Option.value ~default:[] (Hashtbl.find_opt buckets c) in
    Hashtbl.replace buckets c (i :: prev);
    occupied := IntSet.add c !occupied
  in
  let current = ref 0 in
  let released = ref [] in
  let place c =
    let i = Heap.pop less heaps.(c) in
    used.(c) <- used.(c) + 1;
    incr issued;
    cycle.(i) <- !current;
    decr unscheduled;
    List.iter
      (fun (e : Depgraph.edge) ->
        let j = e.Depgraph.dst in
        earliest.(j) <- max earliest.(j) (!current + e.Depgraph.latency);
        npreds.(j) <- npreds.(j) - 1;
        if npreds.(j) = 0 then
          if earliest.(j) <= !current then released := j :: !released
          else push_bucket earliest.(j) j)
      (Depgraph.succs graph i)
  in
  (* The sequential machine's one op: the best head of the four. *)
  let best_head () =
    let best = ref (-1) in
    for c = 0 to 3 do
      if
        (not (Heap.is_empty heaps.(c)))
        && (!best < 0 || less (Heap.top heaps.(c)) (Heap.top heaps.(!best)))
      then best := c
    done;
    !best
  in
  let idle () = Array.for_all Heap.is_empty heaps in
  let fuel = ref ((n + 1) * 16) in
  for i = 0 to n - 1 do
    if npreds.(i) = 0 then ready i
  done;
  while !unscheduled > 0 && !fuel > 0 do
    decr fuel;
    Array.fill used 0 4 0;
    issued := 0;
    (match Hashtbl.find_opt buckets !current with
    | Some l ->
      List.iter ready l;
      Hashtbl.remove buckets !current;
      occupied := IntSet.remove !current !occupied
    | None -> ());
    let rounds = ref true in
    while !rounds do
      (if sequential then begin
         (* one op per cycle, of any class *)
         if !issued = 0 then
           let c = best_head () in
           if c >= 0 then place c
       end
       else
         for c = 0 to 3 do
           while used.(c) < slots.(c) && not (Heap.is_empty heaps.(c)) do
             place c
           done
         done);
      (* Only a release can give a later round of this cycle anything
         to place. *)
      rounds := !released <> [];
      List.iter ready !released;
      released := []
    done;
    (* Advance; when nothing is pending this cycle, jump straight to the
       next release, charging fuel for the cycles skipped. *)
    (match IntSet.min_elt_opt !occupied with
    | Some c when c > !current + 1 && idle () ->
      fuel := max 0 (!fuel - (c - !current - 1));
      current := c
    | _ -> incr current)
  done;
  if !unscheduled > 0 then
    invalid_arg
      (Printf.sprintf "List_sched: no progress in region %s"
         region.Region.label);
  finish machine region ops cycle

let schedule machine prog liveness region =
  of_graph machine region (Depgraph.build machine prog liveness region)
