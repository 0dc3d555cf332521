open Cpr_ir
module Descr = Cpr_machine.Descr
module Resource = Cpr_machine.Resource
module Depgraph = Cpr_analysis.Depgraph
module IntSet = Set.Make (Int)

(* Candidate order is decreasing critical-path priority, ties broken by
   program order. *)
let compare_candidates priority a b =
  match Int.compare priority.(b) priority.(a) with
  | 0 -> Int.compare a b
  | c -> c

let finish machine region ops cycle =
  let length =
    Array.to_seqi ops
    |> Seq.fold_left
         (fun acc (i, op) ->
           max acc (cycle.(i) + Descr.latency_of machine op))
         0
  in
  { Schedule.region; ops; cycle; length }

(* Ready-queue scheduler: same greedy policy, without the per-round
   rescan.  Each op carries its unplaced-predecessor count and a running
   [earliest] issue bound (the max over already-placed predecessors of
   [cycle src + latency]); when the count hits zero the op is released —
   into the current cycle's candidate pool if [earliest] has passed,
   otherwise into a bucket keyed by that future cycle.  Within a cycle,
   placements cascade exactly like the reference: each round sorts the
   live candidates, issues what the resource table admits, and feeds
   zero/negative-latency releases back into the same cycle.  Candidate
   sets per round are provably those of the original rescan-everything
   scheduler (leftovers keep their readiness; releases join when ready),
   so the emitted cycle array is identical — test/test_sched.ml keeps
   that scheduler as an oracle and enforces this.  Idle stretches between
   release buckets are skipped in O(log buckets) instead of burning a
   rescan per cycle, with fuel charged for the skipped cycles so the
   no-progress failure mode is unchanged. *)
let of_graph machine (region : Region.t) graph =
  let n = Depgraph.n_ops graph in
  let ops = Depgraph.ops graph in
  let priority = Cpr_analysis.Height.priority graph in
  let cycle = Array.make n (-1) in
  let resources = Resource.create machine in
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
  let avail = ref [] in
  let current = ref 0 in
  let fuel = ref ((n + 1) * 16) in
  for i = n - 1 downto 0 do
    if npreds.(i) = 0 then avail := i :: !avail
  done;
  while !unscheduled > 0 && !fuel > 0 do
    decr fuel;
    (match Hashtbl.find_opt buckets !current with
    | Some l ->
      avail := List.rev_append l !avail;
      Hashtbl.remove buckets !current;
      occupied := IntSet.remove !current !occupied
    | None -> ());
    let progress = ref true in
    while !progress do
      progress := false;
      let ordered = List.sort (compare_candidates priority) !avail in
      let leftover = ref [] in
      let released = ref [] in
      List.iter
        (fun i ->
          if Resource.available resources ~cycle:!current ops.(i) then begin
            Resource.reserve resources ~cycle:!current ops.(i);
            cycle.(i) <- !current;
            decr unscheduled;
            progress := true;
            List.iter
              (fun (e : Depgraph.edge) ->
                let j = e.Depgraph.dst in
                earliest.(j) <-
                  max earliest.(j) (!current + e.Depgraph.latency);
                npreds.(j) <- npreds.(j) - 1;
                if npreds.(j) = 0 then
                  if earliest.(j) <= !current then released := j :: !released
                  else push_bucket earliest.(j) j)
              (Depgraph.succs graph i)
          end
          else leftover := i :: !leftover)
        ordered;
      avail := List.rev_append !leftover !released
    done;
    (* Advance; when nothing is pending this cycle, jump straight to the
       next release, charging fuel for the cycles skipped. *)
    (match (!avail, IntSet.min_elt_opt !occupied) with
    | [], Some c when c > !current + 1 ->
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
