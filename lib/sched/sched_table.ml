open Cpr_ir
module Descr = Cpr_machine.Descr
module Depgraph = Cpr_analysis.Depgraph
module Liveness = Cpr_analysis.Liveness
module Obs = Cpr_obs.Obs

let c_graph_misses = Obs.counter "sched.table.graph_misses"
let c_schedule_misses = Obs.counter "sched.table.schedule_misses"
let c_hits = Obs.counter "sched.table.hits"
let c_liveness = Obs.counter "sched.table.liveness"

(* Everything [Depgraph.build] reads of a region, plus its fallthrough:
   the ops (the op list is compared physically first — [Region.copy]
   shares it — then structurally), the live set at each branch target in
   program order, the program's [noalias] bases and the per-op latency
   vector (all five paper machines share one, so they share graphs). *)
type key = {
  ops : Op.t list;
  fallthrough : string option;
  live_at_targets : Reg.Set.t list;
  noalias : Reg.t list;
  lat : int array;
}

type entry = {
  key : key;
  graph : Depgraph.t;
  mutable schedules : (Descr.issue * Schedule.t) list;
}

type t = {
  entries : (int, entry list) Hashtbl.t;
  mutable versions : version list;
  mutable resident : version list;  (* most recent first, at most two *)
}

and version = {
  table : t;
  prog : Prog.t;
  mutable live : Liveness.t option;
  (* Per region label: the op list a region had when its live-at-targets
     key part was read, and that part. *)
  targets : (string, Op.t list * Reg.Set.t list) Hashtbl.t;
}

let create () =
  { entries = Hashtbl.create 64; versions = []; resident = [] }

let version t prog =
  match List.find_opt (fun v -> v.prog == prog) t.versions with
  | Some v -> v
  | None ->
    let v = { table = t; prog; live = None; targets = Hashtbl.create 64 } in
    t.versions <- v :: t.versions;
    v

(* Two versions' liveness is resident at a time, a run's two compiled
   codes, for the whole run; a third version (a fallback after a failed
   stage) drops the least recently resident one's, with the key parts
   read from it. *)
let make_resident v l =
  let drop (o : version) =
    o.live <- None;
    Hashtbl.reset o.targets
  in
  drop v;
  v.live <- Some l;
  let t = v.table in
  match List.filter (fun o -> o != v) t.resident with
  | [] -> t.resident <- [ v ]
  | o :: evicted ->
    List.iter drop evicted;
    t.resident <- [ v; o ]

let liveness v =
  match v.live with
  | Some l -> l
  | None ->
    Obs.incr c_liveness;
    let l = Liveness.analyze v.prog in
    make_resident v l;
    l

let adopt v l = make_resident v l

let live_at_targets v (r : Region.t) =
  match Hashtbl.find_opt v.targets r.Region.label with
  | Some (ops, sets) when ops == r.Region.ops -> sets
  | _ ->
    let sets = Liveness.live_at_targets (liveness v) r in
    Hashtbl.replace v.targets r.Region.label (r.Region.ops, sets);
    sets

let key_of v machine (r : Region.t) =
  {
    ops = r.Region.ops;
    fallthrough = r.Region.fallthrough;
    live_at_targets = live_at_targets v r;
    noalias = v.prog.Prog.noalias_bases;
    lat = Array.of_list (List.map (Descr.latency_of machine) r.Region.ops);
  }

(* Bucket by what distinguishes most regions cheaply: op ids are unique
   within a program and copies get fresh ids. *)
let bucket_of k =
  Hashtbl.hash
    ( (match k.ops with [] -> -1 | op :: _ -> op.Op.id),
      Array.length k.lat,
      k.fallthrough )

let equal_keys a b =
  (a.ops == b.ops || a.ops = b.ops)
  && a.fallthrough = b.fallthrough
  && a.lat = b.lat && a.noalias = b.noalias
  && List.equal
       (fun x y -> x == y || Reg.Set.equal x y)
       a.live_at_targets b.live_at_targets

(* [equal_keys] on the two regions' keys on any one machine, without
   building them: equal op lists have equal latency vectors. *)
let same_key v r v' r' =
  (r.Region.ops == r'.Region.ops || r.Region.ops = r'.Region.ops)
  && r.Region.fallthrough = r'.Region.fallthrough
  && v.prog.Prog.noalias_bases = v'.prog.Prog.noalias_bases
  && List.equal
       (fun x y -> x == y || Reg.Set.equal x y)
       (live_at_targets v r) (live_at_targets v' r')

(* The entry for [r]'s key and whether it was already there. *)
let entry ?env v machine r =
  let key = key_of v machine r in
  let h = bucket_of key in
  let bucket =
    Option.value ~default:[] (Hashtbl.find_opt v.table.entries h)
  in
  match List.find_opt (fun e -> equal_keys e.key key) bucket with
  | Some e -> (e, true)
  | None ->
    Obs.incr c_graph_misses;
    let graph = Depgraph.build ?env machine v.prog (liveness v) r in
    let e = { key; graph; schedules = [] } in
    Hashtbl.replace v.table.entries h (e :: bucket);
    (e, false)

let graph ?env v machine r =
  let e, hit = entry ?env v machine r in
  if hit then Obs.incr c_hits;
  e.graph

let schedule ?env v machine r =
  let e, _ = entry ?env v machine r in
  match List.assoc_opt machine.Descr.issue e.schedules with
  | Some s ->
    Obs.incr c_hits;
    { s with Schedule.region = r }
  | None ->
    Obs.incr c_schedule_misses;
    let s = List_sched.of_graph machine r e.graph in
    e.schedules <- (machine.Descr.issue, s) :: e.schedules;
    s

let schedule_prog ?(table = create ()) machine prog =
  let v = version table prog in
  List.map
    (fun (r : Region.t) -> (r.Region.label, schedule v machine r))
    (Prog.regions prog)
