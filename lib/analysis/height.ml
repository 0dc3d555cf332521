open Cpr_ir
module Obs = Cpr_obs.Obs

type summary = {
  dep_height : int;
  branch_height : int;
  res_bound : int;
  bound : int;
}

let c_bound_queries = Obs.counter "height.bound_queries"

let asap = Depgraph.asap
let dep_height = Depgraph.height

(* Longest chain through branch/pbr nodes only: a forward max over the
   subgraph they induce.  Program order is a topological order of the
   full graph (every edge has src < dst), hence of any induced subgraph
   too.  Predicate-awareness needs no work here — Depgraph.build already
   omitted the Ctrl edges between disjointly-guarded branches. *)
let branch_height t =
  let n = Depgraph.n_ops t in
  let chains = function
    | (op : Op.t) -> Op.is_branch op || Op.is_pbr op
  in
  let a = Array.make n 0 in
  let h = ref 0 in
  for j = 0 to n - 1 do
    if chains (Depgraph.op t j) then begin
      List.iter
        (fun (e : Depgraph.edge) ->
          if chains (Depgraph.op t e.Depgraph.src) then
            a.(j) <- max a.(j) (a.(e.Depgraph.src) + e.Depgraph.latency))
        (Depgraph.preds t j);
      h := max !h (a.(j) + Depgraph.latency t j)
    end
  done;
  !h

let priority t =
  let n = Depgraph.n_ops t in
  let p = Array.make n 0 in
  for i = n - 1 downto 0 do
    p.(i) <- Depgraph.latency t i;
    List.iter
      (fun (e : Depgraph.edge) ->
        p.(i) <- max p.(i) (e.Depgraph.latency + p.(e.Depgraph.dst)))
      (Depgraph.succs t i)
  done;
  p

let slack t =
  let a = asap t in
  let p = priority t in
  let h = dep_height t in
  Array.init (Depgraph.n_ops t) (fun i -> h - (a.(i) + p.(i)))

let summarize machine t =
  Obs.incr c_bound_queries;
  let ops = Array.init (Depgraph.n_ops t) (Depgraph.op t) in
  let res_bound = (Resbound.of_ops machine ops).Resbound.bound in
  let dep_height = dep_height t in
  {
    dep_height;
    branch_height = branch_height t;
    res_bound;
    bound = max dep_height res_bound;
  }
