open Cpr_ir

(** Predicate-cognizant dependence graphs for one region.

    Encodes the EPIC execution model of the paper (Section 3):

    - register flow/anti/output dependences, where wired-or / wired-and
      [cmpp] writes to a common destination are unordered among themselves;
    - memory dependences, relaxed by alias analysis and by guard
      disjointness;
    - control dependences from a branch to later branches and
      non-speculatable ops, relaxed when the predicate query system proves
      the branch's taken-condition disjoint from the later op's guard
      (this is how FRP conversion makes branches freely reorderable);
    - speculation constraints: an op may move into/above a branch's
      latency window only if it cannot clobber a register live at the
      branch target;
    - branch-anticipation constraints: everything the taken path needs
      must have completed by the time a taken branch transfers control.

    Edge latencies follow the EQ model: an op issued at cycle [t] writes
    its destinations at [t + latency]; a branch issued at [t] transfers
    control at [t + latency]; region boundaries synchronize pending
    writes.  Latencies may be zero or negative (the constraint is
    [issue(dst) >= issue(src) + latency], with program order broken only
    where an edge exists). *)

type kind =
  | Flow of Reg.t
  | Anti of Reg.t
  | Output of Reg.t
  | Mem_flow
  | Mem_anti
  | Mem_output
  | Ctrl  (** branch to later branch/store that must stay below it *)
  | Exit_live of Reg.t
      (** branch to later op that would clobber a register live at the
          branch target *)
  | Br_anticipation
      (** earlier op whose effect the taken path needs, to the branch *)

type edge = {
  src : int;  (** op index within the region *)
  dst : int;
  kind : kind;
  latency : int;
}

type t

val build :
  ?env:Pred_env.t -> Cpr_machine.Descr.t -> Prog.t -> Liveness.t -> Region.t
  -> t
(** The graph reads the region's ops, the live set at each branch
    target, the program's [noalias_bases] and the machine's latencies —
    nothing else.  [env] is the region's
    {!Pred_env.analyze}, when the caller already has it. *)

val data : ?env:Pred_env.t -> Cpr_machine.Descr.t -> Prog.t -> Region.t -> t
(** The data edges of {!build} alone: register ([Flow], [Anti],
    [Output]) and memory ([Mem_flow], [Mem_anti], [Mem_output]), from
    the same passes, and no liveness.  [build] adds its control edges
    after these, so [succs], [preds] and [edges] here are [build]'s
    restricted to data kinds, in the same order.  For consumers that
    read no other edge (block matching, off-trace motion): the control
    pass is quadratic in a long region's branches. *)

val n_ops : t -> int
val op : t -> int -> Op.t

val ops : t -> Op.t array
(** The graph's ops in program order: the graph's own array, shared with
    the schedules built from it, so never mutate it. *)

val latency : t -> int -> int
(** Latency of the op at this index on the machine the graph was built
    for (the node contribution; edge latencies are derived from it). *)

val edges : t -> edge list
val preds : t -> int -> edge list
val succs : t -> int -> edge list

val height : t -> int
(** Dependence height: the longest path through the graph where each node
    contributes [max latency 1] beyond its issue... concretely
    [max over ops of (asap op + latency op)] with
    [asap op = max over incoming edges of (asap src + edge latency)]. *)

val asap : t -> int array
(** Earliest issue cycle of each op ignoring resources. *)

val pp : Format.formatter -> t -> unit
(** The list-scheduling priority (longest path to a sink) lives in
    {!Height.priority}, alongside the rest of the critical-path
    toolkit. *)
