open Cpr_ir

(** Predicate-aware global liveness over the region graph.

    Guarded definitions do not kill (the guard may be false); the
    unconditional destinations of [cmpp] and unguarded [Pred_init] do.
    Exit labels use the program's [live_out] declaration as boundary
    condition. *)

type t

val kills : Op.t -> Reg.t list
(** Destinations an op writes unconditionally (its guard is [True] and
    the destination is not an accumulator), plus the [cmpp] destinations
    written even under a false guard.  Exposed so {!Pressure} counts
    value lifetimes with exactly the transfer the fixpoint uses. *)

val analyze : Prog.t -> t

val live_in : t -> string -> Reg.Set.t
(** Registers live on entry to a label (program [live_out] for exit
    labels). *)

val live_at_targets : t -> Region.t -> Reg.Set.t list
(** Registers live at the target of each branch of the region, in
    program order, from one pass over the region
    ({!Region.branch_targets}); a branch without a target gets the
    program's [live_out]. *)

val live_at_branches : t -> Region.t -> Op.t array -> Reg.Set.t array
(** The same sets by op index of the region's ops (given as an array),
    empty at every non-branch.  Build it once per region snapshot (one
    op array, one {!Pred_env.t}) and hand it to every query on that
    snapshot: {!live_after_implies}, speculation's demotion test,
    ICBM's legality check and off-trace motion all read it instead of
    resolving a branch target per query.  Raises [Invalid_argument] if
    the array holds another region's ops. *)

val live_out_region : t -> Region.t -> Reg.Set.t
(** Registers live when the region is exited by falling through. *)

val live_after_implies :
  t -> Pred_env.t -> Region.t -> live_at:Reg.Set.t array -> int -> Reg.t
  -> Pqs.t -> bool
(** [live_after_implies t env r ~live_at idx reg guard] proves that
    whenever register [reg] is live just after the op at index [idx],
    [guard] holds — the promotion-legality test of predicate
    speculation.  [live_at] is {!live_at_branches} of [r] over
    [Pred_env.ops env].  The liveness condition is the disjunction, over
    the downstream uses of [reg] and the exits where it is live, of the
    path condition from region entry to the use or exit conjoined with
    the use's guard or the exit's taken-expression; it is
    over-approximate, so [true] is sound.  Each disjunct is checked
    against [guard] separately, reusing the region's shared prefix path
    conditions ({!Pred_env.path_conds}), so a query does work linear in
    the ops after [idx] and never rescans the region for a branch
    target.  See DESIGN.md "Promotion legality in linear work". *)
