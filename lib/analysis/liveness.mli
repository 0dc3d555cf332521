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
(** Solve the program's liveness from scratch.  Counted by the [Obs]
    counter [liveness.analyze]. *)

val update : t -> t
(** [update t] is the solution for [t]'s program as it stands now: the
    same physical [Prog.t], rewritten in place since [t] was solved
    (regions rewritten or added, fallthroughs changed).  It equals
    [analyze] of that program.  [t] keeps each region's compiled
    transfer steps beside the op list they came from; [update]
    recompiles only the regions whose op list is not physically that
    list (every region, if a register id outgrew [t]'s slot layout, whose
    per-class blocks are rounded up to whole words), re-reads
    fallthroughs, exits and [live_out], and solves the fixpoint again
    from empty sets.  It never propagates from [t]'s sets: a rewrite that
    removes a use or adds a kill inside a loop would leave a register
    that only the cycle keeps live stuck live, above the least fixpoint.
    [t] itself is unchanged.  Counted by [liveness.update].  See
    DESIGN.md "Cold regions cost what they contain". *)

val tracker : ?from:t -> Prog.t -> unit -> t
(** [tracker ?from prog] gives the solution for [prog] as it stands at
    each call; every call after the first {!update}s the solution the
    previous call returned.  The first call returns [from] when it was
    solved for [prog] itself (it must describe [prog] as it stands);
    when [from] was solved for another program — typically the one
    [prog] is a {!Prog.copy} of — the first call re-solves [prog] from
    it as {!update} would, reusing the compiled transfer of every region
    whose op list [prog] shares (all of them, for an unrewritten copy)
    and counted by [liveness.update]; without [from] it runs {!analyze}.
    ICBM's phases share one across their in-place rewrites of a program;
    a pipeline run starts it from the committed baseline's solution, so
    the run calls {!analyze} once.  See DESIGN.md "Work that cannot
    change an answer". *)

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

(** {2 Queries on the bitsets}

    These answer without building a [Reg.Set]: the live-out set of a
    cold region holds every register live through it, which grows with
    the program, while the register-pressure walks ask only about the
    registers the region touches. *)

val mem_live_in : t -> string -> Reg.t -> bool
(** [Reg.Set.mem r (live_in t label)]. *)

val mem_live_out : t -> Region.t -> Reg.t -> bool
(** [Reg.Set.mem r (live_out_region t region)]. *)

val live_out_count : t -> Region.t -> Reg.cls -> int
(** The number of registers of one class in [live_out_region t region],
    counted a word at a time. *)

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
