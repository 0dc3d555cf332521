open Cpr_ir

(** Pass composition: the two compiled codes the paper compares.

    The {e baseline} is the input superblock program with its training
    profile.  The {e height-reduced} code is the baseline after FRP
    conversion and the ICBM schema (predicate speculation, match,
    restructure, off-trace motion, DCE), re-profiled on the same training
    inputs so that the estimator and Table 3 see the transformed program's
    own execution frequencies.

    {!compile} builds both from one {!prepare}: the baseline's prepared
    program is the height reduction's starting point, and each code's
    final profiling run also yields the {!Cpr_sim.Equiv.observation}s
    that {!equivalent} compares.  Each training input is interpreted
    three times in all (twice to prepare, once to re-profile the
    height-reduced code). *)

type compiled = {
  prog : Prog.t;
  icbm : Cpr_core.Icbm.region_stats option;  (** None for the baseline *)
  observed : Cpr_sim.Equiv.observation list option;
      (** one per training input, from the final profiling run of
          [prog]: set by {!baseline}, {!height_reduce},
          {!height_reduce_prepared} ([run] on the [superblock] and [icbm]
          stages) and {!fallback_compiled} (unless its best-effort
          profile raised); [None] for the other stages *)
}

val profile : Prog.t -> Cpr_sim.Equiv.input list -> unit
(** Clear and re-record region profiles by interpreting each input. *)

val prepare : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t
(** Profile a copy, form superblocks along the hot fall-through edges
    (tail-duplicating join points), prune unreachable regions, and
    re-profile — the IMPACT role; both compiled codes start here. *)

val baseline :
  ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** [run superblock]: {!prepare} only; the input program is untouched.

    Every stage statically verifies its own output by default
    ([verify] defaults to [true]): the {!Cpr_verify} lint plus per-stage
    translation validation against the pre-transformation program, with
    error findings raised as {!Cpr_verify.Verify.Verify_error}.  Pass
    [~verify:false] to skip (the ablations; drivers that verify
    separately), and [~verify_time] to accumulate the wall time spent
    verifying.

    Every stage also runs inside a [pass/<stage>] {!Cpr_obs.Obs}
    span, with the verifier under a nested [verify/<stage>] span and
    op-count/ICBM counters alongside — all dark unless a [--trace] sink
    enabled telemetry.  [~verify_time] keeps working either way. *)

val height_reduce :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** [run icbm]: {!prepare} followed by {!height_reduce_prepared}, inside
    a [pass/icbm] span; the input program is untouched. *)

val height_reduce_prepared :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref -> Prog.t
  -> Cpr_sim.Equiv.input list -> compiled
(** The ICBM step on an already {!prepare}d program, which it mutates
    and returns: FRP conversion and ICBM, validation, verification
    against the prepared program, re-profiling.  Raises
    [Invalid_argument] if the transformed program fails structural
    validation. *)

(** {2 The stage table} *)

type stage = {
  name : string;
  transform :
    Cpr_core.Heur.t -> live:(unit -> Cpr_analysis.Liveness.t) -> Prog.t
    -> Cpr_core.Icbm.region_stats option;
      (** rewrites a {!prepare}d program in place; ICBM's statistics for
          the [icbm] stage, [None] for the others.  [live ()] is the
          program's liveness as it stands (a
          {!Cpr_analysis.Liveness.tracker} of it), which only ICBM
          reads *)
}

val stages : stage list
(** Every pipeline stage, in pipeline order: [superblock] (formation is
    {!prepare} itself), [ifconv], [frp], [spec], [unroll] (factor 2),
    [fullcpr], [icbm]. *)

val icbm : stage
(** The last row, whose output is the height-reduced code. *)

val find : string -> stage option
(** A row of {!stages} by name; [baseline] is an alias of [superblock].
    [None] for unknown names. *)

val run :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref -> stage
  -> Prog.t -> Cpr_sim.Equiv.input list -> compiled
(** The one runner: {!prepare} a copy, apply the stage's transform,
    re-validate, verify against the stage's input ({!run_with_input}),
    and re-profile, all inside a
    [pass/<stage>] span ([pass/baseline] for superblock formation).
    [heur] reaches the ICBM transform only. *)

val run_with_input :
  ?heur:Cpr_core.Heur.t -> ?verify:bool -> ?verify_time:float ref -> stage
  -> Prog.t -> Cpr_sim.Equiv.input list -> Prog.t * compiled
(** {!run}, also returning the program the stage's output is verified
    against: the raw input itself for [superblock] (no stage mutates its
    input), and for every other stage the pristine copy of the
    {!prepare}d program the transform started from — taken from the
    run's one [prepare], not from a second one.  Drivers that verify
    separately ([~verify:false]) check against it. *)

val fallback_compiled : Prog.t -> Cpr_sim.Equiv.input list -> compiled
(** The verified fallback for a failed stage: a plain profiled copy of
    the {e pre-pass} IR — never a partially transformed working copy,
    whose in-place mid-pass state may violate invariants downstream
    stages rely on.  Infallible by construction (profiling is
    best-effort): {!Cpr_resilience.Recover.protect} does not sandbox
    the fallback thunk. *)

val protected :
  ?verify:bool ->
  ?verify_time:float ref ->
  ?bundle_dir:string ->
  stage:string ->
  Prog.t ->
  Cpr_sim.Equiv.input list ->
  compiled Cpr_resilience.Recover.protected
(** Run the named stage ({!find}) under
    {!Cpr_resilience.Recover.protect}: on an exception or a verifier
    rejection the result is [Fell_back (fallback_compiled prog inputs,
    failure)] instead of a raised exception, with one retry for
    transient faults.
    [bundle_dir] additionally writes a replayable crash bundle on
    failure.  Raises [Invalid_argument] on an unknown stage name. *)

(** {2 Both compiled codes} *)

val compile :
  ?verify_time:float ref ->
  ?table:Cpr_sched.Sched_table.t ->
  ?bundle_dir:string ->
  Prog.t ->
  Cpr_sim.Equiv.input list ->
  compiled Cpr_resilience.Recover.protected
  * compiled Cpr_resilience.Recover.protected
(** [(baseline, height_reduced)], each stage sandboxed as by
    {!protected}.  When the baseline commits, the ICBM stage runs
    {!height_reduce_prepared} on a fresh copy of it instead of preparing
    the input again; when the baseline degraded, the ICBM stage is
    [protected ~stage:"icbm"] unchanged.  Either way a failed ICBM stage
    falls back to the pre-pass input, and crash bundles record the raw
    input program.  [table] serves the committed baseline's ICBM stage:
    its schedule hazard check runs on the finished height-reduced
    program and translation validation on the committed baseline (the
    stage's input), neither of which is rewritten afterwards, so a
    caller that schedules the returned codes with the same table reuses
    that work. *)

val equivalent :
  compiled -> compiled -> Cpr_sim.Equiv.input list -> (unit, string) result
(** [equivalent baseline reduced inputs]: the
    {!Cpr_sim.Equiv.check_many} verdict, computed from the two codes'
    observations; a code without observations is interpreted again. *)
