open Cpr_ir

(** Entry points of the static verifier.

    Two layers share the {!Finding} vocabulary: {!check_program} runs
    the single-program checks (the predicate-aware dataflow lint of
    {!Dataflow} and the EQ-model schedule hazard re-derivation of
    {!Schedcheck}); {!check_stage} additionally runs the per-stage
    translation validation of {!Tv} against the stage's input program,
    and subtracts findings already present in the input (keyed through
    {!Finding.key}, with the output's op ids the input does not have
    normalized through [orig]) so that
    replaying a shrunk reproducer whose input is already suspicious only
    reports what the stage {e introduced}.  The input is re-linted only
    for the check kinds the reported output findings hold, and not at
    all when there are none.

    The verifier never simulates: no {!Cpr_sim} oracle runs, no witness
    inputs.  Everything it reports is established by predicate algebra,
    dependence re-derivation or instance matching alone. *)

type report = {
  findings : Finding.t list;
  stats : Finding.stats;
}

val check_program : Prog.t -> report
(** Dataflow lint plus schedule hazard checks on
    {!Cpr_machine.Descr.medium}. *)

val check_stage :
  ?sched:bool -> ?table:Cpr_sched.Sched_table.t -> stage:string
  -> before:Prog.t -> Prog.t -> report
(** [check_stage ~stage ~before after]: {!check_program} on the
    transformed program [after] (without the schedule hazard checks when
    [sched:false]), minus the findings [before] already exhibits, plus
    translation validation of the [stage] (skipped for [superblock] and
    [baseline], which are the identity on region content).  The
    schedule hazard check and translation validation take their graphs
    and schedules from [table] (a fresh one by default); pass a table
    only when neither program is rewritten while it lives. *)

val errors : report -> Finding.t list

val stage_errors :
  ?sched:bool -> ?table:Cpr_sched.Sched_table.t -> stage:string
  -> before:Prog.t -> Prog.t -> Finding.t list
(** [errors (check_stage ...)]: the same errors in the same order, for
    valid programs (guards and [cmpp] destinations are predicates, op
    ids are unique), computed with work proportional to what the stage
    changed.  Every check kind has exactly one severity
    ({!Finding.kinds}) and {!Finding.key} begins with the check name, so
    only the error kinds are run, and only the input's findings of the
    output's error kinds can be subtracted from an error: the input is
    re-linted (for those kinds alone, counted by [verify.input_relints],
    as is {!check_stage}'s re-lint) only when the output has an error.
    Each per-region check gets the stage's {!Delta} and skips an
    unchanged region where its verdict is provably the input's — see
    {!Dataflow.lint}, {!Schedcheck.check} and {!Tv.validate} for the
    three rules and DESIGN.md ("Work that cannot change an answer") for
    why they hold.  {!check_stage} keeps visiting every region: it is
    the oracle the errors-only path is tested against, and its warnings
    and proved/unknown counts need the full walk.  With telemetry on,
    [verify.regions_checked] counts the output regions some check
    visited and [verify.regions_skipped] the others.  The pipeline's
    verification ({!check_stage_exn}), [Cpr_fuzz.Driver] and the corpus
    check use it; the [verify.findings] counter then counts the errors
    it returns. *)

exception Verify_error of Finding.t list
(** Carries only the error-severity findings; a printer is registered. *)

val check_stage_exn :
  ?sched:bool -> ?table:Cpr_sched.Sched_table.t -> stage:string
  -> before:Prog.t -> Prog.t -> unit
(** Raise {!Verify_error} carrying {!stage_errors} if there are any. *)
