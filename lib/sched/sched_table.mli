open Cpr_ir

(** One dependence graph and one schedule per distinct region.

    A table serves every consumer that schedules finished programs
    (the estimator on both compiled codes and all five machines, the
    height bound, the pressure summary, the schedule hazard check and
    translation validation's dependence graphs).  Graphs are keyed by
    everything {!Cpr_analysis.Depgraph.build} reads — the region's ops,
    the live set at each branch target, the program's [noalias_bases],
    the per-op latency vector — plus the region's fallthrough; schedules
    additionally by the machine's [issue].  So a region that is the same
    in the baseline and the height-reduced code, or on two machines with
    the same latencies, is analyzed once.

    Entries hold no {!Cpr_analysis.Pqs} value, so trimming the predicate
    engine cannot make them stale.  A table is meant to live for one run
    over programs that are no longer rewritten: drop it with the run.
    Telemetry counts [sched.table.graph_misses] (graphs built),
    [sched.table.schedule_misses] (schedules built) and
    [sched.table.hits] (requests served from the table).  See DESIGN.md
    "One schedule per distinct region" and "Work that cannot change an
    answer". *)

type t

val create : unit -> t

type version
(** A program as the table sees it.  Make a version only after the
    program's last rewrite: a version is found again by the program's
    physical identity. *)

val version : t -> Prog.t -> version

val liveness : version -> Cpr_analysis.Liveness.t
(** The program's liveness: the one {!adopt}ed, or else computed on
    first use (counted by [sched.table.liveness]).  A version keeps it,
    and the live-at-targets key part read from it for each region
    (memoized by label and physical op list), for as long as the table
    lives — except that a table holds at most two versions' liveness at
    a time, a run's two compiled codes: making a third resident drops
    the least recently resident one's, which a later request then
    computes again. *)

val adopt : version -> Cpr_analysis.Liveness.t -> unit
(** Give the version a liveness solved elsewhere, which must describe
    the program as it stands (equal to {!Cpr_analysis.Liveness.analyze}
    of it) — the pipeline hands over ICBM's tracker solution taken after
    its last rewrite, so [Liveness.analyze] never runs on the
    height-reduced code.  Replaces any liveness the version held. *)

val same_key : version -> Region.t -> version -> Region.t -> bool
(** [same_key v r v' r']: whether region [r] of [v] and region [r'] of
    [v'] have one key — on every machine, since equal op lists have
    equal latency vectors — and so one graph and one schedule per
    [issue].  Reads the live-at-targets part of both keys (and so both
    versions' liveness) only when the rest is equal. *)

val graph :
  ?env:Cpr_analysis.Pred_env.t -> version -> Cpr_machine.Descr.t -> Region.t
  -> Cpr_analysis.Depgraph.t
(** The region's dependence graph for this machine's latencies, built on
    the first request for its key.  [env] is the region's
    {!Cpr_analysis.Pred_env.analyze}, used only when the graph is built. *)

val schedule :
  ?env:Cpr_analysis.Pred_env.t -> version -> Cpr_machine.Descr.t -> Region.t
  -> Schedule.t
(** {!List_sched.of_graph} on {!graph}, computed once per key and
    machine [issue]; a reused schedule is returned with the caller's
    region. *)

val schedule_prog :
  ?table:t -> Cpr_machine.Descr.t -> Prog.t -> (string * Schedule.t) list
(** Every region of the program, keyed by label in layout order; a fresh
    table by default. *)
