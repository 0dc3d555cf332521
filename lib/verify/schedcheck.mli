open Cpr_ir

(** EQ-model schedule hazard check.

    Derives the dependence graph of every reachable region
    ({!Cpr_analysis.Depgraph.build}, through {!Cpr_sched.Sched_table}),
    schedules the region with the production list scheduler and asserts
    the result respects every edge and the machine's per-cycle resources
    ({!Cpr_sched.Schedule.check}).  On top of the edge check it scans
    for same-completion-cycle write-after-write hazards: two operations
    whose destinations overlap, whose completion cycles
    ([issue + latency]) coincide and whose execution conditions are not
    provably disjoint race in the EQ model — the bug class of a sinking
    transformation that forgets an output dependence, caught without a
    witness input.  Wired-or / wired-and [cmpp] destinations of the same
    wiring class are unordered by construction and excluded.

    Checks: [sched] (error, one per {!Cpr_sched.Schedule.check}
    violation; its subject is the region label, so an inherited [sched]
    error subtracts only the same region's), [sched-waw] (error). *)

val violation : Region.t -> string -> Finding.t
(** The [sched] finding for one {!Cpr_sched.Schedule.check} violation in
    the region. *)

val check :
  ?table:Cpr_sched.Sched_table.t -> ?delta:Delta.t -> stats:Finding.stats
  -> Prog.t -> Finding.t list
(** Checks the schedules for {!Cpr_machine.Descr.medium}, the machine
    the pipeline's heuristics target.  The graph and schedule of each
    region come from [table] (a fresh one by default), so the check
    builds each once.

    With a [delta] whose output is the program (the errors-only stage
    check, {!Verify.stage_errors}), an unchanged region whose
    {!Cpr_sched.Sched_table} key equals its input region's
    ({!Cpr_sched.Sched_table.same_key}) is not checked: its graph and
    schedule are the input region's, so its findings are too, and the
    subtraction of inherited findings would remove them all.  The
    regions checked are {!Delta.mark}ed. *)
