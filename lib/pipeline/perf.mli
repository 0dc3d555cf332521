open Cpr_ir

(** Compile-time performance estimation (Section 7).

    "Benchmark execution time is calculated as the sum across all blocks
    in the program of each block's schedule length weighted by its dynamic
    execution frequency."  Dynamic effects (caches, predictors) are
    ignored, as in the paper. *)

val estimate :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int
(** Paper's estimator: Σ region schedule-length × profiled entry count.
    The schedules come from [table] (a fresh one by default), so a run
    that estimates several programs or machines passes one table and
    schedules each distinct region once per machine [issue].

    A region whose charge is 0 without a schedule — here, one the
    training runs never entered — is skipped, not scheduled; each skip
    counts [perf.regions_skipped].  The sum equals the every-region sum
    ([test/perf_reference.ml]).  The same holds for the two estimators
    below, each with its own zero-charge test. *)

val estimate_exit_aware :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int
(** Ablation refinement: entries leaving through a side exit are charged
    only up to the exit branch's completion, instead of the full region
    schedule length.  Skips a region with no entry and no branch
    taken. *)

val bound_estimate :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int
(** {!estimate} with each region's schedule length replaced by its static
    lower bound ({!Cpr_analysis.Height.summarize} of the region's graph
    from [table]): Σ region bound × profiled entry count, without
    scheduling.  Always at most {!estimate}; the difference is the
    schedule-quality gap [Report.run] records as [height_gap].  Skips
    empty and never-entered regions. *)

val speedup : baseline:int -> transformed:int -> float
