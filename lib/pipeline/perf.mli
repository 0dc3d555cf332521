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
    schedules each distinct region once per machine [issue]. *)

val estimate_exit_aware :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int
(** Ablation refinement: entries leaving through a side exit are charged
    only up to the exit branch's completion, instead of the full region
    schedule length. *)

val bound_estimate :
  ?table:Cpr_sched.Sched_table.t -> Cpr_machine.Descr.t -> Prog.t -> int
(** {!estimate} with each region's schedule length replaced by its static
    lower bound ({!Cpr_analysis.Height.summarize} of the region's graph
    from [table]): Σ region bound × profiled entry count, without
    scheduling.  Always at most {!estimate}; the difference is the
    schedule-quality gap [Report.run] records as [height_gap]. *)

val speedup : baseline:int -> transformed:int -> float
