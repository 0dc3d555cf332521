open Cpr_ir

(** Experiment harness: reproduces the paper's Table 2 (speedups across
    the five processors) and Table 3 (static/dynamic operation-count
    ratios on the medium processor) for one benchmark program, and checks
    baseline/height-reduced semantic equivalence on every training input
    along the way. *)

type result = {
  name : string;
  speedups : (string * float) list;
      (** machine name -> baseline cycles / height-reduced cycles, in
          paper column order Seq Nar Med Wid Inf *)
  s_tot : float;
  s_br : float;
  d_tot : float;
  d_br : float;  (** Table 3 ratios (height-reduced / baseline) *)
  baseline_cycles : (string * int) list;
  reduced_cycles : (string * int) list;
  icbm : Cpr_core.Icbm.region_stats;
  equivalent : (unit, string) Result.t;
  failures : Cpr_resilience.Recover.failure list;
      (** per-stage recovery records; empty on a clean run.  Non-empty
          means the workload ran {e degraded}: the failing stage's
          output was replaced by the verified pre-pass fallback, so its
          numbers measure the fallback, not the optimization. *)
  bound_cycles : int;
      (** static lower bound on the height-reduced code's cycles on the
          medium machine ({!Perf.bound_estimate}): what a perfect
          scheduler could not beat *)
  achieved_cycles : int;
      (** the medium-machine entry of [reduced_cycles] — what list
          scheduling achieved *)
  height_gap : float;
      (** [(achieved - bound) / bound]; 0 when the schedule is provably
          optimal against the static model *)
  pressure : (string * int) list;
      (** class name ("gpr"/"pred"/"btr") -> worst-region predicate-aware
          scheduled MAXLIVE of the height-reduced code on the medium
          machine ({!Cpr_verify.Pressurecheck.summary}): the register
          cost paid for the height win; compared, with [height_gap], by
          the cprbench fingerprint and [test_pipeline] *)
  verify_s : float;
      (** wall time the static verifier spent on this benchmark (both
          compiled codes); [tables.exe] prints its suite total against the
          suite's [total_s] *)
  total_s : float;
      (** wall time of the whole [run] for this benchmark — compilation,
          verification, equivalence oracle and performance estimation *)
}

val degraded : result -> bool
(** [failures <> []]. *)

val run :
  ?bundle_dir:string -> name:string -> Prog.t -> Cpr_sim.Equiv.input list
  -> result
(** Both compilations come from {!Passes.compile}, each stage
    sandboxed: a pass failure degrades the workload (see
    {!type:result.failures}) instead of aborting the suite.
    [bundle_dir] writes a replayable crash bundle per recovered
    failure.  The equivalence verdict is {!Passes.equivalent}, taken
    from the final profiling runs; the observations are dropped once it
    is computed. *)

val run_many :
  ?pool:Cpr_par.Pool.t -> ?bundle_dir:string
  -> (string * Prog.t * Cpr_sim.Equiv.input list) list -> result list
(** {!run} over a whole suite.  [?pool] distributes benchmarks across
    domains; results come back in input order either way, so the two
    paths print identically.  Do not call from inside a task already
    running on [pool]. *)

val gmean : float list -> float

val print_table2 : Format.formatter -> result list -> unit
(** Rows per benchmark, columns Seq/Nar/Med/Wid/Inf, with geometric
    means over all rows and over the SPECint95 rows
    ({!Cpr_workloads.Registry.spec95_names}, when any are present) — the
    layout of Table 2. *)

val print_table3 : Format.formatter -> result list -> unit
