(** Bench-harness persistence: writing the [BENCH_*.json] artifacts,
    reading them back, and comparing a fresh run against a committed
    baseline ([bench --check]).

    Lives in the library (rather than inline in [bench/main.ml]) so the
    path normalization, JSON escaping and regression-detection logic are
    unit-testable — each has regressed silently before.

    Writing and reading both go through {!Cpr_obs.Json}, so any valid
    JSON spelling of the document (minified, reindented) reads back the
    same, and anything else is an error rather than an empty baseline. *)

val json_escape : string -> string
(** {!Cpr_obs.Json.escape}. *)

val targets : is_dir:bool -> date:string -> string -> string * string
(** [targets ~is_dir ~date path]: the [(dated, latest)] file pair for
    [--json path].  A directory gets [BENCH_<date>.json] and
    [BENCH_latest.json] inside it.  A file path is used verbatim with
    [BENCH_latest.json] as a sibling — normalized so a bare filename
    (no directory component) yields a bare [BENCH_latest.json] rather
    than [./BENCH_latest.json], and [dated = latest] whenever both
    resolve to the same file (so it is written once). *)

(** {2 Writing} *)

val render :
  ?pqs:(string * int) list ->
  date:string ->
  domains:int ->
  results:Report.result list ->
  micro:(string * float option) list ->
  par:(float * float) * (float * float) ->
  unit ->
  string
(** The full bench JSON document: per-workload speedups, op ratios,
    [verify_s]/[total_s] and cycle counts, top-level
    [verify_total_s]/[suite_total_s], parallel wall-clock numbers,
    micro-benchmark ns/run figures, and (when [pqs] is non-empty) the
    predicate-engine counters ([pqs.queries], [pqs.memo_hits], ...) for
    the whole run under a ["pqs"] object keyed by full dotted name.
    Seconds, speedups and ratios are rounded to 4 decimals. *)

val suite_seconds : Report.result list -> float * float
(** [(verify_total_s, suite_total_s)]: sums over the per-workload
    [verify_s] and [total_s]. *)

(** {2 Reading back} *)

val read_file : string -> string option
(** The file's contents; [None] when it does not exist. *)

type height_entry = {
  gap : float;
  h_bound : int;  (** [bound_cycles] *)
  h_achieved : int;  (** [achieved_cycles] *)
}

type workload = {
  name : string;
  verify_s : float;
  total_s : float;
  height : height_entry option;  (** absent in baselines predating it *)
  pressure : (string * int) list;
      (** [(class, maxlive)] from the ["pressure"] object; [[]] when the
          baseline has none *)
}

type baseline = {
  verify_total_s : float option;
  counters : (string * int) list;  (** the ["pqs"] object *)
  workloads : workload list;  (** the ["benchmarks"] array, in order *)
  micro : (string * float) list;
      (** [micro_ns_per_run], without entries recorded as [null] *)
}

val decode : string -> (baseline, string) result
(** Decode a document {!render} wrote.  Unknown members are ignored, so
    older and newer baselines still decode.  Malformed or truncated
    JSON, a missing ["benchmarks"] array, or a member of the wrong type
    is an [Error] naming the parser offset or the offending member. *)

val height_gap_floor_cycles : int
(** 2: minimum growth of the {e absolute} cycle gap
    ([achieved - bound]) before a height-gap warning fires — the ratio
    alone flaps on tiny workloads where one cycle of schedule noise is
    a large percentage. *)

val height_regressed : base:height_entry -> cur:height_entry -> bool
(** The [bench --check] height-gap warning test: the gap ratio grew
    past the baseline by more than a percentage point {e and} the
    absolute cycle gap grew by at least {!height_gap_floor_cycles}. *)

val pressure_floor_regs : int
(** 2: registers of MAXLIVE growth ignored as noise by
    {!pressure_regressed}. *)

val pressure_regressed : base:int -> cur:int -> bool
(** The [bench --check] per-class pressure warning test (warn-only,
    like the height gap). *)

(** {2 Baseline comparison — the CI perf gate} *)

type delta = {
  workload : string;  (** benchmark name, or ["(suite)"] *)
  metric : string;  (** ["total_s"], ["verify_s"] or ["suite_total_s"] *)
  base : float;
  cur : float;
  change_pct : float;  (** [(cur - base) / base * 100] *)
  regressed : bool;
}

val check :
  tolerance:float ->
  baseline:baseline ->
  current:(string * float * float) list ->
  delta list
(** Compare a fresh run against a decoded baseline.  [current]
    rows are [(name, verify_s, total_s)].  A metric regresses when it
    exceeds the baseline by more than [tolerance] percent {e and} by
    more than an absolute 20ms noise floor — sub-hundredth-second
    metrics on shared runners are indistinguishable from jitter.
    Workloads present on only one side are skipped, and the suite row
    sums over the {e matched} workloads only, so a [--quick] run gates
    cleanly against a full-suite baseline. *)

val missing_from_current :
  baseline:baseline -> current:(string * float * float) list -> string list
(** Baseline workloads with no row in the current run.  {!check} skips
    them (a [--quick] run must still gate against a full-suite
    baseline), but silence would also hide a workload that stopped
    running at all — [bench --check] warns with this list instead. *)

val regressions : delta list -> delta list

val pp_deltas : Format.formatter -> delta list -> unit
(** The delta table [bench --check] prints. *)
