open Cpr_ir

(** Allocatability lint: predicate-aware MAXLIVE vs register-file size.

    For every reachable non-empty region (the {!Sweep} enumeration) and
    every register class, computes the {!Cpr_analysis.Pressure} figures —
    the unscheduled program-point sweep and the exact per-cycle count
    over the {!Cpr_sched.List_sched} schedule — and reports:

    - [pressure-unallocatable] (error): the scheduled MAXLIVE exceeds
      the machine's register file for that class; no allocator can place
      the region without spill code the cycles-only cost model never
      accounted for.
    - [pressure-growth] (warning, only with [baseline]): the program's
      worst-region MAXLIVE for a class grew past [growth_factor] times
      the baseline figure (plus an absolute grace of 4) — CPR is paying
      heavily in registers for its height win.

    Like {!Heightcheck}, none of this runs in default pipeline
    verification; it is quality lint surfaced through [lint --pressure]. *)

type row = {
  region : string;
  cls : Reg.cls;
  sweep_maxlive : int;  (** predicate-aware, unscheduled program points *)
  sched_maxlive : int;  (** predicate-aware, per schedule cycle *)
  file_size : int;
  margin : int;  (** [file_size - max sweep_maxlive sched_maxlive] *)
}

val cls_name : Reg.cls -> string
(** ["gpr"], ["pred"], ["btr"]. *)

val rows : ?machine:Cpr_machine.Descr.t -> Prog.t -> row list
(** Three rows (one per class) per reachable non-empty region. *)

val summary :
  ?machine:Cpr_machine.Descr.t -> ?table:Cpr_sched.Sched_table.t -> Prog.t
  -> (Reg.cls * int) list
(** Worst-region scheduled MAXLIVE per class — the figure [Report.run]
    records per workload and the growth warning compares.  The schedules
    come from [table] (a fresh one by default). *)

val check :
  ?machine:Cpr_machine.Descr.t ->
  ?growth_factor:float ->
  ?baseline:Prog.t ->
  stats:Finding.stats ->
  Prog.t ->
  row list * Finding.t list
(** The {!rows} and the findings, from one sweep of the program (plus a
    {!summary} of [baseline] when given).  [growth_factor] defaults to
    1.5.  Every in-budget (region, class) pair counts as one proved
    query in [stats]. *)
