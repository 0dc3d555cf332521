open Cpr_ir

(** Resource-bound lower bound on a region's schedule length.

    The ResMII-style bound of modulo-scheduling literature (Rau, MICRO-27),
    applied to acyclic regions: if a functional-unit class [c] must issue
    [n_c] operations through [s_c] slots per cycle, the last of them cannot
    issue before cycle [ceil(n_c / s_c) - 1], and the schedule cannot
    finish before that issue completes — so
    [(ceil(n_c / s_c) - 1) + min-latency-of-class] is a true lower bound
    on the achieved length, whatever order the scheduler picks.  The
    sequential machine additionally issues at most one operation of any
    class per cycle, bounding the total the same way.

    Deliberately {e not} an exact resource model (no slot assignment, no
    issue-window packing): the bound must be sound and cheap — it is
    queried for every region on every machine by [lint --heights] and
    the medium-machine bound estimate — and counting per class over
    {!Cpr_machine.Descr} issue widths is both.
    Exactness is the scheduler's job; see DESIGN.md "Static height
    analysis". *)

type class_bound = {
  fu : Cpr_machine.Descr.fu;
  count : int;  (** operations of this class in the region *)
  slots : int;  (** issue slots per cycle for this class *)
  bound : int;  (** lower bound this class alone imposes *)
}

type t = {
  total_ops : int;
  classes : class_bound list;
      (** classes with at least one operation, in [I; F; M; B] order *)
  bound : int;
      (** the resource lower bound: max over class bounds, and over the
          total-issue-width bound on the sequential machine; 0 for an
          empty region *)
}

val of_ops : Cpr_machine.Descr.t -> Op.t array -> t
val of_region : Cpr_machine.Descr.t -> Region.t -> t
