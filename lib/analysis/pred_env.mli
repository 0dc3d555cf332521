open Cpr_ir

(** Symbolic predicate environments for a region.

    Scans a region top-down and assigns each predicate definition a {!Pqs}
    expression (relative to region entry): [cmpp] destinations get
    expressions over that cmpp's condition literal and the guard's
    expression, honouring the UN/UC/ON/OC/AN/AC semantics of Table 1;
    predicates live into the region get opaque entry literals; a [cmpp]
    whose two sources are both immediates folds to a constant. *)

module type S = sig
  type pqs
  (** The query-engine expression type ({!Pqs.t} in production). *)

  type t

  val analyze : Region.t -> t

  val ops : t -> Op.t array

  val guard_expr : t -> int -> pqs
  (** Expression of the guard of the op at this index, in the environment
      at that point.  [tru] for unguarded ops. *)

  val reg_expr_before : t -> int -> Reg.t -> pqs
  (** Value of a predicate register just before the op at this index. *)

  val reg_expr_at_end : t -> Reg.t -> pqs

  val taken_expr : t -> int -> pqs
  (** For a branch at this index: the condition under which it takes
      (its guard expression). *)

  val path_cond : t -> int -> int -> pqs
  (** [path_cond t i j] with [i <= j]: the condition that sequential
      control started at op [i] reaches op [j], i.e. the conjunction of
      the negated taken-expressions of the branches in [i, j). *)

  val path_conds : t -> pqs array
  (** All prefix path conditions at once: [(path_conds t).(i) = path_cond
      t 0 i].  One linear product instead of a quadratic family, built on
      the first call and shared by every later call on the same [t] (the
      array is shared: read it, never write it).  Use it whenever more
      than one prefix of the same region is needed. *)

  val fallthrough_expr : t -> pqs
  (** Condition that the region is exited by falling through: no branch
      takes. *)
end

(** The seven constructors the analysis builds expressions with. *)
module type ENGINE = sig
  type t

  val tru : t
  val const : bool -> t
  val cond_lit : int -> t
  val entry_lit : Reg.t -> t
  val and_ : t -> t -> t
  val or_ : t -> t -> t
  val not_ : t -> t
end

module Make (P : ENGINE) : S with type pqs = P.t
(** The analysis over any engine, so tests can replay identical
    constructions through a reference engine and compare the functions
    it builds with {!Pqs}'s. *)

include S with type pqs = Pqs.t
