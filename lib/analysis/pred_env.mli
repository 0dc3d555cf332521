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

  val path_conds : t -> pqs array
  (** All prefix path conditions: [(path_conds t).(i)] is the condition
      that control entering the region reaches op [i], the conjunction of
      the negated taken-expressions of the branches before it; the last
      entry, at the op count, is the condition that the region falls
      through.  One product per branch, built on the first call and
      shared by every later call on the same [t] (the array is shared:
      read it, never write it). *)

  val write_cond : t -> int -> Reg.t -> pqs
  (** [write_cond t i d]: the condition, once control reaches op [i],
      under which that op writes its destination [d]: [tru] for UN/UC
      [cmpp] destinations, which write even under a false guard
      (Table 1), else the guard expression.  Conjoin
      [(path_conds t).(i)] for the condition from region entry. *)
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
