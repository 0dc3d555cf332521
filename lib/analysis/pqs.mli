open Cpr_ir

(** Predicate query system.

    Elcor's "predicate-cognizant" analyses (Johnson & Schlansker, MICRO-29)
    answer queries such as "are these two predicates disjoint?".  Each
    predicate value is a boolean function over {e condition literals}: one
    literal per [cmpp] operation instance (both destinations of a [cmpp]
    share the literal, with opposite polarities for UN/UC), plus opaque
    literals for predicates that are live into a region.  Distinct
    literals are independent.

    Functions are reduced ordered BDDs (Sias, Hwu & August, MICRO-33), so
    every query is exact: {!disjoint} and {!implies} answer "no" only
    when an assignment of the literals refutes the property.  See
    DESIGN.md "Predicate engine: reduced ordered BDDs". *)

type key =
  | Cond of int  (** condition computed by the [cmpp] with this op id *)
  | Entry of int  (** opaque: predicate register live into the region *)

type t

val tru : t
val fls : t
val const : bool -> t
val cond_lit : int -> t
val entry_lit : Reg.t -> t

val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t

val is_const_false : t -> bool
val is_const_true : t -> bool

val disjoint : t -> t -> bool
(** [disjoint a b]: [a] and [b] are never simultaneously true. *)

val implies : t -> t -> bool
(** [implies a b]: whenever [a] holds, [b] holds. *)

val subst : (key -> t) -> t -> t
(** [subst f t] replaces every literal [k] of [t] by the function [f k]:
    [eval s (subst f t) = eval (fun k -> eval s (f k)) t].  [f] is called
    only on the literals [t] depends on. *)

val eval : (key -> bool) -> t -> bool
(** Evaluate under a truth assignment of the literals. *)

val keys : t -> key list
(** The literals the function is built on, sorted, without repeats. *)

val pp : Format.formatter -> t -> unit
(** The irredundant sum of products of the function, literals and terms
    sorted: [c3&~c5 | p2@entry], [true], [false]. *)

val invalidate : unit -> unit
(** Drop the calling domain's node table and operation cache.
    Outstanding values stay valid and every query on them stays exact;
    they only stop being shared with values built later. *)

val trim : unit -> unit
(** {!invalidate}, but only once the node table exceeds a real program's
    working set.  Literals are keyed by op id, so nodes stay meaningful
    across programs and invalidation exists to bound memory;
    program-boundary hooks ({!Cpr_pipeline.Passes} preparation,
    {!Cpr_verify.Verify.check_program}) call [trim] to keep the table
    warm across small programs in long fuzz/suite runs. *)
