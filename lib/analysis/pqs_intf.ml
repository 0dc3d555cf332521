open Cpr_ir

(** The shared contract of the predicate query engines.

    Two implementations exist: {!Pqs}, the production hash-consed engine
    (interned expressions, memoized queries), and {!Pqs_reference}, the
    original structural-recursion engine kept as the equivalence oracle —
    the same pattern as the reference list scheduler in
    [test/test_sched.ml].  Analyses that
    need to run under either engine ({!Pred_env.Make}) are functorized
    over this signature. *)

type key =
  | Cond of int  (** condition computed by the [cmpp] with this op id *)
  | Entry of int  (** opaque: predicate register live into the region *)

let key_compare a b =
  match (a, b) with
  | Cond x, Cond y -> Int.compare x y
  | Entry x, Entry y -> Int.compare x y
  | Cond _, Entry _ -> -1
  | Entry _, Cond _ -> 1

module type S = sig
  type t

  val tru : t
  val fls : t
  val unknown : t
  val const : bool -> t
  val cond_lit : int -> t
  val entry_lit : Reg.t -> t

  val and_ : t -> t -> t
  val or_ : t -> t -> t
  val not_ : t -> t

  val is_const_false : t -> bool
  val is_const_true : t -> bool
  val is_unknown : t -> bool

  val disjoint : t -> t -> bool
  (** [disjoint a b] proves that [a] and [b] are never simultaneously
      true.  False means "cannot prove". *)

  val implies : t -> t -> bool
  (** [implies a b] proves that whenever [a] holds, [b] holds. *)

  val eval : (key -> bool) -> t -> bool option
  (** Evaluate under a truth assignment of the literals; [None] for
      {!unknown}. *)

  val keys : t -> key list
  (** Distinct literal keys appearing in the expression (empty for
      {!unknown}). *)

  val pp : Format.formatter -> t -> unit
end
