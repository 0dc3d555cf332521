(** The DNF predicate engine that {!Cpr_analysis.Pqs} replaced, kept as
    an oracle for it: each expression is a list of conjunctions with
    syntactic subsumption, and past 256 conjunctions it degrades to
    {!unknown}, for which every query answers "cannot prove".  Its
    [disjoint] is exact on known values; its [implies] is sound but
    incomplete ([c1 | ~c1] does not imply anything it cannot see
    syntactically). *)

type key = Cpr_analysis.Pqs.key =
  | Cond of int
  | Entry of int

type t

val tru : t
val fls : t
val unknown : t
val const : bool -> t
val cond_lit : int -> t
val entry_lit : Cpr_ir.Reg.t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t
val is_unknown : t -> bool
val disjoint : t -> t -> bool
val implies : t -> t -> bool

val eval : (key -> bool) -> t -> bool option
(** [None] for {!unknown}. *)

val keys : t -> key list
(** Distinct literal keys of the DNF, sorted (empty for {!unknown}). *)

val of_cover : string -> t
(** The sum of products {!Cpr_analysis.Pqs.pp} prints, read back as a
    DNF. *)
