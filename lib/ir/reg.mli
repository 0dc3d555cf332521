(** Virtual registers of the PlayDoh-style IR.

    PlayDoh distinguishes three register files that matter to control CPR:
    general-purpose registers ([Gpr], the [r] registers of the paper),
    one-bit predicate registers ([Pred], the [p] registers), and
    branch-target registers ([Btr], the targets prepared by [pbr]). *)

type cls =
  | Gpr
  | Pred
  | Btr

type t = {
  id : int;  (** unique within a program, per class *)
  cls : cls;
}

val gpr : int -> t
val pred : int -> t
val btr : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val cls_rank : cls -> int
(** [Gpr] 0, [Pred] 1, [Btr] 2 — the major key of {!compare}. *)

val is_pred : t -> bool

val pp : Format.formatter -> t -> unit
(** [r12], [p5], [b3] — the naming convention of the paper's figures. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
