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

val slot : stride:int -> t -> int
(** [slot ~stride r = cls_rank r.cls * stride + r.id]: a dense index for
    registers whose ids are below [stride] ({!Op.reg_bound} computes
    one), [3 * stride] slots in all.  Ascending slots enumerate in
    exactly {!compare} order, so analyses index arrays and bitsets with
    it instead of hashing.  Ids are program-global, so [stride] is sized
    by the program: use it in whole-program analyses, which pay it once
    per program, and key per-region tables by {!Tbl} instead. *)

val of_slot : stride:int -> int -> t
(** The register at a {!slot}. *)

val is_pred : t -> bool

val pp : Format.formatter -> t -> unit
(** [r12], [p5], [b3] — the naming convention of the paper's figures. *)

val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
