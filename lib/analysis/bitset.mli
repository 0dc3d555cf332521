(** Mutable packed bitsets over a dense [0, n) universe.

    The backing store is one int array ([Sys.int_size] bits per word), so
    the set operations the dataflow fixpoints live on — union, kill,
    equality — are word-wide boolean algebra with no allocation.
    {!Liveness} and [Cpr_verify.Dataflow] index registers densely, run
    their transfer functions over these, and convert to [Reg.Set] only at
    the API boundary (cached). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0, n). *)

val copy : t -> t
val mem : t -> int -> bool
val set : t -> int -> unit
val unset : t -> int -> unit

val union_into : into:t -> t -> bool
(** Destructive union; returns whether [into] grew.  Both sets must share
    a universe. *)

val equal : t -> t -> bool
val is_empty : t -> bool

val count_range : t -> int -> int -> int
(** [count_range t lo hi] is the number of members in [lo, hi), counted a
    word at a time: what {!Liveness} answers a per-class live-out count
    with, without listing the registers. *)

val inter : t -> t -> t
(** Fresh intersection; same-universe operands. *)

val diff : t -> t -> t
(** Fresh difference; same-universe operands. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over set indices in increasing order. *)
