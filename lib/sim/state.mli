open Cpr_ir

(** Architectural machine state of one run of a decoded program.

    The three register files are arrays over the program's dense
    numbering ({!Code}); a register the program never mentions (an input
    it ignores) is kept beside them, so reads and writes by {!Reg.t}
    behave as on one unbounded file.  Memory is a hash table.  The
    representation is private to this library, whose executors index the
    files directly: elsewhere [t] is abstract. *)

type t = Machine.t

val create : Code.t -> memory:(int * int) list -> t
(** All registers 0 or false, branch-target registers unset, memory
    holding the given cells (not traced as stores). *)

val read_gpr : t -> Reg.t -> int
(** Uninitialized registers read 0 (deterministic semantics so that
    speculated reads in property tests are well-defined). *)

val read_pred : t -> Reg.t -> bool
val write_gpr : t -> Reg.t -> int -> unit
val write_pred : t -> Reg.t -> bool -> unit
val read_mem : t -> int -> int
val write_mem : t -> int -> int -> unit
(** Also appends to the store trace. *)

val store_trace : t -> (int * int) list
(** Oldest first. *)

val memory_snapshot : t -> (int * int) list
(** Sorted by address. *)
