(** Linear code regions.

    A region is a single-entry linear sequence of operations with inline
    (side-)exit branches — the program form on which control CPR operates.
    Conventional superblocks, FRP-converted superblocks, hyperblocks and the
    compensation blocks created by ICBM are all regions.  Control falls
    through to [fallthrough] when no branch takes.

    Regions carry the branch-profile data used by the exit-weight and
    predict-taken heuristics: an entry count and a per-branch taken count. *)

type t = {
  label : string;
  mutable ops : Op.t list;
  mutable fallthrough : string option;
      (** successor label when all branches fall through; [None] means the
          program terminates *)
  mutable entry_count : int;
  taken : (int, int) Hashtbl.t;  (** branch op id -> times taken *)
}

val make : ?fallthrough:string -> string -> Op.t list -> t

val branches : t -> Op.t list
(** Branch operations in program order. *)

val branch_targets : t -> (Op.t * string option) list
(** Every branch in program order with its static target: the label
    prepared by the last [pbr] before the branch that writes the
    branch's btr source; [None] when the branch has no btr source or no
    preceding [pbr] defines it.  One pass over the region resolves every
    branch. *)

val targets_by_index : t -> string option array
(** The same targets by op index, from the same single pass: [None] at
    every non-branch op. *)

val reaching_pbr : t -> Op.t -> Op.t option
(** The [pbr] operation a branch's target resolves through: the last one
    before the branch defining its btr source. *)

val taken_count : t -> int -> int
(** Profiled taken count of the branch with the given op id (0 if never
    recorded). *)

val add_entries : t -> int -> unit
(** [add_entries r n] counts [n] more entries into [r]. *)

val add_taken : t -> int -> int -> unit
(** [add_taken r id n] counts [n] more takes of the branch with op id
    [id]. *)

val clear_profile : t -> unit

val successors : t -> string list
(** All static successor labels: branch targets then fallthrough,
    deduplicated. *)

val find_op : t -> int -> Op.t option

val op_index : t -> int -> int
(** Position of the op with the given id; raises [Not_found]. *)

val static_op_count : t -> int

val copy : t -> t
(** Deep copy (fresh op list cells, fresh profile table) sharing op ids. *)

val pp : Format.formatter -> t -> unit
