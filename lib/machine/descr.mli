open Cpr_ir

(** EPIC machine descriptions.

    The paper's experiments (Section 7) use a family of regular machines
    described by an (I, F, M, B) tuple of functional-unit counts, plus a
    degenerate {e sequential} machine that issues exactly one operation of
    any type per cycle. *)

(** Functional-unit classes. *)
type fu =
  | I  (** integer ALU, compares, predicate initialization *)
  | F  (** floating point *)
  | M  (** memory *)
  | B  (** branch and prepare-to-branch *)

type issue =
  | Regular of {
      i : int;
      f : int;
      m : int;
      b : int;
    }
  | Sequential  (** exactly one operation of any type per cycle *)

type regfile = {
  gprs : int;
  preds : int;
  btrs : int;
}
(** Architectural register-file sizes, one capacity per {!Reg.cls}. *)

type t = {
  name : string;
  issue : issue;
  latency : Op.opcode -> int;
  files : regfile;
}

val fu_of_op : Op.t -> fu
val latency_of : t -> Op.t -> int

val paper_latency : Op.opcode -> int
(** Section 7: simple integer 1, simple fp 3, load 2, store 1, int/fp
    multiply 3, int/fp divide 8, branch 1.  Compares, [pbr] and predicate
    initialization are simple class-I/B operations with latency 1. *)

val sequential : t

val narrow : t
(** (2, 1, 1, 1) *)

val medium : t
(** (4, 2, 2, 1) *)

val wide : t
(** (8, 4, 4, 2) *)

val infinite : t
(** (75, 25, 25, 25) *)

val all : t list
(** The five machines in the paper's column order. *)

val regfile_size : t -> Reg.cls -> int
(** Architectural register-file capacity for a class.  The paper's cost
    model is cycles-only; these sizes (HPL-PD-flavoured, scaled with
    issue width) give the pressure analyzer a capacity to lint
    against.  The infinite machine is effectively unconstrained. *)

val slots : t -> fu -> int
(** Per-cycle issue slots for a class; [max_int] conventions are avoided —
    the sequential machine reports 1 for every class but is additionally
    limited to one total op per cycle (see {!Resource}). *)
