open Cpr_ir

(** A program decoded for execution.

    Decoding resolves everything the interpreter would otherwise look up
    on every step:

    - each label, once, to a region index, a program exit, or "unknown"
      (in the interpreter's order: an exit label wins over a region of
      the same name);
    - each region's ops to an array, their operands and guards to
      indices into three register files (the general, predicate and
      branch-target files), numbered densely in order of first mention
      so that sparse register ids cost no memory;
    - profile counters to int arrays, folded into the program's regions
      by {!commit_profile}.

    Only regions reachable from the entry through fallthroughs and [pbr]
    labels are decoded: no other region can run.  A malformed op decodes
    to {!Malformed}; decoding itself never fails.

    A decoded program is a snapshot: the program may be rewritten in
    place afterwards, so decode once per call that receives a program and
    keep nothing across calls. *)

type operand =
  | Gpr of int  (** general file index *)
  | Pred of int  (** predicate file index, read as 0 or 1 *)
  | Imm of int
  | Bad of string
      (** a btr or label read as a value: the interpreter's [Stuck]
          message *)

type opcode =
  | Cmpp of Op.cond * Op.action list * int list * operand * operand
      (** condition, actions, predicate-file destinations, sources *)
  | Alu of Op.alu * int * operand * operand
  | Falu of Op.falu * int * operand * operand
  | Load of int * operand * operand  (** destination, base, offset *)
  | Store of operand * operand * operand  (** base, offset, value *)
  | Pred_init of int list * bool list
  | Pbr of int * int  (** btr-file destination, label index *)
  | Branch of int  (** btr-file source *)
  | Malformed of string
      (** an op of the wrong shape, with the interpreter's message;
          a malformed [cmpp] raises under any guard, the others only
          when the guard holds *)

type op = {
  guard : int;  (** predicate file index; -1 for an unguarded op *)
  opcode : opcode;
  is_branch : bool;
  source : Op.t;
}

type target =
  | Region of int
  | Exit of string
  | Unknown of string  (** neither an exit nor a region of the program *)

type region = {
  region : Region.t;
  ops : op array;  (** program order, as [region.ops] *)
  fallthrough : target option;
}

type t = {
  prog : Prog.t;
  regions : region array;
  entry : target;
  targets : target array;  (** per label index *)
  labels : string array;  (** per label index *)
  gprs : int Reg.Tbl.t;  (** general file numbering *)
  preds : int Reg.Tbl.t;  (** predicate file numbering *)
  btrs : int Reg.Tbl.t;  (** branch-target file numbering *)
  entries : int array;  (** per region, entries counted by profiling runs *)
  taken : int array array;  (** per region and op, times the branch took *)
}

val decode : Prog.t -> t

val commit_profile : t -> unit
(** Add the counters to the decoded regions' entry and taken counts,
    then zero them. *)
