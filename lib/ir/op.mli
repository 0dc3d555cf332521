(** Operations of the predicated PlayDoh-style IR.

    Every operation carries a guard predicate ([if p] in the paper's
    figures); an operation whose guard evaluates to false is nullified,
    except for the unconditional destinations of [cmpp] operations, which
    write 0 whenever the guard is false (Table 1 of the paper). *)

type operand =
  | Reg of Reg.t
  | Imm of int
  | Lab of string  (** branch-target label, the operand of [pbr] *)

type guard =
  | True
  | If of Reg.t  (** positive use of a predicate register *)

(** Comparison conditions of [cmpp] operations. *)
type cond =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

(** Destination action specifiers of [cmpp] (Table 1): first letter is the
    action type (Unconditional / wired-Or / wired-And), second is the mode
    (Normal / Complemented). *)
type action =
  | Un
  | Uc
  | On
  | Oc
  | An
  | Ac

(** Integer ALU opcodes (class I, latency 1 except mul/div). *)
type alu =
  | Add
  | Sub
  | Mul
  | Div
  | And_
  | Or_
  | Xor
  | Shl
  | Shr
  | Mov

(** Floating-point opcodes (class F).  Values are still machine integers in
    this reproduction; the distinction only affects unit class and latency. *)
type falu =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type opcode =
  | Alu of alu
  | Falu of falu
  | Load  (** dest <- mem[src0 + src1] *)
  | Store  (** mem[src0 + src1] <- src2 *)
  | Cmpp of cond * action * action option
      (** one or two predicate destinations; sources are the two compared
          values *)
  | Pbr  (** dest btr <- Lab target; src1 is a static hint (unused) *)
  | Branch  (** branch to the label held in the btr source when the guard
                is true *)
  | Pred_init of bool list
      (** parallel initialization of predicate destinations, e.g.
          [p71 = 1, p81 = 0, p82 = 0] (op 31 of Figure 7); counted as a
          single class-I operation *)

type t = {
  id : int;  (** unique within a program *)
  opcode : opcode;
  dests : Reg.t list;
  srcs : operand list;
  guard : guard;
  orig : int option;
      (** id of the operation this one was copied/derived from during a
          transformation, for reporting; [None] for original operations *)
}

val make :
  id:int -> ?guard:guard -> ?orig:int -> opcode -> Reg.t list -> operand list -> t

val guard_reg : t -> Reg.t option
val is_branch : t -> bool
val is_store : t -> bool
val is_load : t -> bool
val is_cmpp : t -> bool
val is_pbr : t -> bool
val is_mem : t -> bool

val is_speculatable : t -> bool
(** May the operation execute on paths where its guard is false / above a
    guarding branch?  Stores and branches are not speculatable; PlayDoh
    loads are (speculative loads), as are all ALU operations (non-trapping
    division semantics, see {!eval_alu}). *)

val writes_when_guard_false : t -> Reg.t list
(** Destinations written even under a false guard: the unconditional
    ([Un]/[Uc]) destinations of a [cmpp] (Table 1, rows with input
    predicate 0). *)

val accumulator_dests : t -> Reg.t list
(** Destinations written with wired-or / wired-and semantics, which
    read-modify-write their target and are unordered among themselves. *)

val uses : t -> Reg.t list
(** All register uses: sources, guard, and accumulator destinations (which
    read their previous value). *)

val defs : t -> Reg.t list

val eval_cond : cond -> int -> int -> bool
val negate_cond : cond -> cond

val eval_alu : alu -> int -> int -> int
(** Non-trapping integer ALU semantics: division by zero yields 0, shifts
    are masked to [0..62]. *)

val eval_falu : falu -> int -> int -> int

val cmpp_dest_update : action -> guard:bool -> cond:bool -> bool option
(** Table 1 of the paper: the value written to a [cmpp] destination for a
    given guard/comparison outcome, or [None] if the destination is left
    untouched. *)

val pp_operand : Format.formatter -> operand -> unit
val pp_guard : Format.formatter -> guard -> unit
val pp_opcode_name : Format.formatter -> opcode -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
