(** Findings reported by the static verifier.

    A finding names the check that produced it, the region and (when
    known) the op it is anchored at, and a [subject] — the register or
    label the finding is about — used to build keys that stay stable
    across a transformation (op ids are normalized through [Op.orig]
    before keys are compared). *)

type severity =
  | Error  (** provable miscompile: fails lint, raises in [Passes] *)
  | Warning  (** suspicious but not provably wrong *)

type t = {
  check : string;  (** short check name, e.g. ["pred-undef"] *)
  severity : severity;
  region : string;
  op : int option;
  subject : string;  (** register / label the finding concerns *)
  msg : string;
}

type stats = {
  mutable proved : int;
      (** queries the predicate analysis settled positively *)
  mutable unknown : int;
      (** queries that degraded to "cannot prove" (no finding emitted) *)
}

val new_stats : unit -> stats

val kinds : (string * severity) list
(** Every check kind the verifier reports, with its one severity — the
    only place a finding's severity is decided.  A finding's
    {!key} begins with its kind, so subtracting an input's findings of
    one kind never needs the input's findings of another. *)

val severity_of : string -> severity
(** The severity {!kinds} gives a check kind; raises [Invalid_argument]
    for a kind it does not list. *)

val error_kinds : string list
(** The kinds of {!kinds} whose severity is [Error], in table order. *)

val make :
  check:string -> region:string -> ?op:int -> ?subject:string -> string -> t
(** A finding of kind [check], with the severity {!severity_of} gives
    it. *)

val is_error : t -> bool

val key : resolve_op:(int -> int) -> t -> string
(** Stable identity of a finding across a transformation: check name,
    subject and the op id after [resolve_op] (callers pass the
    [Op.orig]-chasing normalizer).  The region label is deliberately
    excluded — transformations rename and merge regions. *)

val subtract : resolve_op:(int -> int) -> inherited:t list -> t list -> t list
(** [subtract ~resolve_op ~inherited found]: the findings of [found]
    whose {!key}, op ids through [resolve_op], no finding of [inherited]
    has, keyed with its op ids as they are — a stage output's findings
    minus those its input already exhibits. *)

val pp : Format.formatter -> t -> unit
