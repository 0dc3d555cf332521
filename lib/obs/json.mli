(** The repository's one JSON codec: a value type, the string escaper,
    a printer and a parser, with typed accessors for decoding.

    Dependency-free (stdlib only) so every layer can use it: the Chrome
    trace exporter ({!Obs.Trace}), the bench artifact writer and reader,
    and crash-bundle metadata all go through this module. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

val escape : string -> string
(** The body of a JSON string literal (without the quotes): quote,
    backslash, and every control character below [0x20] (as [\n] or
    [\u00XX]).  Other bytes pass through unchanged. *)

val fixed : int -> float -> t
(** [fixed digits x]: [x] rounded to [digits] decimals, so it prints as
    written (e.g. [fixed 4 0.05128] prints [0.0513]). *)

val to_string : t -> string
(** Print a value.  Numbers use the shortest of [%.15g]/[%.16g]/[%.17g]
    that reads back exactly (integers have no fraction; non-finite
    numbers print as [null]).  Containers of scalars stay on one line,
    any other container puts one member per line indented by two
    spaces, and the text ends in a newline. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document.  The error names what was
    expected and the byte offset, e.g. ["expected , or } at offset 42"]. *)

(** {2 Decoding}

    Accessors for turning a parsed value into a typed one.  Each takes a
    [what] label used in its error message and raises {!Bad} on a
    mismatch; run them under {!decode}, which turns that into an
    [Error]. *)

exception Bad of string

val decode : (t -> 'a) -> string -> ('a, string) result
(** [decode f text]: parse [text] and apply [f]; parse errors and {!Bad}
    raised by [f] both become [Error]. *)

val member : string -> t -> t option
(** An object member; [None] when absent or when the value is not an
    object. *)

val field : string -> string -> t -> t
(** [field what key v]: the required member [key] of [v]. *)

val num : string -> t -> float
val int : string -> t -> int
val str : string -> t -> string
val arr : string -> t -> t list
val obj : string -> t -> (string * t) list
