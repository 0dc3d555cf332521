open Cpr_ir

(** Reachability, and what a stage left untouched.

    A region of a stage output is {e unchanged} when the stage input has
    a region reachable from its entry with the same label, physically
    the same op list and the same fallthrough: every stage rewrites a
    region by giving it a new op list, so such a region is, op for op,
    the input's.  {!Verify.stage_errors} hands a {!t} to each per-region
    check, which skips an unchanged region where its verdict there is
    provably the input's (DESIGN.md, "Work that cannot change an
    answer"); the checks {!mark} the regions they do visit. *)

type side = {
  prog : Prog.t;
  regions : Region.t list;
      (** the regions reachable from the entry, in layout order *)
  succs : (string, string list) Hashtbl.t;
      (** {!Cpr_ir.Region.successors} of each reachable region, by
          label *)
  exits : (string, unit) Hashtbl.t;
      (** exit labels that are a successor of a reachable region *)
}

val side : Prog.t -> side
(** One walk over the program's region graph from its entry. *)

type t = {
  input : side;
  output : side;
  unchanged : (string, Region.t) Hashtbl.t;
      (** label of each unchanged output region, to the input region it
          is *)
  checked : (string, unit) Hashtbl.t;
      (** labels some per-region check visited *)
}

val compute : before:Prog.t -> Prog.t -> t
(** The input [before], the output, and the output's unchanged regions. *)

val unchanged : t -> Region.t -> bool
(** Whether an output region is unchanged. *)

val input_region : t -> Region.t -> Region.t option
(** The input region an unchanged output region is; [None] for a changed
    one. *)

val mark : t -> string -> unit
(** Record that a per-region check visited the region with this
    label. *)
