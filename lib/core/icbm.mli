open Cpr_ir

(** The ICBM driver (Section 5): predicate speculation -> match ->
    restructure -> off-trace motion, followed by dead-code elimination;
    the control CPR transformation proper.

    The driver adds a conservative pre-check absent from the paper's
    prose: a CPR block is demoted to trivial (left untransformed) when the
    prospective off-trace motion would move an operation past an on-trace
    operation that depends on it (for example a moved load past an
    aliasing on-trace store), or would need to split an operation whose
    guard cannot be substituted by the on-trace FRP.  The paper's
    separability test covers the common cases; the pre-check keeps the
    transformation sound on arbitrary inputs (it never fires on
    FRP-converted superblocks with separable conditions). *)

type region_stats = {
  blocks_formed : int;
  blocks_transformed : int;
  blocks_demoted : int;  (** non-trivial blocks rejected by the pre-check *)
  ops_moved : int;
  ops_split : int;
}

val zero_stats : region_stats
val add_stats : region_stats -> region_stats -> region_stats

val to_block_refs :
  Op.t array -> Match_blocks.cpr_block list -> Restructure.block_ref list
(** Convert index-based match results into id-based block references
    (dropping trivial blocks). *)

val transform_region :
  Heur.t -> Prog.t -> Cpr_analysis.Liveness.t -> Region.t -> region_stats
(** Match + restructure + off-trace motion on one region (no speculation,
    no DCE).  The liveness must describe the program as it stands; the
    off-trace motion of each block updates it
    ({!Cpr_analysis.Liveness.tracker}). *)

val transform_region_with_blocks :
  Prog.t -> Region.t -> Restructure.block_ref list -> region_stats
(** Apply restructure + off-trace motion to explicitly given CPR blocks,
    bypassing match and the profile heuristics — used by tests to re-enact
    the paper's Section 6 example blocking exactly. *)

val run : ?heur:Heur.t -> Prog.t -> region_stats
(** The full ICBM phase sequence over every hot region of the program
    (in place): predicate speculation, match, restructure, off-trace
    motion, then global dead-code elimination.  Regions created by the
    transformation (compensation blocks) are not re-processed.  One
    liveness solution is carried through every rewrite: the program is
    analyzed at most once, and each later step updates the solution
    ({!Cpr_analysis.Liveness.update}). *)

val run_live :
  ?heur:Heur.t -> live:(unit -> Cpr_analysis.Liveness.t) -> Prog.t
  -> region_stats
(** {!run} with the caller's liveness source: [live ()] must return the
    program's liveness as it stands at each call, and is called after
    every rewrite that a later step reads liveness across (FRP
    conversion, promotion, each demotion round, each off-trace block).
    [run prog] is [run_live ~live:(Liveness.tracker prog) prog]; tests
    wrap the tracker to check every intermediate solution. *)

val pp_stats : Format.formatter -> region_stats -> unit
