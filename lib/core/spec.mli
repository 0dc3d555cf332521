open Cpr_ir

(** Predicate speculation (Section 5.1): promotion then selective
    demotion.

    Promotion rewrites an operation's guard to [True] when executing it
    under a false guard cannot clobber a live value: the symbolic liveness
    expression of each destination must imply the current guard.  Stores,
    branches and compare-to-predicate operations are never promoted.

    Demotion restores the original guard of a promoted operation that
    directly flow-depends on a non-promoted operation whose guard is
    implied by its own original guard — such a promotion cannot reduce
    dependence height and only costs nullified issue slots. *)

type stats = {
  promoted : int;
  demoted : int;
}

val speculate_region : Prog.t -> Region.t -> stats

val speculate_region_live :
  live:(unit -> Cpr_analysis.Liveness.t) -> Region.t -> stats
(** The same on a region of the program [live] describes: [live ()] must
    return that program's liveness as it stands at each call (a
    {!Cpr_analysis.Liveness.tracker}), and is called once for promotion
    and once per demotion round.  [speculate_region prog] is this with a
    fresh tracker of [prog]. *)

val speculate : Prog.t -> stats
