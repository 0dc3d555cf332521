open Cpr_ir

(** Full (redundant) control CPR, after Schlansker & Kathail's MICRO-28
    scheme — the baseline the paper contrasts ICBM against (Section 4):

    "Some approaches to control CPR are redundant like full CPR which
    aggressively accelerates all paths within a region at the cost of a
    quadratic growth in the number of compares."

    For every exit branch [j] of an FRP-converted superblock a fresh
    fully-resolved taken-predicate is computed from scratch with a column
    of wired-and compares — [q_j = !c_1 & ... & !c_(j-1) & c_j] — so every
    branch's predicate is available without waiting for the serial UC
    chain, and (with value-numbered condition literals) all branches are
    mutually disjoint and may issue in parallel.  No branch is removed and
    no code moves off-trace: every path is accelerated, at the cost of
    n(n+1)/2 compare operations.

    Used by the ablation benches to reproduce the ICBM-vs-full-CPR
    trade-off the paper describes: full CPR favours very wide machines,
    ICBM wins on processors with limited issue width. *)

val transform_region : Prog.t -> Region.t -> bool
(** Requires the FRP-converted shape (first controlling compare unguarded,
    each subsequent controlling compare guarded by the previous fall-
    through predicate); returns false leaving the region untouched
    otherwise. *)

val transform : Prog.t -> int
(** Apply to every region; number transformed. *)
