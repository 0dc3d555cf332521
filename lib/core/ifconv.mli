open Cpr_ir

(** Classic if-conversion for terminal diamonds (Allen et al., POPL-10;
    [DT93]; [MLC+92] in the paper's bibliography).

    The paper notes that control CPR leaves unbiased branches alone and
    that "the compiler could employ traditional if-conversion to eliminate
    many unbiased branches and thus further improve the effectiveness of
    control CPR" (Section 7).  This pass eliminates a side exit whose
    target is a branch-free stub rejoining at the region's own
    fallthrough: the stub is inlined predicated on the branch's taken
    predicate, the remaining on-trace operations are predicated on the
    new fall-through predicate, and the branch disappears.  The resulting
    region is a hyperblock — which ICBM accepts as input (its suitability
    test was designed for exactly such embedded predication). *)

type stats = {
  converted : int;  (** branches eliminated *)
  inlined_ops : int;
}

val convert_region : ?only_unbiased:bool -> Prog.t -> Region.t -> stats
(** [only_unbiased] (default true) converts only branches whose profiled
    taken ratio lies in [0.2, 0.8] — biased branches are better left for
    control CPR.  A stub of more than 12 operations is never inlined. *)

val convert : ?only_unbiased:bool -> Prog.t -> stats
