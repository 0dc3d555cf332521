(** The original structural-recursion predicate query engine, kept
    verbatim as the equivalence oracle for the hash-consed {!Pqs}
    (mirroring the reference list scheduler in [test/test_sched.ml]):
    every operation
    recomputes over freshly built DNF trees, with no interning and no
    memoization.  {!Pqs} delegates its cache-miss computations to this
    module, so the two engines are algorithmically identical by
    construction; the oracle tests in [test_pqs]/[test_verify] then pin
    the caching layer itself (same answers, same printed structure) over
    random expressions and real programs. *)

include Pqs_intf.S

val iter_lits : (Pqs_intf.key -> bool -> unit) -> t -> unit
(** Every literal occurrence (key, polarity), in DNF order; nothing for
    {!unknown}.  {!Pqs} folds this into per-node polarity fingerprints
    at intern time. *)
