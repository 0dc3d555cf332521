open Cpr_ir

(** Corpus persistence: shrunk counterexamples as deterministic
    regression artifacts.

    An artifact is a single [.cpr] file: a block of [#]-prefixed
    metadata lines (seed, stage, failure reason, generator shape,
    serialized inputs) followed by the program in {!Cpr_ir.Printer}'s
    canonical textual form, so it round-trips through {!Cpr_ir.Parser_}
    and diffs readably.  [test/test_fuzz.ml] replays every committed
    artifact through the differential oracle on each test run. *)

type entry = {
  path : string;
  seed : int;
  stage : Stage.t;  (** [icbm] when the artifact names none *)
  reason : string;  (** the failure this artifact was shrunk from *)
  shape : string;  (** advisory, human-readable *)
  prog : Prog.t;
  inputs : Cpr_sim.Equiv.input list;
}

val filename : stage:string -> seed:int -> string
(** ["<stage>-seed%04d.cpr"] — deterministic, so re-fuzzing the same
    failure overwrites rather than accumulates. *)

val save : dir:string -> Shrink.t -> string
(** Write the artifact (creating [dir] if needed); returns its path. *)

val load : string -> (entry, string) result
(** Read one artifact (or crash-bundle [input.cpr]).  Every failure is
    an [Error], never an exception: an unreadable file, a malformed
    [# input:] or [# seed:] line or an unknown [# stage:] (reported as
    ["<path>:<line>: ..."]),
    a parse error or an invalid program.  A missing [# seed:] line reads
    as seed [-1] (crash bundles carry none). *)

val load_dir : string -> (string * (entry, string) result) list
(** Every [.cpr] file in the directory, sorted by filename. *)

val replay : entry -> (unit, string) result
(** Push the artifact's program through its recorded stage and the full
    differential oracle (no fault injection).  [Ok] means the historical
    miscompile no longer reproduces. *)
