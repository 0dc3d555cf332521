(** Replayable crash bundles.

    Every recovered (or fatal) failure can be quarantined as a directory
    [_crash/<id>/] holding everything needed to re-run it
    deterministically:

    {v
    _crash/<stage>-<digest>/
      input.cpr     input IR + "# stage:"/"# reason:"/"# input:" header
                    (the fuzz-corpus artifact format, so Cpr_fuzz.Corpus
                    loads it unchanged)
      findings.txt  pretty-printed verifier findings (when any)
      trace.json    Chrome-trace telemetry snapshot (when Cpr_obs is
                    enabled)
    v}

    The id is a content digest of the stage, reason and program text, so
    re-hitting the same failure overwrites the same bundle instead of
    accumulating duplicates.  [lint --replay-bundle DIR] re-verifies the
    bundle statically; [fuzz --replay-bundle DIR] re-runs the full
    differential oracle battery on it. *)

val default_dir : string
(** ["_crash"]. *)

val write :
  ?dir:string ->
  ?findings:Cpr_verify.Finding.t list ->
  ?inputs:Cpr_sim.Equiv.input list ->
  stage:string ->
  reason:string ->
  prog:Cpr_ir.Prog.t ->
  unit ->
  (string, string) result
(** Write a bundle under [dir] (default {!default_dir}); returns the
    bundle directory, or [Error] with the OS message if the filesystem
    refused — writing a bundle must never raise out of a recovery
    path.  Bumps the [bundle.written] counter on success. *)

val input_file : string -> string
(** [input_file dir] is the [input.cpr] path inside a bundle dir. *)

val write_cpr :
  string ->
  title:string ->
  fields:(string * string) list ->
  inputs:Cpr_sim.Equiv.input list ->
  Cpr_ir.Prog.t ->
  unit
(** [write_cpr path ~title ~fields ~inputs prog] writes one [.cpr]
    artifact, creating its directory if needed: a [# title] line, a
    [# key: value] line per field (line breaks in the value become
    spaces), a [# input:] line per input, then the program text.  The
    one writer of the format [Cpr_fuzz.Corpus.load] reads, for crash
    bundles and fuzz-corpus artifacts alike.  Raises [Sys_error]. *)
