(** Static regression checking of corpus artifacts: the verifier as the
    only oracle, no simulation.

    For each {!Corpus.entry} the transform is re-applied and
    {!Cpr_verify.Verify.check_stage} run on the (correct) output — which
    must be clean — and then once more per {!Fault.t} with the fault
    injected — which must be caught.  Each fault models one historical
    miscompile class (the bypass-without-compensation and
    dropped-pred-init bugs of the first fuzzing campaign, the Set-3
    sinking bug of icbm-seed1921), so a corpus sweep demonstrates that
    the static verifier alone flags every known bug class on its own
    shrunk reproducer, with zero simulator-oracle invocations.  (The
    transform itself profiles its input as part of compilation; that is
    not a verification oracle.) *)

type fault_result =
  | Caught of string  (** first error finding, printed *)
  | Missed
  | Inapplicable  (** the fault did not change the program *)

type entry_result = {
  entry : Corpus.entry;
  clean : (unit, string) result;
      (** verifier verdict on the unfaulted transform output *)
  faults : (Fault.t * fault_result) list;
}

val check_entry : Corpus.entry -> (entry_result, string) result
(** [Error] when the transform raises. *)

val check_dir : string -> (string * (entry_result, string) result) list
(** {!check_entry} over {!Corpus.load_dir}, keyed by path; load errors
    surface as [Error]. *)
