open Cpr_ir

type fault_result =
  | Caught of string
  | Missed
  | Inapplicable

type entry_result = {
  entry : Corpus.entry;
  clean : (unit, string) result;
  faults : (Fault.t * fault_result) list;
}

let check_entry (e : Corpus.entry) =
  let stage = e.Corpus.stage in
  match stage.Stage.run e.Corpus.prog e.Corpus.inputs with
  | exception ex -> Error ("transform raised: " ^ Printexc.to_string ex)
  | before, candidate ->
    let errors prog =
      Cpr_verify.Verify.stage_errors ~stage:stage.Stage.name ~before prog
    in
    let clean =
      match errors candidate with
      | [] -> Ok ()
      | f :: _ -> Error (Format.asprintf "%a" Cpr_verify.Finding.pp f)
    in
    (* The transform is deterministic: each fault goes into a copy of
       the one clean candidate rather than a fresh run of the stage. *)
    let pristine = Printer.to_text candidate in
    let faults =
      List.map
        (fun fault ->
          let cand = Prog.copy candidate in
          Fault.inject fault cand;
          if Printer.to_text cand = pristine then (fault, Inapplicable)
          else
            match errors cand with
            | [] -> (fault, Missed)
            | f :: _ ->
              (fault, Caught (Format.asprintf "%a" Cpr_verify.Finding.pp f)))
        Fault.all
    in
    Ok { entry = e; clean; faults }

let check_dir dir =
  List.map
    (fun (path, loaded) ->
      match loaded with
      | Error msg -> (path, Error msg)
      | Ok entry -> (path, check_entry entry))
    (Corpus.load_dir dir)
