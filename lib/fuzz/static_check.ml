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
  let before =
    Cpr_pipeline.Passes.before ~stage:stage.Stage.name e.Corpus.prog
      e.Corpus.inputs
  in
  let errors prog =
    Cpr_verify.Verify.errors
      (Cpr_verify.Verify.check_stage ~stage:stage.Stage.name ~before prog)
  in
  match stage.Stage.apply e.Corpus.prog e.Corpus.inputs with
  | exception ex -> Error ("transform raised: " ^ Printexc.to_string ex)
  | candidate ->
    let clean =
      match errors candidate with
      | [] -> Ok ()
      | f :: _ -> Error (Format.asprintf "%a" Cpr_verify.Finding.pp f)
    in
    let faults =
      List.map
        (fun fault ->
          let cand = stage.Stage.apply e.Corpus.prog e.Corpus.inputs in
          let pristine = Printer.to_text cand in
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
