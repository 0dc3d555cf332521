open Cpr_ir

type entry = {
  path : string;
  seed : int;
  stage : string;
  reason : string;
  shape : string;
  prog : Prog.t;
  inputs : Cpr_sim.Equiv.input list;
}

let filename ~stage ~seed = Printf.sprintf "%s-seed%04d.cpr" stage seed

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* The textual input format lives with the type it serializes; the
   crash-bundle writer (Cpr_resilience.Bundle) shares it. *)
let input_to_string = Cpr_sim.Equiv.input_to_string
let input_of_string = Cpr_sim.Equiv.input_of_string

let save ~dir (repro : Shrink.t) =
  mkdir_p dir;
  let path =
    Filename.concat dir
      (filename ~stage:repro.Shrink.stage ~seed:repro.Shrink.seed)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "# cpr-fuzz counterexample (regenerate with `dune exec bin/fuzz.exe`)\n";
  Printf.fprintf oc "# seed: %d\n" repro.Shrink.seed;
  Printf.fprintf oc "# stage: %s\n" repro.Shrink.stage;
  Printf.fprintf oc "# reason: %s\n" (one_line repro.Shrink.reason);
  Printf.fprintf oc "# shape: %s\n"
    (Cpr_workloads.Gen.shape_to_string repro.Shrink.shape);
  Printf.fprintf oc "# shrink-steps: %d\n" repro.Shrink.steps;
  List.iter
    (fun i -> Printf.fprintf oc "# input: %s\n" (input_to_string i))
    repro.Shrink.inputs;
  output_string oc (Printer.to_text repro.Shrink.prog);
  close_out oc;
  path

let strip_prefix prefix line =
  let n = String.length prefix in
  if String.length line >= n && String.sub line 0 n = prefix then
    Some (String.trim (String.sub line n (String.length line - n)))
  else None

(* Metadata lines keep their 1-based line numbers so a malformed one is
   reported as [path:line: ...]. *)
let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    let lines =
      List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text)
    in
    let meta, body =
      List.partition (fun (_, l) -> String.length l > 0 && l.[0] = '#') lines
    in
    let error n fmt =
      Printf.ksprintf (fun m -> Error (Printf.sprintf "%s:%d: %s" path n m)) fmt
    in
    (* The last line carrying [prefix], with its number. *)
    let last prefix =
      List.fold_left
        (fun acc (n, l) ->
          match strip_prefix prefix l with Some v -> Some (n, v) | None -> acc)
        None meta
    in
    let field prefix default =
      match last prefix with Some (_, v) -> v | None -> default
    in
    let rec parse_inputs acc = function
      | [] -> Ok (List.rev acc)
      | (n, l) :: rest -> (
        match strip_prefix "# input:" l with
        | None -> parse_inputs acc rest
        | Some v -> (
          match input_of_string v with
          | input -> parse_inputs (input :: acc) rest
          | exception (Invalid_argument msg | Failure msg) ->
            error n "malformed input %S: %s" v msg))
    in
    let seed =
      match last "# seed:" with
      | None -> Ok (-1)
      | Some (n, v) -> (
        match int_of_string_opt v with
        | Some s -> Ok s
        | None -> error n "malformed seed %S" v)
    in
    match (seed, parse_inputs [] meta) with
    | Error e, _ | _, Error e -> Error e
    | Ok seed, Ok inputs -> (
      match Parser_.of_text (String.concat "\n" (List.map snd body)) with
      | exception Parser_.Parse_error (line, msg) ->
        Error (Printf.sprintf "%s: parse error at line %d: %s" path line msg)
      | prog -> (
        match Validate.check prog with
        | e :: _ ->
          Error
            (Format.asprintf "%s: invalid program: %a" path Validate.pp_error e)
        | [] ->
          Ok
            {
              path;
              seed;
              stage = field "# stage:" "icbm";
              reason = field "# reason:" "";
              shape = field "# shape:" "";
              prog;
              inputs;
            })))

let load_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cpr")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))

let replay entry =
  match Stage.find entry.stage with
  | None -> Error (Printf.sprintf "unknown stage %S" entry.stage)
  | Some stage -> (
    let inputs =
      if entry.inputs = [] then [ Cpr_sim.Equiv.no_input ] else entry.inputs
    in
    match Driver.run_prog Driver.default_check stage entry.prog inputs with
    | Driver.Pass -> Ok ()
    | Driver.Fail r -> Error r
    | Driver.Skip r -> Error ("reference unusable: " ^ r))
