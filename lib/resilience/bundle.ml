module Obs = Cpr_obs.Obs
module Json = Cpr_obs.Json

let default_dir = "_crash"
let c_written = Obs.counter "bundle.written"
let input_file dir = Filename.concat dir "input.cpr"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write ?(dir = default_dir) ?(retries = 0) ?(findings = [])
    ?(inputs = []) ~stage ~reason ~prog () =
  match
    let text = Cpr_ir.Printer.to_text prog in
    let id =
      Printf.sprintf "%s-%s" stage
        (String.sub
           (Digest.to_hex (Digest.string (stage ^ "\x00" ^ reason ^ "\x00" ^ text)))
           0 12)
    in
    let bdir = Filename.concat dir id in
    mkdir_p bdir;
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      "# cpr crash bundle (replay with `lint --replay-bundle` or `fuzz \
       --replay-bundle`)\n";
    Buffer.add_string buf (Printf.sprintf "# stage: %s\n" stage);
    Buffer.add_string buf (Printf.sprintf "# reason: %s\n" (one_line reason));
    List.iter
      (fun i ->
        Buffer.add_string buf
          (Printf.sprintf "# input: %s\n" (Cpr_sim.Equiv.input_to_string i)))
      inputs;
    Buffer.add_string buf text;
    write_file (input_file bdir) (Buffer.contents buf);
    let rendered_findings =
      List.map (fun f -> Format.asprintf "%a" Cpr_verify.Finding.pp f) findings
    in
    let meta =
      Json.(
        Obj
          ([
             ("id", Str id);
             ("stage", Str stage);
             ("reason", Str (one_line reason));
             ("retries", Num (float_of_int retries));
             ("inputs", Num (float_of_int (List.length inputs)));
             ("findings", Arr (List.map (fun f -> Str f) rendered_findings));
           ]))
    in
    write_file (Filename.concat bdir "meta.json") (Json.to_string meta);
    if rendered_findings <> [] then
      write_file
        (Filename.concat bdir "findings.txt")
        (String.concat "\n" rendered_findings ^ "\n");
    if Obs.enabled () then
      write_file (Filename.concat bdir "trace.json") (Obs.Trace.to_string ());
    Obs.incr c_written;
    bdir
  with
  | bdir -> Ok bdir
  | exception Sys_error msg -> Error msg
  | exception e -> Error (Printexc.to_string e)
