module Obs = Cpr_obs.Obs

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
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let write_cpr path ~title ~fields ~inputs prog =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# %s\n" title;
      List.iter
        (fun (k, v) -> Printf.fprintf oc "# %s: %s\n" k (one_line v))
        fields;
      List.iter
        (fun i ->
          Printf.fprintf oc "# input: %s\n" (Cpr_sim.Equiv.input_to_string i))
        inputs;
      output_string oc (Cpr_ir.Printer.to_text prog))

let write ?(dir = default_dir) ?(findings = []) ?(inputs = []) ~stage ~reason
    ~prog () =
  match
    let text = Cpr_ir.Printer.to_text prog in
    let id =
      Printf.sprintf "%s-%s" stage
        (String.sub
           (Digest.to_hex (Digest.string (stage ^ "\x00" ^ reason ^ "\x00" ^ text)))
           0 12)
    in
    let bdir = Filename.concat dir id in
    write_cpr (input_file bdir)
      ~title:
        "cpr crash bundle (replay with `lint --replay-bundle` or `fuzz \
         --replay-bundle`)"
      ~fields:[ ("stage", stage); ("reason", reason) ]
      ~inputs prog;
    if findings <> [] then
      write_file
        (Filename.concat bdir "findings.txt")
        (String.concat "\n"
           (List.map (Format.asprintf "%a" Cpr_verify.Finding.pp) findings)
        ^ "\n");
    if Obs.enabled () then
      write_file (Filename.concat bdir "trace.json") (Obs.Trace.to_string ());
    Obs.incr c_written;
    bdir
  with
  | bdir -> Ok bdir
  | exception Sys_error msg -> Error msg
  | exception e -> Error (Printexc.to_string e)
