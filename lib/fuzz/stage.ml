open Cpr_ir
module Passes = Cpr_pipeline.Passes

type t = {
  name : string;
  run : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t * Prog.t;
  apply : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t;
}

let make name run =
  { name; run; apply = (fun prog inputs -> snd (run prog inputs)) }

(* The driver verifies candidates itself (when asked to), with the
   findings routed into its outcome accounting — so the Passes-internal
   verification is off in every [run] below. *)
let of_pass (s : Passes.stage) =
  make s.Passes.name (fun prog inputs ->
      let input, c = Passes.run_with_input ~verify:false s prog inputs in
      (input, c.Passes.prog))

(* If-conversion and unrolling upstream of ICBM, end to end, the way a
   production pipeline would compose them. *)
let fullpipe =
  let step name p =
    let s = Option.get (Passes.find name) in
    let (_ : Cpr_core.Icbm.region_stats option) =
      s.Passes.transform Cpr_core.Heur.default
        ~live:(Cpr_analysis.Liveness.tracker p) p
    in
    ()
  in
  make "fullpipe" (fun prog inputs ->
      let p = Passes.prepare prog inputs in
      let input = Prog.copy p in
      step "ifconv" p;
      step "unroll" p;
      Passes.profile p inputs;
      step "icbm" p;
      Validate.check_exn p;
      Passes.profile p inputs;
      (input, p))

let all = List.map of_pass Passes.stages @ [ fullpipe ]
let find name = List.find_opt (fun s -> s.name = name) all
let names = String.concat "," (List.map (fun s -> s.name) all)

let parse spec =
  if spec = "all" then Ok all
  else
    let parts = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match find (String.trim p) with
        | Some s -> go (s :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown stage %S (expected one of %s)" p names))
    in
    go [] parts
