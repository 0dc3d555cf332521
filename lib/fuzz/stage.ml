open Cpr_ir
module P = Cpr_pipeline

type t = {
  name : string;
  descr : string;
  apply : Prog.t -> Cpr_sim.Equiv.input list -> Prog.t;
}

(* The driver verifies candidates itself (when asked to), with the
   findings routed into its outcome accounting — so the Passes-internal
   verification is off in every [apply] below. *)
let compiled f prog inputs = (f prog inputs).P.Passes.prog

(* The end-to-end combination: if-conversion and unrolling upstream of
   ICBM, the way a production pipeline would compose them. *)
let full_pipeline prog inputs =
  let p = P.Passes.prepare prog inputs in
  let (_ : Cpr_core.Ifconv.stats) = Cpr_core.Ifconv.convert p in
  List.iter
    (fun (r : Region.t) ->
      if Cpr_core.Unroll.unrollable p r then
        ignore (Cpr_core.Unroll.unroll_region p r ~factor:2 : bool))
    (Prog.regions p);
  P.Passes.profile p inputs;
  let (_ : Cpr_core.Icbm.region_stats) = Cpr_core.Icbm.run p in
  Validate.check_exn p;
  P.Passes.profile p inputs;
  p

let all =
  [
    {
      name = "superblock";
      descr = "profile-guided superblock formation (tail duplication)";
      apply = compiled (P.Passes.superblock_only ~verify:false);
    };
    {
      name = "ifconv";
      descr = "classic if-conversion of unbiased side exits";
      apply = compiled (P.Passes.if_convert ~verify:false);
    };
    {
      name = "frp";
      descr = "fully-resolved-predicate conversion";
      apply = compiled (P.Passes.frp_convert ~verify:false);
    };
    {
      name = "spec";
      descr = "FRP conversion + predicate speculation";
      apply = compiled (P.Passes.speculate ~verify:false);
    };
    {
      name = "unroll";
      descr = "superblock loop unrolling (factor 2)";
      apply = compiled (fun p i -> P.Passes.unroll ~verify:false p i);
    };
    {
      name = "fullcpr";
      descr = "full (redundant) CPR after Schlansker & Kathail";
      apply = compiled (P.Passes.full_cpr ~verify:false);
    };
    {
      name = "icbm";
      descr = "the ICBM schema (speculate, match, restructure, off-trace)";
      apply = compiled (fun p i -> P.Passes.height_reduce ~verify:false p i);
    };
    {
      name = "fullpipe";
      descr = "if-conversion + unrolling + ICBM, end to end";
      apply = full_pipeline;
    };
  ]

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
