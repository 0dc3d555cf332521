open Cpr_ir
module Obs = Cpr_obs.Obs

type report = {
  findings : Finding.t list;
  stats : Finding.stats;
}

(* Aggregate verifier telemetry across every entry point: how many
   findings were reported, and how the predicate analysis did on the
   queries behind them (proved vs degraded-to-unknown). *)
let c_findings = Obs.counter "verify.findings"
let c_proved = Obs.counter "verify.proved"
let c_unknown = Obs.counter "verify.unknown"

let observe r =
  if Obs.enabled () then begin
    Obs.add c_findings (List.length r.findings);
    Obs.add c_proved r.stats.Finding.proved;
    Obs.add c_unknown r.stats.Finding.unknown
  end;
  r

(* Uncounted core shared by both entry points, so [check_stage]'s
   internal baseline re-lint is not double-counted in the telemetry. *)
let lint_program ?(sched = true) ?table ?only_checks ?delta prog =
  let stats = Finding.new_stats () in
  let findings = Dataflow.lint ?only_checks ?delta ~stats prog in
  let sched =
    sched
    &&
    match only_checks with
    | None -> true
    | Some cs -> List.mem "sched" cs || List.mem "sched-waw" cs
  in
  let findings =
    if sched then findings @ Schedcheck.check ?table ?delta ~stats prog
    else findings
  in
  { findings; stats }

let check_program prog =
  (* Standalone entry point (the [lint] binary, direct API use): bound
     the predicate engine's node table per program checked.  The staged
     pipeline trims in [Passes.prepare] instead, keeping the table warm
     across its own verify stages. *)
  Cpr_analysis.Pqs.trim ();
  observe (lint_program prog)

let errors r = List.filter Finding.is_error r.findings

let c_input_relints = Obs.counter "verify.input_relints"

(* [found] minus what the stage input [before] already exhibits.  The
   input is re-linted only when there is something to subtract, and only
   for the check kinds [found] holds: a finding's key starts with its
   check name, so an input finding of another kind never matches. *)
let subtract_inherited ?sched ~table ~before after found =
  match found with
  | [] -> []
  | _ ->
    Obs.incr c_input_relints;
    let wanted =
      List.sort_uniq compare (List.map (fun f -> f.Finding.check) found)
    in
    let base = lint_program ?sched ~table ~only_checks:wanted before in
    (* Key the input's findings with the identity resolver (its ops are
       the originals) and the output's through one-step [orig] chasing,
       so a finding inherited from the input doesn't re-report just
       because the op carrying it was copied.  Only ids the input does
       not have are chased: an op that survived the stage keeps its id,
       and its [orig], from an earlier stage, names an older op. *)
    let input_ids = Hashtbl.create 64 in
    List.iter
      (fun (r : Region.t) ->
        List.iter
          (fun (op : Op.t) -> Hashtbl.replace input_ids op.Op.id ())
          r.Region.ops)
      (Prog.regions before);
    let origs = Hashtbl.create 64 in
    List.iter
      (fun (r : Region.t) ->
        List.iter
          (fun (op : Op.t) ->
            match op.Op.orig with
            | Some o when not (Hashtbl.mem input_ids op.Op.id) ->
              Hashtbl.replace origs op.Op.id o
            | _ -> ())
          r.Region.ops)
      (Prog.regions after);
    Finding.subtract
      ~resolve_op:(fun id ->
        Option.value ~default:id (Hashtbl.find_opt origs id))
      ~inherited:base.findings found

(* [keep] selects the output findings that are reported (and so
   subtracted against the input); translation validation reports errors
   only. *)
let stage_report ?sched ~table ?only_checks ?delta ~keep ~stage ~before
    after =
  let aft = lint_program ?sched ~table ?only_checks ?delta after in
  let fresh =
    subtract_inherited ?sched ~table ~before after
      (List.filter keep aft.findings)
  in
  let tv =
    match stage with
    | "superblock" | "baseline" -> []
    | _ -> Tv.validate ~table ?delta ~stats:aft.stats ~stage ~before after
  in
  observe { findings = fresh @ tv; stats = aft.stats }

let check_stage ?sched ?(table = Cpr_sched.Sched_table.create ()) ~stage
    ~before after =
  stage_report ?sched ~table ~keep:(fun _ -> true) ~stage ~before after

let c_regions_checked = Obs.counter "verify.regions_checked"
let c_regions_skipped = Obs.counter "verify.regions_skipped"

(* Equal to [errors (check_stage ...)].  Each check kind has one
   severity, so the error kinds alone are run, and subtracting the
   input's findings of the output's error kinds removes exactly the
   errors the full subtraction would: an output with warnings only
   needs no input re-lint.  Each per-region check is handed the stage's
   [Delta] and skips the unchanged regions where its verdict is provably
   the input's. *)
let stage_errors ?sched ?(table = Cpr_sched.Sched_table.create ()) ~stage
    ~before after =
  let delta = Delta.compute ~before after in
  let r =
    stage_report ?sched ~table ~only_checks:Finding.error_kinds ~delta
      ~keep:Finding.is_error ~stage ~before after
  in
  if Obs.enabled () then begin
    let checked =
      List.length
        (List.filter
           (fun (r : Region.t) ->
             Hashtbl.mem delta.Delta.checked r.Region.label)
           delta.Delta.output.Delta.regions)
    in
    Obs.add c_regions_checked checked;
    Obs.add c_regions_skipped
      (List.length delta.Delta.output.Delta.regions - checked)
  end;
  r.findings

exception Verify_error of Finding.t list

let () =
  Printexc.register_printer (function
    | Verify_error fs ->
      Some
        (Format.asprintf "Verify_error:@,%a"
           (Format.pp_print_list Finding.pp)
           fs)
    | _ -> None)

let check_stage_exn ?sched ?table ~stage ~before after =
  match stage_errors ?sched ?table ~stage ~before after with
  | [] -> ()
  | errs -> raise (Verify_error errs)
