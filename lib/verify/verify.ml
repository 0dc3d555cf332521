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
let lint_program ?(sched = true) ?table ?only_checks prog =
  let stats = Finding.new_stats () in
  let findings = Dataflow.lint ?only_checks ~stats prog in
  let sched =
    sched
    &&
    match only_checks with
    | None -> true
    | Some cs -> List.mem "sched" cs || List.mem "sched-waw" cs
  in
  let findings =
    if sched then findings @ Schedcheck.check ?table ~stats prog
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

let check_stage ?sched ?(table = Cpr_sched.Sched_table.create ()) ~stage
    ~before after =
  let aft = lint_program ?sched ~table after in
  (* Baseline subtraction only matters when the output has findings at
     all, so the input program is checked lazily: in the common
     all-clean case the input check is skipped entirely (the report's
     stats are the output's either way). *)
  let fresh =
    match aft.findings with
    | [] -> []
    | aft_findings ->
      (* The base run only exists to subtract same-kind findings
         (Finding.key starts with the check name), so restrict it to the
         check kinds the output actually reported — typically a handful
         of warnings, far cheaper than a full re-lint. *)
      let wanted =
        List.sort_uniq compare
          (List.map (fun f -> f.Finding.check) aft_findings)
      in
      let base = lint_program ?sched ~table ~only_checks:wanted before in
      (* Key the input's findings with the identity resolver (its ops are
         the originals) and the output's through one-step [orig] chasing,
         so a finding inherited from the input doesn't re-report just
         because the op carrying it was copied. *)
      let origs = Hashtbl.create 64 in
      List.iter
        (fun (r : Region.t) ->
          List.iter
            (fun (op : Op.t) ->
              match op.Op.orig with
              | Some o -> Hashtbl.replace origs op.Op.id o
              | None -> ())
            r.Region.ops)
        (Prog.regions after);
      let resolve id =
        Option.value ~default:id (Hashtbl.find_opt origs id)
      in
      let base_keys = Hashtbl.create 17 in
      List.iter
        (fun f ->
          Hashtbl.replace base_keys
            (Finding.key ~resolve_op:(fun id -> id) f)
            ())
        base.findings;
      List.filter
        (fun f ->
          not (Hashtbl.mem base_keys (Finding.key ~resolve_op:resolve f)))
        aft_findings
  in
  let tv =
    match stage with
    | "superblock" | "baseline" -> []
    | _ -> Tv.validate ~table ~stats:aft.stats ~stage ~before after
  in
  observe { findings = fresh @ tv; stats = aft.stats }

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
  match errors (check_stage ?sched ?table ~stage ~before after) with
  | [] -> ()
  | errs -> raise (Verify_error errs)
