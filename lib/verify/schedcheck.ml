open Cpr_ir
module Pqs = Cpr_analysis.Pqs
module Pred_env = Cpr_analysis.Pred_env
module Descr = Cpr_machine.Descr
module Sched_table = Cpr_sched.Sched_table
module Schedule = Cpr_sched.Schedule

(* Wiring class of a cmpp destination, when it is an accumulator
   destination: same-class writes to a common register are unordered by
   construction and must not be reported as WAW hazards. *)
let acc_class (op : Op.t) (d : Reg.t) =
  match op.Op.opcode with
  | Op.Cmpp (_, a1, a2) ->
    let action_at i = if i = 0 then Some a1 else a2 in
    let rec find i = function
      | [] -> None
      | d' :: rest ->
        if Reg.equal d d' then action_at i else find (i + 1) rest
    in
    (match find 0 op.Op.dests with
    | Some (Op.On | Op.Oc) -> Some `Or
    | Some (Op.An | Op.Ac) -> Some `And
    | _ -> None)
  | _ -> None

let machine = Descr.medium

let violation (r : Region.t) msg =
  Finding.make ~check:"sched" ~region:r.Region.label ~subject:r.Region.label
    msg

let check_region v ~stats (r : Region.t) =
  let env = Pred_env.analyze r in
  let dg = Sched_table.graph ~env v machine r in
  let sched = Sched_table.schedule v machine r in
  let findings = ref [] in
  List.iter
    (fun v -> findings := violation r v :: !findings)
    (Schedule.check machine dg sched);
  let ops = sched.Schedule.ops in
  let pc = Pred_env.path_conds env in
  let write_cond i d = Pqs.and_ pc.(i) (Pred_env.write_cond env i d) in
  let defs_at = Hashtbl.create 17 in
  Array.iteri
    (fun i (op : Op.t) ->
      let completes = sched.Schedule.cycle.(i) + Descr.latency_of machine op in
      List.iter
        (fun d ->
          let key = (d, completes) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt defs_at key) in
          let wc_i = lazy (write_cond i d) in
          List.iter
            (fun j ->
              let oj = ops.(j) in
              let same_acc =
                match (acc_class op d, acc_class oj d) with
                | Some a, Some b -> a = b
                | _ -> false
              in
              if not same_acc then
                if Pqs.disjoint (Lazy.force wc_i) (write_cond j d) then
                  stats.Finding.proved <- stats.Finding.proved + 1
                else
                  findings :=
                    Finding.make ~check:"sched-waw"
                      ~region:r.Region.label ~op:op.Op.id
                      ~subject:(Reg.to_string d)
                      (Printf.sprintf
                         "ops %d and %d both write %s completing in cycle \
                          %d and are not provably disjoint"
                         oj.Op.id op.Op.id (Reg.to_string d) completes)
                    :: !findings)
            prev;
          Hashtbl.replace defs_at key (i :: prev))
        (Op.defs op))
    ops;
  List.rev !findings

(* With a [delta], an unchanged region whose key is its input region's
   is left out: its graph and schedule are the input region's, so are
   its findings, and the subtraction would remove them all. *)
let check ?(table = Sched_table.create ()) ?delta ~stats prog =
  let v = Sched_table.version table prog in
  match delta with
  | None -> List.concat_map (check_region v ~stats) (Sweep.regions_of prog)
  | Some d ->
    let input = lazy (Sched_table.version table d.Delta.input.Delta.prog) in
    let settled r =
      match Delta.input_region d r with
      | Some b -> Sched_table.same_key v r (Lazy.force input) b
      | None -> false
    in
    List.concat_map
      (fun (r : Region.t) ->
        if r.Region.ops = [] || settled r then []
        else begin
          Delta.mark d r.Region.label;
          check_region v ~stats r
        end)
      d.Delta.output.Delta.regions
