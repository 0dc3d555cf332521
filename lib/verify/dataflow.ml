open Cpr_ir
module Pqs = Cpr_analysis.Pqs
module Pred_env = Cpr_analysis.Pred_env
module Bitset = Cpr_analysis.Bitset

type verdict =
  | Undefined
  | Proved
  | Unknown

type query = {
  region : string;
  op_id : int;
  reg : Reg.t;
  use : Pqs.t;
  defined : Pqs.t;
  verdict : verdict;
}

let reachable_labels (prog : Prog.t) =
  let seen = Hashtbl.create 17 in
  let rec go label =
    if (not (Hashtbl.mem seen label)) && not (Prog.is_exit prog label) then begin
      match Prog.find prog label with
      | None -> ()
      | Some r ->
        Hashtbl.replace seen label ();
        List.iter go (Region.successors r)
    end
  in
  go prog.Prog.entry;
  seen

let reachable_regions prog =
  let seen = reachable_labels prog in
  List.filter
    (fun (r : Region.t) -> Hashtbl.mem seen r.Region.label)
    (Prog.regions prog)

(* The boolean half of the lint (may-defined entry sets, the edge-wise
   refinement, gpr availability) runs over packed bitsets: registers
   defined by at least one op of the program get dense indices —
   everything else is a program input, conventionally defined at entry,
   and never needs a bit. *)
type ctx = {
  idx : int Reg.Tbl.t;
  n : int;
}

let make_ctx regions =
  let idx = Reg.Tbl.create 64 in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun op ->
          List.iter
            (fun d ->
              if not (Reg.Tbl.mem idx d) then
                Reg.Tbl.replace idx d (Reg.Tbl.length idx))
            (Op.defs op))
        r.Region.ops)
    regions;
  { idx; n = Reg.Tbl.length idx }

let region_defs ctx (r : Region.t) =
  let bits = Bitset.create ctx.n in
  List.iter
    (fun op ->
      List.iter (fun d -> Bitset.set bits (Reg.Tbl.find ctx.idx d)) (Op.defs op))
    r.Region.ops;
  bits

(* May-defined-on-entry per region label: forward fixpoint over the
   reachable region graph, [out r = in r + defs r].  "May" rather than
   "must" deliberately under-reports (a register defined only on the
   loop-back path counts as defined), which is the sound direction for a
   lint that must never flag correct code.  The edge-wise pass in [lint]
   recovers the cases this hides. *)
let may_defined_on_entry ctx prog regions =
  let by_label = Hashtbl.create 17 in
  let defs_of = Hashtbl.create 17 in
  List.iter
    (fun (r : Region.t) ->
      Hashtbl.replace by_label r.Region.label r;
      Hashtbl.replace defs_of r.Region.label (region_defs ctx r))
    regions;
  let in_of = Hashtbl.create 17 in
  let cell l =
    match Hashtbl.find_opt in_of l with
    | Some b -> b
    | None ->
      let b = Bitset.create ctx.n in
      Hashtbl.replace in_of l b;
      b
  in
  (* Worklist instead of repeated whole-list sweeps: a region is
     reprocessed only when its entry set actually grew. *)
  let work = Queue.create () in
  let queued = Hashtbl.create 17 in
  let enqueue l =
    if not (Hashtbl.mem queued l) then begin
      Hashtbl.replace queued l ();
      Queue.add l work
    end
  in
  List.iter (fun (r : Region.t) -> enqueue r.Region.label) regions;
  while not (Queue.is_empty work) do
    let l = Queue.pop work in
    Hashtbl.remove queued l;
    match Hashtbl.find_opt by_label l with
    | None -> ()
    | Some r ->
      let out = Bitset.copy (cell l) in
      ignore (Bitset.union_into ~into:out (Hashtbl.find defs_of l));
      List.iter
        (fun succ ->
          if (not (Prog.is_exit prog succ)) && Hashtbl.mem by_label succ
          then
            if Bitset.union_into ~into:(cell succ) out then enqueue succ)
        (Region.successors r)
  done;
  cell

(* ------------------------------------------------------------------ *)
(* Predicate/btr use-before-def under guard implication.               *)

(* For each use of a predicate or btr register, [use] is the condition
   the use executes (region path condition, plus the guard for ops that
   only read when executing guarded) and [defined] the accumulated
   definedness expression.  A use with [disjoint use defined] (and a
   satisfiable [use]) is undefined on every execution reaching it.
   Registers may-defined on region entry or never defined anywhere
   (program inputs) start out defined. *)
let region_queries ctx ~env ?only ~entry_defined (r : Region.t) =
  (* [only] restricts the analysis to a subset of the defined registers:
     the edge-wise pass in [lint] re-queries a region once per incoming
     edge, but each edge can only change verdicts for the handful of
     registers it stops covering, so tracking anything else there is
     wasted work. *)
  let tracked reg =
    match only with
    | None -> true
    | Some bits -> (
      match Reg.Tbl.find_opt ctx.idx reg with
      | Some i -> Bitset.mem bits i
      | None -> false)
  in
  let ops = Pred_env.ops env in
  let defined : Pqs.t Reg.Tbl.t = Reg.Tbl.create 17 in
  let get_defined reg =
    match Reg.Tbl.find_opt defined reg with
    | Some e -> e
    | None -> (
      match Reg.Tbl.find_opt ctx.idx reg with
      | None -> Pqs.tru (* never defined anywhere: program input *)
      | Some i -> if Bitset.mem entry_defined i then Pqs.tru else Pqs.fls)
  in
  let add_defined reg cond =
    Reg.Tbl.replace defined reg (Pqs.or_ (get_defined reg) cond)
  in
  let queries = ref [] in
  let query op_id reg use =
    if not (tracked reg) then ()
    else
      let d = get_defined reg in
      let verdict =
        (* fast path for the overwhelmingly common fully-defined case *)
        if Pqs.is_const_true d then Proved
        else if (not (Pqs.is_const_false use)) && Pqs.disjoint use d then
          Undefined
        else if Pqs.implies use d then Proved
        else Unknown
      in
      queries :=
        { region = r.Region.label; op_id; reg; use; defined = d; verdict }
        :: !queries
  in
  let pc = Pred_env.path_conds env in
  Array.iteri
    (fun i (op : Op.t) ->
      let exec = pc.(i) in
      (* Uses first: the guard read happens whenever the op is reached;
         an accumulator destination's old value flows through whenever
         the op is reached; a branch reads its btr only when it executes
         guarded. *)
      (match op.Op.guard with
      | Op.True -> ()
      | Op.If g -> query op.Op.id g exec);
      List.iter (fun d -> query op.Op.id d exec) (Op.accumulator_dests op);
      if Op.is_branch op then
        List.iter
          (function
            | Op.Reg b when b.Reg.cls = Reg.Btr ->
              query op.Op.id b (Pqs.and_ exec (Pred_env.guard_expr env i))
            | _ -> ())
          op.Op.srcs;
      (* Then definitions, under the path and the write condition. *)
      List.iter
        (fun d ->
          if (Reg.is_pred d || d.Reg.cls = Reg.Btr) && tracked d then
            add_defined d (Pqs.and_ exec (Pred_env.write_cond env i d)))
        (Op.defs op))
    ops;
  List.rev !queries

let queries prog =
  let regions = reachable_regions prog in
  let ctx = make_ctx regions in
  let entry_of = may_defined_on_entry ctx prog regions in
  List.concat_map
    (fun (r : Region.t) ->
      region_queries ctx ~env:(Pred_env.analyze r)
        ~entry_defined:(entry_of r.Region.label) r)
    regions

(* ------------------------------------------------------------------ *)
(* Compensation coverage: a bypass branch into a region whose
   fallthrough is the unreachable sentinel must be proven to always take
   one of the compensation branches.  The proof runs [Pred_env] over a
   synthetic region made of the bypass region's prefix followed by the
   compensation ops: value numbering unifies the lookahead compares with
   the moved original compares, so the off-trace FRP and the negated
   compensation taken-conditions share literals and their conjunction
   is [false]. *)

let comp_coverage ~stats prog regions =
  let unreach = Cpr_core.Restructure.unreachable_label in
  let findings = ref [] in
  List.iter
    (fun (r : Region.t) ->
      let targets = Region.targets_by_index r in
      List.iteri
        (fun b (op : Op.t) ->
          if Op.is_branch op then
            match targets.(b) with
            | Some l when l <> r.Region.label -> (
              match Prog.find prog l with
              | Some (c : Region.t) when c.Region.fallthrough = Some unreach
                ->
                (* The bypass itself is left out: control reaches the
                   end of the synthetic region when every other branch
                   falls through and the bypass guard held where the
                   bypass stood. *)
                let prefix = List.filteri (fun i _ -> i < b) r.Region.ops in
                let synth =
                  Region.make "<comp-coverage>" (prefix @ c.Region.ops)
                in
                let env = Pred_env.analyze synth in
                let n = Array.length (Pred_env.ops env) in
                let taken =
                  match op.Op.guard with
                  | Op.True -> Pqs.tru
                  | Op.If g when b < n -> Pred_env.reg_expr_before env b g
                  | Op.If g -> Pred_env.reg_expr_at_end env g
                in
                let reach = Pqs.and_ (Pred_env.path_conds env).(n) taken in
                if Pqs.is_const_false reach then
                  stats.Finding.proved <- stats.Finding.proved + 1
                else
                  findings :=
                    Finding.make ~check:"comp-coverage"
                      ~severity:Finding.Error ~region:r.Region.label
                      ~op:op.Op.id ~subject:l
                      (Format.asprintf
                         "bypass into %s can fall through to %s (reach \
                          condition %a)"
                         l unreach Pqs.pp reach)
                    :: !findings
              | _ -> ())
            | _ -> ())
        r.Region.ops)
    regions;
  List.rev !findings

(* ------------------------------------------------------------------ *)

let lint ?only_checks ~stats prog =
  let enabled c =
    match only_checks with None -> true | Some cs -> List.mem c cs
  in
  let regions = reachable_regions prog in
  let ctx = make_ctx regions in
  let entry_of = may_defined_on_entry ctx prog regions in
  (* [Pred_env.analyze] depends only on region content, so one env per
     region serves the merged query pass, every edge-wise re-query and
     the unreachable-guard scan. *)
  let envs = Hashtbl.create 17 in
  let env_of (r : Region.t) =
    match Hashtbl.find_opt envs r.Region.label with
    | Some e -> e
    | None ->
      let e = Pred_env.analyze r in
      Hashtbl.replace envs r.Region.label e;
      e
  in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* predicate / btr use-before-def *)
  let flagged = Hashtbl.create 17 in
  let undef_finding ?edge (q : query) =
    Hashtbl.replace flagged (q.op_id, q.reg) ();
    add
      (Finding.make
         ~check:(if Reg.is_pred q.reg then "pred-undef" else "btr-undef")
         ~severity:Finding.Error ~region:q.region ~op:q.op_id
         ~subject:(Reg.to_string q.reg)
         (Format.asprintf
            "%s is provably undefined at every execution of this use%s (use \
             %a, defined %a)"
            (Reg.to_string q.reg)
            (match edge with
            | None -> ""
            | Some p -> Printf.sprintf " reached from %s" p)
            Pqs.pp q.use Pqs.pp q.defined))
  in
  let merged_queries = Hashtbl.create 17 in
  if enabled "pred-undef" || enabled "btr-undef" then begin
    List.iter
    (fun (r : Region.t) ->
      let qs =
        region_queries ctx ~env:(env_of r)
          ~entry_defined:(entry_of r.Region.label) r
      in
      Hashtbl.replace merged_queries r.Region.label qs;
      List.iter
        (fun q ->
          match q.verdict with
          | Undefined -> undef_finding q
          | Proved -> stats.Finding.proved <- stats.Finding.proved + 1
          | Unknown -> stats.Finding.unknown <- stats.Finding.unknown + 1)
        qs)
    regions;
  (* Edge-wise refinement: the may-entry set above merges every incoming
     edge, so a register defined only on a loop-back edge looks defined
     on the first iteration too.  Re-run the queries per predecessor edge
     (plus the implicit program-entry edge) with that edge's own out-set;
     an Undefined verdict there is a real first-execution bug the merged
     analysis hides.  Proved/unknown counters are left alone to avoid
     double counting. *)
  let preds_of = Hashtbl.create 17 in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun succ ->
          if not (Prog.is_exit prog succ) then
            Hashtbl.replace preds_of succ
              (r.Region.label
              :: Option.value ~default:[] (Hashtbl.find_opt preds_of succ)))
        (Region.successors r))
    regions;
  List.iter
    (fun (r : Region.t) ->
      let merged = entry_of r.Region.label in
      (* An edge can only change verdicts for registers it stops
         covering, so edges whose difference from the merged entry set
         misses every queried register are skipped outright. *)
      let queried = Bitset.create ctx.n in
      List.iter
        (fun q ->
          match Reg.Tbl.find_opt ctx.idx q.reg with
          | Some i -> Bitset.set queried i
          | None -> ())
        (Option.value ~default:[]
           (Hashtbl.find_opt merged_queries r.Region.label));
      let edges =
        let from_preds =
          List.filter_map
            (fun p ->
              match Prog.find prog p with
              | Some pr ->
                let out = Bitset.copy (entry_of p) in
                ignore (Bitset.union_into ~into:out (region_defs ctx pr));
                Some (p, out)
              | None -> None)
            (List.sort_uniq compare
               (Option.value ~default:[]
                  (Hashtbl.find_opt preds_of r.Region.label)))
        in
        if r.Region.label = prog.Prog.entry then
          ("program entry", Bitset.create ctx.n) :: from_preds
        else from_preds
      in
      List.iter
        (fun (p, entry_defined) ->
          let relevant =
            Bitset.inter (Bitset.diff merged entry_defined) queried
          in
          if not (Bitset.is_empty relevant) then
            List.iter
              (fun q ->
                if
                  q.verdict = Undefined
                  && not (Hashtbl.mem flagged (q.op_id, q.reg))
                then undef_finding ~edge:p q)
              (region_queries ctx ~env:(env_of r) ~only:relevant
                 ~entry_defined r))
        edges)
      regions
  end;
  (* plain boolean use-before-def for data registers *)
  if enabled "gpr-undef" then
    List.iter
    (fun (r : Region.t) ->
      let available = Bitset.copy (entry_of r.Region.label) in
      List.iter
        (fun (op : Op.t) ->
          List.iter
            (fun u ->
              match Reg.Tbl.find_opt ctx.idx u with
              | Some i ->
                if u.Reg.cls = Reg.Gpr && not (Bitset.mem available i) then
                  add
                    (Finding.make ~check:"gpr-undef" ~severity:Finding.Warning
                       ~region:r.Region.label ~op:op.Op.id
                       ~subject:(Reg.to_string u)
                       (Printf.sprintf
                          "%s is read before any definition reaches this use"
                          (Reg.to_string u)));
                (* a use makes the value "seen": flag only the first one *)
                Bitset.set available i
              | None -> () (* never defined: program input *))
            (Op.uses op);
          List.iter
            (fun d -> Bitset.set available (Reg.Tbl.find ctx.idx d))
            (Op.defs op))
        r.Region.ops)
      regions;
  (* dead pbr: btr never consumed by any reachable branch *)
  (if enabled "dead-pbr" then
     let consumed_btrs =
    List.fold_left
      (fun acc (r : Region.t) ->
        List.fold_left
          (fun acc (op : Op.t) ->
            if Op.is_branch op then
              List.fold_left
                (fun acc s ->
                  match s with
                  | Op.Reg b when b.Reg.cls = Reg.Btr -> Reg.Set.add b acc
                  | _ -> acc)
                acc op.Op.srcs
            else acc)
          acc r.Region.ops)
      Reg.Set.empty regions
  in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun (op : Op.t) ->
          if Op.is_pbr op then
            List.iter
              (fun d ->
                if d.Reg.cls = Reg.Btr && not (Reg.Set.mem d consumed_btrs)
                then
                  add
                    (Finding.make ~check:"dead-pbr" ~severity:Finding.Warning
                       ~region:r.Region.label ~op:op.Op.id
                       ~subject:(Reg.to_string d)
                       (Printf.sprintf
                          "pbr target %s is never read by any branch"
                          (Reg.to_string d))))
              (Op.defs op))
           r.Region.ops)
       regions);
  (* unreachable guards *)
  if enabled "unreachable-guard" then
    List.iter
    (fun (r : Region.t) ->
      let env = env_of r in
      Array.iteri
        (fun i (op : Op.t) ->
          if
            op.Op.guard <> Op.True
            && Pqs.is_const_false (Pred_env.guard_expr env i)
          then
            add
              (Finding.make ~check:"unreachable-guard"
                 ~severity:Finding.Warning ~region:r.Region.label
                 ~op:op.Op.id "guard is provably constant false: dead code"))
        (Pred_env.ops env))
      regions;
  List.rev !findings
  @ (if enabled "comp-coverage" then comp_coverage ~stats prog regions else [])
