open Cpr_ir
module Pqs = Cpr_analysis.Pqs
module Pred_env = Cpr_analysis.Pred_env
module Depgraph = Cpr_analysis.Depgraph

type config = {
  check_branches : bool;
  check_store_guard : bool;
}

(* ifconv deletes the branches it converts (and fullpipe contains
   ifconv); the FRP stages must leave store execution conditions exactly
   the original path conditions, so only they get tv-store-guard. *)
let config_of_stage = function
  | "ifconv" | "fullpipe" ->
    { check_branches = false; check_store_guard = false }
  | "frp" | "spec" | "fullcpr" | "icbm" ->
    { check_branches = true; check_store_guard = true }
  | _ -> { check_branches = true; check_store_guard = false }

(* ------------------------------------------------------------------ *)
(* Instance matching.                                                  *)

type instance = {
  label : string;
  idx : int;  (** position within the region's op list *)
  op : Op.t;
}

type index = {
  by_id : (int, instance list) Hashtbl.t;
  by_orig : (int, instance list) Hashtbl.t;
}

let push tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let add_instances index (r : Region.t) =
  List.iteri
    (fun idx (op : Op.t) ->
      let inst = { label = r.Region.label; idx; op } in
      push index.by_id op.Op.id inst;
      match op.Op.orig with
      | Some o -> push index.by_orig o inst
      | None -> ())
    r.Region.ops

let instances index id =
  Option.value ~default:[] (Hashtbl.find_opt index.by_id id)
  @ Option.value ~default:[] (Hashtbl.find_opt index.by_orig id)

(* ------------------------------------------------------------------ *)

(* Is [target] reachable from label [l] in [prog] (following region
   successors; exit labels only match directly)? *)
let label_reaches prog l target =
  let seen = Hashtbl.create 17 in
  let rec go l =
    l = target
    || (not (Hashtbl.mem seen l))
       && begin
            Hashtbl.replace seen l ();
            match Prog.find prog l with
            | None -> false
            | Some r -> List.exists go (Region.successors r)
          end
  in
  go l

let validate ?(table = Cpr_sched.Sched_table.create ()) ?delta ~stats ~stage
    ~before after =
  let cfg = config_of_stage stage in
  let findings = ref [] in
  let add ~check ~region ?op ?subject msg =
    findings := Finding.make ~check ~region ?op ?subject msg :: !findings
  in
  let input, output, unchanged =
    match delta with
    | Some d -> (d.Delta.input, d.Delta.output, Delta.unchanged d)
    | None -> (Delta.side before, Delta.side after, fun _ -> false)
  in
  (* The instance index.  Every op of a changed output region is
     indexed, and every copy ([orig]) anywhere.  An unchanged region
     holds, by id, exactly the ops of the input region with its label
     (ids are unique within a program), so its ops are indexed by id
     only when that input region is validated: an input region is
     skipped when its output region is unchanged and no other output
     region holds an instance of its ops.  Each of its ops then has one
     instance, itself, in its own place, and every check below holds
     there: tv-store, tv-liveout and tv-branch find the instance, each
     dependence keeps its order, and each store's condition is the
     input's, proved by identity. *)
  let index = { by_id = Hashtbl.create 64; by_orig = Hashtbl.create 64 } in
  (* [held]: the ids with an instance in an output region other than
     their own unchanged one (any id out of range counts as held). *)
  let held =
    Bytes.make (max before.Prog.next_op_id after.Prog.next_op_id) '\000'
  in
  let hold id =
    if id >= 0 && id < Bytes.length held then Bytes.set held id '\001'
  in
  List.iter
    (fun (r : Region.t) ->
      if unchanged r then
        List.iteri
          (fun idx (op : Op.t) ->
            match op.Op.orig with
            | Some o ->
              push index.by_orig o { label = r.Region.label; idx; op };
              if not (List.exists (fun (x : Op.t) -> x.Op.id = o) r.Region.ops)
              then hold o
            | None -> ())
          r.Region.ops
      else begin
        add_instances index r;
        List.iter
          (fun (op : Op.t) ->
            hold op.Op.id;
            Option.iter hold op.Op.orig)
          r.Region.ops
      end)
    output.Delta.regions;
  (* [unchanged] goes by label, so it also names the input region of an
     unchanged output region. *)
  let skipped (r : Region.t) =
    unchanged r
    && List.for_all
         (fun (op : Op.t) ->
           op.Op.id >= 0
           && op.Op.id < Bytes.length held
           && Bytes.get held op.Op.id = '\000')
         r.Region.ops
  in
  let before_regions, skipped_regions =
    List.partition (fun r -> not (skipped r)) input.Delta.regions
  in
  let skipped_labels = Hashtbl.create 64 in
  List.iter
    (fun (r : Region.t) -> Hashtbl.replace skipped_labels r.Region.label ())
    skipped_regions;
  (* The output regions whose ops validation reads: changed ones, and
     unchanged ones whose input region is validated. *)
  let read =
    List.filter
      (fun (r : Region.t) -> not (Hashtbl.mem skipped_labels r.Region.label))
      output.Delta.regions
  in
  List.iter
    (fun (r : Region.t) ->
      if unchanged r then
        List.iteri
          (fun idx (op : Op.t) ->
            push index.by_id op.Op.id { label = r.Region.label; idx; op })
          r.Region.ops)
    read;
  Option.iter
    (fun d ->
      List.iter (fun (r : Region.t) -> Delta.mark d r.Region.label)
        before_regions)
    delta;
  (* Output regions' branch targets by op index, one pass per region on
     first request, read by tv-branch and tv-store-guard. *)
  let after_targets = Hashtbl.create 16 in
  let after_target label idx =
    let at =
      match Hashtbl.find_opt after_targets label with
      | Some at -> at
      | None ->
        let at = Region.targets_by_index (Prog.find_exn after label) in
        Hashtbl.replace after_targets label at;
        at
    in
    at.(idx)
  in
  (* Normalize an output op id onto the id the *input* program knows the
     op by.  Ops that survived the transformation keep their id — their
     [orig] (if any) points further back, to an ancestor of an earlier
     stage, and chasing it would tear matching literals apart.  Only ops
     the input has never seen resolve through [orig].  The ids resolved
     are those of the regions validation reads: an op there with an id
     of the input is not in a skipped input region, whose ops live in
     their own unchanged region. *)
  let origs = Hashtbl.create 64 in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun (op : Op.t) ->
          match op.Op.orig with
          | Some o -> Hashtbl.replace origs op.Op.id o
          | None -> ())
        r.Region.ops)
    read;
  let before_ids = Hashtbl.create 64 in
  List.iter
    (fun (r : Region.t) ->
      if not (Hashtbl.mem skipped_labels r.Region.label) then
        List.iter
          (fun (op : Op.t) -> Hashtbl.replace before_ids op.Op.id ())
          r.Region.ops)
    (Prog.regions before);
  let resolve id =
    if Hashtbl.mem before_ids id then id
    else Option.value ~default:id (Hashtbl.find_opt origs id)
  in
  (* tv-exit *)
  Hashtbl.iter
    (fun l () ->
      if not (Hashtbl.mem output.Delta.exits l) then
        add ~check:"tv-exit" ~region:l ~subject:l
          (Printf.sprintf
             "program exit %s is reachable before the transformation but \
              not after"
             l))
    input.Delta.exits;
  (* tv-store / tv-liveout: instance existence *)
  let live_out =
    List.fold_left
      (fun acc r -> Reg.Set.add r acc)
      Reg.Set.empty before.Prog.live_out
  in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun (op : Op.t) ->
          let missing () = instances index op.Op.id = [] in
          if Op.is_store op && missing () then
            add ~check:"tv-store" ~region:r.Region.label ~op:op.Op.id
              (Printf.sprintf "store %d has no instance in the output"
                 op.Op.id)
          else if
            List.exists (fun d -> Reg.Set.mem d live_out) (Op.defs op)
            && missing ()
          then
            add ~check:"tv-liveout" ~region:r.Region.label ~op:op.Op.id
              ~subject:
                (String.concat ","
                   (List.map Reg.to_string
                      (List.filter
                         (fun d -> Reg.Set.mem d live_out)
                         (Op.defs op))))
              (Printf.sprintf
                 "definition %d of a live-out register has no instance in \
                  the output"
                 op.Op.id))
        r.Region.ops)
    before_regions;
  (* tv-branch *)
  if cfg.check_branches then
    List.iter
      (fun (r : Region.t) ->
        let succs = lazy (Region.successors r) in
        List.iter
          (fun ((bop : Op.t), target) ->
            match target with
            | None -> ()
            | Some target ->
              (* Instances live in reachable output regions, at their
                 op index there. *)
              let preserved inst =
                match after_target inst.label inst.idx with
                | None -> false
                | Some t ->
                  t = target
                  || label_reaches after t target
                  || List.mem t (Lazy.force succs)
              in
              let insts =
                List.filter
                  (fun i -> Op.is_branch i.op)
                  (instances index bop.Op.id)
              in
              if not (List.exists preserved insts) then
                add ~check:"tv-branch" ~region:r.Region.label ~op:bop.Op.id
                  ~subject:target
                  (Printf.sprintf
                     "no instance of branch %d still reaches its target %s"
                     bop.Op.id target))
          (Region.branch_targets r))
      before_regions;
  (* tv-order *)
  let before_v = Cpr_sched.Sched_table.version table before in
  let dep_still_real kind xs ys =
    match kind with
    | Depgraph.Flow reg ->
      List.exists (fun i -> List.exists (Reg.equal reg) (Op.defs i.op)) xs
      && List.exists (fun i -> List.exists (Reg.equal reg) (Op.uses i.op)) ys
    | Depgraph.Anti reg ->
      List.exists (fun i -> List.exists (Reg.equal reg) (Op.uses i.op)) xs
      && List.exists (fun i -> List.exists (Reg.equal reg) (Op.defs i.op)) ys
    | Depgraph.Output reg ->
      List.exists (fun i -> List.exists (Reg.equal reg) (Op.defs i.op)) xs
      && List.exists (fun i -> List.exists (Reg.equal reg) (Op.defs i.op)) ys
    | Depgraph.Mem_flow | Depgraph.Mem_anti | Depgraph.Mem_output ->
      List.exists (fun i -> Op.is_mem i.op) xs
      && List.exists (fun i -> Op.is_mem i.op) ys
    | Depgraph.Ctrl | Depgraph.Exit_live _ | Depgraph.Br_anticipation ->
      false
  in
  List.iter
    (fun (r : Region.t) ->
      if r.Region.ops <> [] then begin
        let dg =
          Cpr_sched.Sched_table.graph before_v Cpr_machine.Descr.medium r
        in
        List.iter
          (fun (e : Depgraph.edge) ->
            match e.Depgraph.kind with
            | Depgraph.Ctrl | Depgraph.Exit_live _
            | Depgraph.Br_anticipation ->
              ()
            | kind -> (
              let x = Depgraph.op dg e.Depgraph.src in
              let y = Depgraph.op dg e.Depgraph.dst in
              let xi = instances index x.Op.id in
              let yi = instances index y.Op.id in
              match (xi, yi) with
              | [], _ | _, [] -> ()
              | _ ->
                (* instances co-located in one output region must keep
                   at least one source before some destination; only
                   labels hosting instances of both ends can matter *)
                let labels =
                  List.sort_uniq String.compare
                    (List.filter
                       (fun l -> List.exists (fun i -> i.label = l) yi)
                       (List.map (fun (i : instance) -> i.label) xi))
                in
                List.iter
                  (fun label ->
                    let here insts =
                      List.filter (fun i -> i.label = label) insts
                    in
                    let xs = here xi and ys = here yi in
                    if
                      xs <> [] && ys <> []
                      && dep_still_real kind xs ys
                      && List.for_all
                           (fun xinst ->
                             List.for_all
                               (fun yinst -> xinst.idx > yinst.idx)
                               ys)
                           xs
                    then
                      (* Copies of different unroll iterations can land
                         in one compensation region with the later
                         iteration's source after the earlier
                         iteration's destination — a pairing the
                         intra-iteration edge does not constrain.  Ids
                         record creation order, so a genuine inversion
                         keeps some source id below a destination id;
                         cross-generation pairings reverse all of them
                         and degrade to unknown instead. *)
                      let min_id insts =
                        List.fold_left
                          (fun acc i -> min acc i.op.Op.id)
                          max_int insts
                      in
                      let max_id insts =
                        List.fold_left
                          (fun acc i -> max acc i.op.Op.id)
                          min_int insts
                      in
                      if min_id xs > max_id ys then
                        stats.Finding.unknown <- stats.Finding.unknown + 1
                      else
                        add ~check:"tv-order" ~region:label ~op:y.Op.id
                          ~subject:
                            (Format.asprintf "%d->%d" x.Op.id y.Op.id)
                          (Printf.sprintf
                             "dependence %d -> %d of input region %s is \
                              inverted in output region %s"
                             x.Op.id y.Op.id r.Region.label label))
                  labels))
          (Depgraph.edges dg)
      end)
    before_regions;
  (* tv-store-guard *)
  if cfg.check_store_guard then begin
    let norm = function
      | Pqs.Cond id -> Pqs.cond_lit (resolve id)
      | Pqs.Entry id -> Pqs.entry_lit (Reg.pred id)
    in
    let after_envs = Hashtbl.create 7 in
    let env_of (label : string) (r : Region.t) =
      match Hashtbl.find_opt after_envs label with
      | Some e -> e
      | None ->
        let env = Pred_env.analyze r in
        let e = (env, Pred_env.path_conds env) in
        Hashtbl.replace after_envs label e;
        e
    in
    (* A store hoisted into a compensation region executes under a
       condition expressed over the comp region's *own* entry literals
       — opaque [Entry] keys the input condition never mentions.  Those
       literals are not free: the comp region has exactly one entering
       edge, and the predicate's value along it is the symbolic value
       [Pred_env.reg_expr_before] assigns at the edge point in the
       parent region, expressed over the parent's condition literals
       (which [norm] maps back onto input op ids).  The per-instance
       check below finds a region's entering edges, to substitute, among
       the branches and fallthroughs of its predecessors. *)
    let preds =
      lazy
        (let tbl = Hashtbl.create 64 in
         List.iter
           (fun (q : Region.t) ->
             List.iter
               (fun l -> push tbl l q)
               (Hashtbl.find output.Delta.succs q.Region.label))
           output.Delta.regions;
         tbl)
    in
    let entering_edges label =
      List.concat_map
        (fun (q : Region.t) ->
          let edges = ref [] in
          List.iteri
            (fun k (op : Op.t) ->
              if Op.is_branch op && after_target q.Region.label k = Some label
              then edges := (q, Some k) :: !edges)
            q.Region.ops;
          if q.Region.fallthrough = Some label then (q, None) :: !edges
          else !edges)
        (Option.value ~default:[] (Hashtbl.find_opt (Lazy.force preds) label))
    in
    (* Entry-literal values for [label], over input literals, valid only
       when its unique predecessor is the transformed parent region
       itself (same label as the input region being validated) — that
       alignment makes the parent's own entry literals coincide with the
       input region's, so the substituted expression and the input
       condition range over one shared literal space. *)
    let entry_value ~parent label =
      match entering_edges label with
      | [ ((q : Region.t), at) ] when q.Region.label = parent ->
        let env_q, _ = env_of q.Region.label q in
        Some
          (fun rid ->
            let reg = Reg.pred rid in
            Pqs.subst norm
              (match at with
              | Some k -> Pred_env.reg_expr_before env_q k reg
              | None -> Pred_env.reg_expr_at_end env_q reg))
      | _ -> None
    in
    List.iter
      (fun (r : Region.t) ->
        let env_b = Pred_env.analyze r in
        let pc_b = lazy (Pred_env.path_conds env_b) in
        List.iteri
          (fun i (op : Op.t) ->
            if Op.is_store op then begin
              let same_id =
                List.filter
                  (fun inst -> inst.op.Op.id = op.Op.id)
                  (Option.value ~default:[]
                     (Hashtbl.find_opt index.by_id op.Op.id))
              in
              List.iter
                (fun inst ->
                  match Prog.find after inst.label with
                  | None -> ()
                  | Some p ->
                    let env_a, pc_a = env_of inst.label p in
                    let eb =
                      Pqs.and_
                        (Lazy.force pc_b).(i)
                        (Pred_env.guard_expr env_b i)
                    in
                    let ea =
                      Pqs.and_ pc_a.(inst.idx)
                        (Pred_env.guard_expr env_a inst.idx)
                    in
                    (* Rewrite [ea] onto the input's literals.  Entry
                       literals are shared free variables when the
                       instance stayed in its own region; in a different
                       output region they denote *that* region's entry
                       state and are replaced by their values along its
                       entering edge (or the comparison degrades to
                       unknown — a free reading would manufacture
                       differences no execution exhibits). *)
                    let entry =
                      if inst.label = r.Region.label then
                        Some (fun id -> Pqs.entry_lit (Reg.pred id))
                      else entry_value ~parent:r.Region.label inst.label
                    in
                    let unresolved = ref false in
                    let ea' =
                      Pqs.subst
                        (function
                          | Pqs.Cond _ as k -> norm k
                          | Pqs.Entry id as k -> (
                            match entry with
                            | Some value -> value id
                            | None ->
                              unresolved := true;
                              norm k))
                        ea
                    in
                    (* Both sides are hash-consed in one epoch, so the
                       conditions are equal exactly when the nodes are. *)
                    if !unresolved then
                      stats.Finding.unknown <- stats.Finding.unknown + 1
                    else if ea' == eb then
                      stats.Finding.proved <- stats.Finding.proved + 1
                    else
                      add ~check:"tv-store-guard" ~region:inst.label
                        ~op:op.Op.id
                        (Format.asprintf
                           "store %d executes under a different condition \
                            after the transformation (the two differ under \
                            %a: before %a, after %a)"
                           op.Op.id Pqs.pp
                           (Pqs.or_
                              (Pqs.and_ eb (Pqs.not_ ea'))
                              (Pqs.and_ ea' (Pqs.not_ eb)))
                           Pqs.pp eb Pqs.pp ea))
                same_id
            end)
          r.Region.ops)
      before_regions;
    List.iter
      (fun (r : Region.t) ->
        List.iter
          (fun op ->
            if Op.is_store op then
              stats.Finding.proved <- stats.Finding.proved + 1)
          r.Region.ops)
      skipped_regions
  end;
  List.rev !findings
