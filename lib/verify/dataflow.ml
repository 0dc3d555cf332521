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

(* The boolean half of the lint (may-defined entry sets, the edge-wise
   refinement, gpr availability) runs over packed bitsets: registers
   defined by at least one op of the program get dense indices —
   everything else is a program input, conventionally defined at entry,
   and never needs a bit. *)
type ctx = {
  idx : int Reg.Tbl.t;
  n : int;
}

let make_ctx ~keep regions =
  let idx = Reg.Tbl.create 64 in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun op ->
          List.iter
            (fun d ->
              if keep d && not (Reg.Tbl.mem idx d) then
                Reg.Tbl.replace idx d (Reg.Tbl.length idx))
            (Op.defs op))
        r.Region.ops)
    regions;
  { idx; n = Reg.Tbl.length idx }

let region_defs ctx (r : Region.t) =
  let bits = Bitset.create ctx.n in
  List.iter
    (fun op ->
      List.iter
        (fun d ->
          match Reg.Tbl.find_opt ctx.idx d with
          | Some i -> Bitset.set bits i
          | None -> ())
        (Op.defs op))
    r.Region.ops;
  bits

(* The boolean entry contexts of one program's reachable regions, by
   position in layout order.  [entry_in] is the may-defined-on-entry
   set: a forward fixpoint over the reachable region graph,
   [out r = in r + defs r].  "May" rather than "must" deliberately
   under-reports (a register defined only on the loop-back path counts
   as defined), which is the sound direction for a lint that must never
   flag correct code.  The edge-wise pass in [lint] recovers the cases
   this hides: it re-queries a region under each incoming edge's own
   set — each predecessor's out-set, and the empty set of the implicit
   program-entry edge. *)
type flow = {
  ctx : ctx;
  labels : string array;
  pos : (string, int) Hashtbl.t;
  entry_in : Bitset.t array;
  out : Bitset.t array;
  preds : int list array;  (** deduplicated, in label order *)
  entry : string;
}

let flow ~keep (side : Delta.side) =
  let prog = side.Delta.prog in
  let regions = Array.of_list side.Delta.regions in
  let m = Array.length regions in
  let ctx = make_ctx ~keep side.Delta.regions in
  let labels = Array.map (fun (r : Region.t) -> r.Region.label) regions in
  let pos = Hashtbl.create (2 * m) in
  Array.iteri (fun i l -> Hashtbl.replace pos l i) labels;
  (* Exit labels are never reachable regions, so [pos] drops them. *)
  let succs =
    Array.map
      (fun l ->
        List.filter_map (Hashtbl.find_opt pos)
          (Hashtbl.find side.Delta.succs l))
      labels
  in
  let defs = Array.map (region_defs ctx) regions in
  let entry_in = Array.init m (fun _ -> Bitset.create ctx.n) in
  (* Worklist instead of repeated whole-list sweeps: a region is
     reprocessed only when its entry set actually grew. *)
  let work = Queue.create () in
  let queued = Array.make m true in
  for i = 0 to m - 1 do
    Queue.add i work
  done;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    queued.(i) <- false;
    let out = Bitset.copy entry_in.(i) in
    ignore (Bitset.union_into ~into:out defs.(i));
    List.iter
      (fun j ->
        if Bitset.union_into ~into:entry_in.(j) out && not queued.(j) then begin
          queued.(j) <- true;
          Queue.add j work
        end)
      succs.(i)
  done;
  let out =
    Array.mapi
      (fun i d ->
        let o = Bitset.copy entry_in.(i) in
        ignore (Bitset.union_into ~into:o d);
        o)
      defs
  in
  let preds = Array.make m [] in
  Array.iteri
    (fun i ss -> List.iter (fun j -> preds.(j) <- i :: preds.(j)) ss)
    succs;
  let preds =
    Array.map
      (List.sort_uniq (fun a b -> compare labels.(a) labels.(b)))
      preds
  in
  { ctx; labels; pos; entry_in; out; preds; entry = prog.Prog.entry }

(* The incoming edges of the region at position [i], named as findings
   name them, with the set each defines. *)
let edges f i =
  let from_preds = List.map (fun p -> (f.labels.(p), f.out.(p))) f.preds.(i) in
  if f.labels.(i) = f.entry then
    ("program entry", Bitset.create f.ctx.n) :: from_preds
  else from_preds

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
  let side = Delta.side prog in
  let f = flow ~keep:(fun _ -> true) side in
  List.concat
    (List.mapi
       (fun i (r : Region.t) ->
         region_queries f.ctx ~env:(Pred_env.analyze r)
           ~entry_defined:f.entry_in.(i) r)
       side.Delta.regions)

(* ------------------------------------------------------------------ *)
(* Compensation coverage: a bypass branch into a region whose
   fallthrough is the unreachable sentinel must be proven to always take
   one of the compensation branches.  The proof runs [Pred_env] over a
   synthetic region made of the bypass region's prefix followed by the
   compensation ops: value numbering unifies the lookahead compares with
   the moved original compares, so the off-trace FRP and the negated
   compensation taken-conditions share literals and their conjunction
   is [false].  A pair [settled] holds for is left out: its verdict is
   known to be the stage input's. *)

let comp_coverage ~stats ~settled (side : Delta.side) =
  let prog = side.Delta.prog in
  let unreach = Cpr_core.Restructure.unreachable_label in
  let is_comp l =
    match Prog.find prog l with
    | Some (c : Region.t) -> c.Region.fallthrough = Some unreach
    | None -> false
  in
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
              | Some (c : Region.t)
                when c.Region.fallthrough = Some unreach && not (settled r c)
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
                    Finding.make ~check:"comp-coverage" ~region:r.Region.label
                      ~op:op.Op.id ~subject:l
                      (Format.asprintf
                         "bypass into %s can fall through to %s (reach \
                          condition %a)"
                         l unreach Pqs.pp reach)
                    :: !findings
              | _ -> ())
            | _ -> ())
        r.Region.ops)
    (* Only a region with a compensation region among its successors
       has a bypass into one. *)
    (List.filter
       (fun (r : Region.t) ->
         List.exists
           (fun l -> l <> r.Region.label && is_comp l)
           (Hashtbl.find side.Delta.succs r.Region.label))
       side.Delta.regions);
  List.rev !findings

(* ------------------------------------------------------------------ *)

(* The registers [region_queries] poses a query on whose verdict can
   depend on the entry context: those queried before an unguarded op of
   the region defines them.  Such a def leaves the register defined
   wherever it was reached ([pc] at the def, with write condition true),
   and path conditions only narrow along a region, so a later use is
   covered whatever held on entry: with canonical BDDs, a satisfiable
   use inside [defined] is never disjoint from it. *)
let entry_dependent_regs (r : Region.t) =
  let regs = ref [] in
  (* the registers already queried, or defined by an unguarded op *)
  let seen = Reg.Tbl.create 16 in
  let add reg =
    if not (Reg.Tbl.mem seen reg) then begin
      Reg.Tbl.replace seen reg ();
      regs := reg :: !regs
    end
  in
  List.iter
    (fun (op : Op.t) ->
      (match op.Op.guard with Op.True -> () | Op.If g -> add g);
      List.iter add (Op.accumulator_dests op);
      if Op.is_branch op then
        List.iter
          (function
            | Op.Reg b when b.Reg.cls = Reg.Btr -> add b | _ -> ())
          op.Op.srcs;
      if op.Op.guard = Op.True then
        List.iter
          (fun (d : Reg.t) ->
            if Reg.is_pred d || d.Reg.cls = Reg.Btr then
              Reg.Tbl.replace seen d ())
          (Op.defs op))
    r.Region.ops;
  !regs

(* Which of [regs] each entry context of the region at position [i]
   defines, one bit mask per context: a register no reachable op defines
   is a program input, defined everywhere. *)
let entry_masks f regs i =
  let ids = List.map (Reg.Tbl.find_opt f.ctx.idx) regs in
  let mask bits =
    snd
      (List.fold_left
         (fun (k, m) id ->
           ( k + 1,
             match id with
             | Some j when not (Bitset.mem bits j) -> m
             | _ -> m lor (1 lsl k) ))
         (0, 0) ids)
  in
  mask f.entry_in.(i) :: List.map (fun (_, bits) -> mask bits) (edges f i)

(* Whether the pred/btr queries of output region [r], at position [i],
   can only report what the stage input reports there.  A query's
   verdict depends on the region's ops and on whether its register is
   defined on entry, and an entry-defined register's query is never
   Undefined: so Undefined verdicts only shrink as an entry context
   grows.  The region reports the union of its Undefined verdicts under
   its entry contexts; when every one of them defines every
   entry-dependent register it reports nothing, and when [r] is
   unchanged and each of them, on those registers, contains one the
   input region had,
   it reports a subset of the input's findings there (same op ids, same
   registers, so the same keys), all of which the subtraction
   removes. *)
let queries_settled ~output ~input (delta : Delta.t) i (r : Region.t) =
  match entry_dependent_regs r with
  | [] -> true
  | regs when List.length regs < Sys.int_size - 1 ->
    let outs = entry_masks (Lazy.force output) regs i in
    let full = (1 lsl List.length regs) - 1 in
    List.for_all (( = ) full) outs
    || Delta.unchanged delta r
       &&
       let input = Lazy.force input in
       let ins =
         entry_masks input regs (Hashtbl.find input.pos r.Region.label)
       in
       List.for_all
         (fun o -> List.exists (fun i -> i land lnot o = 0) ins)
         outs
  | _ -> false

let lint ?only_checks ?delta ~stats prog =
  let enabled c =
    match only_checks with None -> true | Some cs -> List.mem c cs
  in
  let side =
    match delta with Some d -> d.Delta.output | None -> Delta.side prog
  in
  let regions = side.Delta.regions in
  (* Only gpr-undef reads data registers' definedness: without it the
     bit sets index predicates and btrs alone, the only registers the
     pred/btr queries read or track. *)
  let keep =
    if enabled "gpr-undef" then fun _ -> true
    else fun (reg : Reg.t) -> Reg.is_pred reg || reg.Reg.cls = Reg.Btr
  in
  let output = lazy (flow ~keep side) in
  (* The output's contexts and the region's position in them. *)
  let at (r : Region.t) =
    let f = Lazy.force output in
    (f, Hashtbl.find f.pos r.Region.label)
  in
  (* With a [delta] (the errors-only stage check), a region whose
     queries are settled is not queried, and a bypass/compensation pair
     both unchanged is not re-proved; each program's contexts are built
     only if some region needs them. *)
  let settled, comp_settled =
    match delta with
    | None -> ((fun _ _ -> false), fun _ _ -> false)
    | Some d ->
      let input = lazy (flow ~keep d.Delta.input) in
      ( (fun i r ->
          let s = queries_settled ~output ~input d i r in
          if not s then Delta.mark d r.Region.label;
          s),
        fun r c ->
          let s = Delta.unchanged d r && Delta.unchanged d c in
          if not s then Delta.mark d r.Region.label;
          s )
  in
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
         ~region:q.region ~op:q.op_id ~subject:(Reg.to_string q.reg)
         (Format.asprintf
            "%s is provably undefined at every execution of this use%s (use \
             %a, defined %a)"
            (Reg.to_string q.reg)
            (match edge with
            | None -> ""
            | Some p -> Printf.sprintf " reached from %s" p)
            Pqs.pp q.use Pqs.pp q.defined))
  in
  if enabled "pred-undef" || enabled "btr-undef" then begin
    let queried_regions =
      List.filteri (fun i r -> not (settled i r)) regions
    in
    let merged_queries = Hashtbl.create 17 in
    List.iter
      (fun (r : Region.t) ->
        let output, i = at r in
        let qs =
          region_queries output.ctx ~env:(env_of r)
            ~entry_defined:output.entry_in.(i) r
        in
        Hashtbl.replace merged_queries r.Region.label qs;
        List.iter
          (fun q ->
            match q.verdict with
            | Undefined -> undef_finding q
            | Proved -> stats.Finding.proved <- stats.Finding.proved + 1
            | Unknown -> stats.Finding.unknown <- stats.Finding.unknown + 1)
          qs)
      queried_regions;
    (* Edge-wise refinement: the may-entry set above merges every
       incoming edge, so a register defined only on a loop-back edge
       looks defined on the first iteration too.  Re-run the queries per
       predecessor edge (plus the implicit program-entry edge) with that
       edge's own out-set; an Undefined verdict there is a real
       first-execution bug the merged analysis hides.  Proved/unknown
       counters are left alone to avoid double counting. *)
    List.iter
      (fun (r : Region.t) ->
        let output, i = at r in
        let ctx = output.ctx in
        let merged = output.entry_in.(i) in
        (* An edge can only change verdicts for registers it stops
           covering, so edges whose difference from the merged entry set
           misses every queried register are skipped outright. *)
        let queried = Bitset.create ctx.n in
        List.iter
          (fun q ->
            match Reg.Tbl.find_opt ctx.idx q.reg with
            | Some i -> Bitset.set queried i
            | None -> ())
          (Hashtbl.find merged_queries r.Region.label);
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
          (edges output i))
      queried_regions
  end;
  (* plain boolean use-before-def for data registers *)
  if enabled "gpr-undef" then
    List.iter
    (fun (r : Region.t) ->
      let output, i = at r in
      let ctx = output.ctx in
      let available = Bitset.copy output.entry_in.(i) in
      List.iter
        (fun (op : Op.t) ->
          List.iter
            (fun u ->
              match Reg.Tbl.find_opt ctx.idx u with
              | Some i ->
                if u.Reg.cls = Reg.Gpr && not (Bitset.mem available i) then
                  add
                    (Finding.make ~check:"gpr-undef"
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
                    (Finding.make ~check:"dead-pbr"
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
              (Finding.make ~check:"unreachable-guard" ~region:r.Region.label
                 ~op:op.Op.id "guard is provably constant false: dead code"))
        (Pred_env.ops env))
      regions;
  List.rev !findings
  @
  if enabled "comp-coverage" then
    comp_coverage ~stats ~settled:comp_settled side
  else []
