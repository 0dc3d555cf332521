(* Static height analysis (Height / Resbound / Heightcheck): soundness
   battery plus the structural invariants the profitability gate and the
   schedule-quality lint rely on. *)

open Cpr_ir
module A = Cpr_analysis
module H = Cpr_analysis.Height
module D = Cpr_analysis.Depgraph
module R = Cpr_analysis.Resbound
module P = Cpr_pipeline
module W = Cpr_workloads
module Descr = Cpr_machine.Descr
open Helpers
module B = Builder

let build_graph machine prog label =
  let l = A.Liveness.analyze prog in
  D.build machine prog l (Prog.find_exn prog label)

(* ------------------------------------------------------------------ *)
(* Soundness: bound <= every List_sched schedule length.              *)
(* ------------------------------------------------------------------ *)

let prog_sound machine prog =
  let live = A.Liveness.analyze prog in
  List.for_all
    (fun (r : Region.t) ->
      r.Region.ops = []
      ||
      let dg = D.build machine prog live r in
      let s = H.summarize machine dg in
      let sched = Cpr_sched.List_sched.schedule machine prog live r in
      s.H.bound <= sched.Cpr_sched.Schedule.length)
    (Prog.regions prog)

let gen_seed = QCheck2.Gen.int_range 0 5000

let prop_bound_sound =
  QCheck2.Test.make
    ~name:"static bound <= achieved schedule length (all machines)"
    ~count:500 gen_seed
    (fun seed ->
      let prog = W.Gen.prog_of_seed seed in
      List.for_all (fun m -> prog_sound m prog) Descr.all)

let prop_bound_sound_transformed =
  QCheck2.Test.make
    ~name:"static bound stays sound after height reduction" ~count:120
    gen_seed
    (fun seed ->
      let prog = W.Gen.prog_of_seed seed in
      let inputs = W.Gen.inputs_of_seed seed in
      let red = P.Passes.height_reduce prog inputs in
      List.for_all (fun m -> prog_sound m red.P.Passes.prog) Descr.all)

let workloads_sound () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      List.iter
        (fun m ->
          checkb
            (Printf.sprintf "%s sound on %s" w.W.Workload.name m.Descr.name)
            true (prog_sound m prog))
        Descr.all)
    W.Registry.all

(* ------------------------------------------------------------------ *)
(* Priority / slack invariants (the extracted list-sched priority).   *)
(* ------------------------------------------------------------------ *)

(* [Height.priority] must satisfy its defining recurrence
   [p i = max (latency i) (max over succ edges of edge-latency + p dst)]
   — the exact quantity List_sched ranked ops by before the extraction,
   so this pins the moved implementation to the scheduler's policy. *)
let priority_recurrence_on g =
  let p = H.priority g in
  let n = D.n_ops g in
  for i = 0 to n - 1 do
    let expect =
      List.fold_left
        (fun acc (e : D.edge) -> max acc (e.D.latency + p.(e.D.dst)))
        (D.latency g i) (D.succs g i)
    in
    checki (Printf.sprintf "priority recurrence at op %d" i) expect p.(i)
  done;
  let slack = H.slack g in
  Array.iteri
    (fun i s ->
      checkb (Printf.sprintf "slack non-negative at op %d" i) true (s >= 0))
    slack;
  if n > 0 then
    checkb "at least one op on the critical path" true
      (Array.exists (fun s -> s = 0) slack);
  (* dep_height is reachable through the asap+priority decomposition *)
  let a = H.asap g in
  if n > 0 then begin
    let via = ref 0 in
    for i = 0 to n - 1 do
      via := max !via (a.(i) + p.(i))
    done;
    checki "dep_height = max (asap + priority)" (H.dep_height g) !via
  end

let priority_invariants_all_workloads () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      let live = A.Liveness.analyze prog in
      List.iter
        (fun (r : Region.t) ->
          if r.Region.ops <> [] then
            priority_recurrence_on (D.build Descr.medium prog live r))
        (Prog.regions prog))
    W.Registry.all

(* ------------------------------------------------------------------ *)
(* Branch height is predicate-aware.                                  *)
(* ------------------------------------------------------------------ *)

let two_branch_region ~disjoint =
  let ctx = B.create () in
  let x = B.gpr ctx in
  let p = B.pred ctx and q = B.pred ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        if disjoint then
          (* complementary predicates from one cmpp2: Pqs proves the
             branches cannot both be taken, so no Ctrl chain *)
          let (_ : Op.t) =
            B.cmpp2 e Op.Eq (Op.Un, p) (Op.Uc, q) (Op.Reg x) (Op.Imm 0)
          in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Exit" in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If q) "Exit" in
          ()
        else begin
          (* same predicate on both: compatible conditions serialize *)
          let (_ : Op.t) =
            B.cmpp1 e Op.Eq Op.Un p (Op.Reg x) (Op.Imm 0)
          in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Exit" in
          let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Exit" in
          ()
        end)
  in
  B.prog ctx ~entry:"Main" [ region ]

let disjoint_branches_do_not_serialize () =
  let serial = build_graph Descr.wide (two_branch_region ~disjoint:false) "Main" in
  let par = build_graph Descr.wide (two_branch_region ~disjoint:true) "Main" in
  let bh_serial = H.branch_height serial in
  let bh_par = H.branch_height par in
  checkb
    (Printf.sprintf "disjoint guards lower branch height (%d < %d)" bh_par
       bh_serial)
    true (bh_par < bh_serial);
  (* strcpy, the paper's example: FRP conversion makes the exit guards
     disjoint and the branch height drops *)
  let prog, _ = profiled_strcpy () in
  let before = H.branch_height (build_graph Descr.wide prog "Loop") in
  let loop = loop_of prog in
  assert (Cpr_core.Frp.convert_region prog loop);
  let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate_region prog loop in
  let after = H.branch_height (build_graph Descr.wide prog "Loop") in
  checkb
    (Printf.sprintf "FRP lowers strcpy branch height (%d < %d)" after before)
    true (after < before)

(* ------------------------------------------------------------------ *)
(* Resource bound arithmetic.                                         *)
(* ------------------------------------------------------------------ *)

let resbound_arithmetic () =
  (* k independent movi ops: dep height is one op latency; the resource
     bound is ceil(k / I-slots) - 1 + latency *)
  let k = 9 in
  let ctx = B.create () in
  let rs = B.gprs ctx k in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        Array.iter (fun r -> ignore (B.movi e r 1)) rs)
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let r = Prog.find_exn prog "Main" in
  let lat =
    Descr.latency_of Descr.medium (List.hd r.Region.ops)
  in
  let check_on machine =
    let rb = R.of_region machine r in
    checki
      (Printf.sprintf "total ops on %s" machine.Descr.name)
      k rb.R.total_ops;
    let slots = Descr.slots machine Descr.I in
    let expect = (((k + slots - 1) / slots) - 1) + lat in
    checkb
      (Printf.sprintf "resource bound on %s at least class bound"
         machine.Descr.name)
      true (rb.R.bound >= expect);
    (* and it is achieved: the scheduler meets the bound exactly for
       independent same-class ops *)
    let live = A.Liveness.analyze prog in
    let sched = Cpr_sched.List_sched.schedule machine prog live r in
    checkb
      (Printf.sprintf "bound tight on %s" machine.Descr.name)
      true (rb.R.bound <= sched.Cpr_sched.Schedule.length)
  in
  List.iter check_on [ Descr.narrow; Descr.medium; Descr.wide ];
  (* the sequential machine issues one op per cycle regardless of class *)
  let rb_seq = R.of_region Descr.sequential r in
  checkb "sequential bound covers total issue width" true
    (rb_seq.R.bound >= k - 1 + lat);
  (* empty region *)
  let rb_empty = R.of_ops Descr.medium [||] in
  checki "empty region bound" 0 rb_empty.R.bound;
  checki "empty region ops" 0 rb_empty.R.total_ops

(* ------------------------------------------------------------------ *)
(* Heightcheck lint plumbing.                                         *)
(* ------------------------------------------------------------------ *)

let heightcheck_rows_and_findings () =
  let prog, inputs = profiled_strcpy () in
  let compiled = P.Passes.height_reduce prog inputs in
  let rows = Cpr_verify.Heightcheck.rows compiled.P.Passes.prog in
  checkb "at least one row" true (rows <> []);
  List.iter
    (fun (r : Cpr_verify.Heightcheck.row) ->
      checkb
        (Printf.sprintf "row %s: bound = max(dep, res)" r.region)
        true
        (r.Cpr_verify.Heightcheck.bound
        = max r.Cpr_verify.Heightcheck.dep_height
            r.Cpr_verify.Heightcheck.res_bound);
      checkb
        (Printf.sprintf "row %s: bound <= achieved" r.region)
        true
        (r.Cpr_verify.Heightcheck.bound <= r.Cpr_verify.Heightcheck.achieved);
      checkb
        (Printf.sprintf "row %s: branch height <= dep height" r.region)
        true
        (r.Cpr_verify.Heightcheck.branch_height
        <= r.Cpr_verify.Heightcheck.dep_height))
    rows;
  let stats = Cpr_verify.Finding.new_stats () in
  let findings =
    Cpr_verify.Heightcheck.check ~missed:true ~stats compiled.P.Passes.prog
  in
  checkb "no height-bound errors" true
    (not (List.exists Cpr_verify.Finding.is_error findings));
  checkb "every region proved" true
    (stats.Cpr_verify.Finding.proved >= List.length rows)

let suite =
  ( "height",
    [
      QCheck_alcotest.to_alcotest prop_bound_sound;
      QCheck_alcotest.to_alcotest prop_bound_sound_transformed;
      case "all workloads sound on all machines" workloads_sound;
      case "priority recurrence and slack invariants (24 workloads)"
        priority_invariants_all_workloads;
      case "disjoint guards do not serialize branch height"
        disjoint_branches_do_not_serialize;
      case "resource bound arithmetic" resbound_arithmetic;
      case "heightcheck rows and findings" heightcheck_rows_and_findings;
    ] )
