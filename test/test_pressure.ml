(* Predicate-aware register-pressure analysis (Pressure / Pressurecheck):
   the soundness battery pinning the sandwich (observed <= predicate-aware
   <= predicate-blind), the per-cycle consistency of schedule counts, the
   cmpp-sharing refinement, and the pressure gate's off-is-identity /
   on-stays-correct contract. *)

open Cpr_ir
module A = Cpr_analysis
module Pr = Cpr_analysis.Pressure
module P = Cpr_pipeline
module W = Cpr_workloads
module Descr = Cpr_machine.Descr
open Helpers
module B = Builder

let classes = [ Reg.Gpr; Reg.Pred; Reg.Btr ]
let cls_name = Cpr_verify.Pressurecheck.cls_name

(* ------------------------------------------------------------------ *)
(* Soundness battery.                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-point/per-cycle consistency of one analysis result: the refined
   count never exceeds the blind one anywhere, and the reported MAXLIVE
   is exactly the maximum over points — so "no cycle's live count
   exceeds the static MAXLIVE" holds by checked construction. *)
let result_consistent where (t : Pr.t) =
  List.iter
    (fun cls ->
      let k = Reg.cls_rank cls in
      let s = Pr.stat t cls in
      let seen = ref 0 and seen_blind = ref 0 in
      for p = 0 to t.Pr.n_points - 1 do
        let pa = t.Pr.per_point.(k).(p) in
        let blind = t.Pr.per_point_blind.(k).(p) in
        if pa > blind then
          Alcotest.failf "%s: %s point %d: refined %d > blind %d" where
            (cls_name cls) p pa blind;
        if pa > s.Pr.maxlive then
          Alcotest.failf "%s: %s point %d: count %d exceeds maxlive %d" where
            (cls_name cls) p pa s.Pr.maxlive;
        seen := max !seen pa;
        seen_blind := max !seen_blind blind
      done;
      checki
        (Printf.sprintf "%s: %s maxlive is the per-point max" where
           (cls_name cls))
        !seen s.Pr.maxlive;
      checki
        (Printf.sprintf "%s: %s blind maxlive is the per-point max" where
           (cls_name cls))
        !seen_blind s.Pr.maxlive_blind;
      checkb
        (Printf.sprintf "%s: %s refined <= blind overall" where (cls_name cls))
        true
        (s.Pr.maxlive <= s.Pr.maxlive_blind))
    classes

let prog_sound machine prog =
  let live = A.Liveness.analyze prog in
  List.iter
    (fun (r : Region.t) ->
      if r.Region.ops <> [] then begin
        let sweep = Pr.sweep live prog r in
        result_consistent (r.Region.label ^ "/sweep") sweep;
        (* refine:false is the blind figure, exactly *)
        let blind = Pr.sweep ~refine:false live prog r in
        List.iter
          (fun cls ->
            checki
              (Printf.sprintf "%s: unrefined %s equals blind" r.Region.label
                 (cls_name cls))
              (Pr.maxlive_blind blind cls)
              (Pr.maxlive blind cls))
          classes;
        let s = Cpr_sched.List_sched.schedule machine prog live r in
        let sched =
          Pr.of_schedule live prog r ~ops:s.Cpr_sched.Schedule.ops
            ~cycle:s.Cpr_sched.Schedule.cycle
            ~length:s.Cpr_sched.Schedule.length
        in
        result_consistent (r.Region.label ^ "/schedule") sched
      end)
    (Prog.regions prog)

let gen_seed = QCheck2.Gen.int_range 0 5000

let prop_pressure_sound =
  QCheck2.Test.make
    ~name:"pressure counts consistent, refined <= blind (all machines)"
    ~count:500 gen_seed
    (fun seed ->
      let prog = W.Gen.prog_of_seed seed in
      List.iter (fun m -> prog_sound m prog) Descr.all;
      true)

let prop_pressure_sound_transformed =
  QCheck2.Test.make
    ~name:"pressure counts stay consistent after height reduction" ~count:120
    gen_seed
    (fun seed ->
      let prog = W.Gen.prog_of_seed seed in
      let inputs = W.Gen.inputs_of_seed seed in
      let red = P.Passes.height_reduce prog inputs in
      List.iter (fun m -> prog_sound m red.P.Passes.prog) Descr.all;
      true)

let workloads_sound () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      P.Passes.profile prog (w.W.Workload.inputs ());
      List.iter (fun m -> prog_sound m prog) Descr.all)
    W.Registry.all

(* ------------------------------------------------------------------ *)
(* The refinement: complementary cmpp guards share a slot.             *)
(* ------------------------------------------------------------------ *)

(* k values defined under [p] and k under its cmpp complement [q], all
   simultaneously live.  Blind MAXLIVE sees 2k registers; the
   predicate-aware count packs each p-value with a q-value into one
   slot, halving the figure.  Either concrete branch keeps exactly k
   values, so this also pins the sandwich from below: the observed
   per-path demand (k) never exceeds the refined count. *)
let k = 6

let forked_region () =
  let ctx = B.create () in
  let x = B.gpr ctx in
  let p = B.pred ctx and q = B.pred ctx in
  let rs = B.gprs ctx k and ss = B.gprs ctx k in
  let sink = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.movi e x 0 in
        let (_ : Op.t) =
          B.cmpp2 e Op.Eq (Op.Un, p) (Op.Uc, q) (Op.Reg x) (Op.Imm 0)
        in
        Array.iteri
          (fun i r -> ignore (B.movi e ~guard:(Op.If p) r i : Op.t))
          rs;
        Array.iteri
          (fun i s -> ignore (B.movi e ~guard:(Op.If q) s i : Op.t))
          ss;
        Array.iter
          (fun r -> ignore (B.add e ~guard:(Op.If p) sink r r : Op.t))
          rs;
        Array.iter
          (fun s -> ignore (B.add e ~guard:(Op.If q) sink s s : Op.t))
          ss)
  in
  B.prog ctx ~entry:"Main" [ region ]

let disjoint_guards_share_slots () =
  let prog = forked_region () in
  let live = A.Liveness.analyze prog in
  let r = Prog.find_exn prog "Main" in
  let t = Pr.sweep live prog r in
  let blind = Pr.maxlive_blind t Reg.Gpr in
  let pa = Pr.maxlive t Reg.Gpr in
  checkb
    (Printf.sprintf "blind sweep sees both arms (%d >= %d)" blind (2 * k))
    true
    (blind >= 2 * k);
  checki "refined count is half the blind one" (blind / 2) pa;
  (* lower half of the sandwich: each arm alone demands k registers *)
  checkb
    (Printf.sprintf "refined covers the per-path demand (%d >= %d)" pa k)
    true (pa >= k);
  (* the schedule-level count refines the same way *)
  let s = Cpr_sched.List_sched.schedule Descr.wide prog live r in
  let sched =
    Pr.of_schedule live prog r ~ops:s.Cpr_sched.Schedule.ops
      ~cycle:s.Cpr_sched.Schedule.cycle ~length:s.Cpr_sched.Schedule.length
  in
  checkb "scheduled refined < scheduled blind" true
    (Pr.maxlive sched Reg.Gpr < Pr.maxlive_blind sched Reg.Gpr);
  checkb "scheduled refined covers per-path demand" true
    (Pr.maxlive sched Reg.Gpr >= k)

(* Sweep contributions: a def raises the blind count, the last use
   lowers it, and they telescope back to zero live registers across a
   straight-line region with no live-outs. *)
let contributions_telescope () =
  let ctx = B.create () in
  let a = B.gpr ctx and b = B.gpr ctx and c = B.gpr ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.movi e a 1 in
        let (_ : Op.t) = B.movi e b 2 in
        let (_ : Op.t) = B.add e c a b in
        ())
  in
  let prog = B.prog ctx ~entry:"Main" [ region ] in
  let live = A.Liveness.analyze prog in
  let r = Prog.find_exn prog "Main" in
  let t = Pr.sweep live prog r in
  let total = ref 0 in
  for i = 0 to List.length r.Region.ops - 1 do
    total := !total + Pr.contribution t Reg.Gpr i
  done;
  (* a and b die at the add; c is dead (no live-out), so the defs' +1s
     and the uses' -2 cancel to c's lone +1 - 1 = 0... c is never used,
     so it is never live and the sum is the live count at exit: 0. *)
  checki "contributions sum to exit live count" 0 !total

(* ------------------------------------------------------------------ *)
(* Pressurecheck rows, findings, and severity split.                   *)
(* ------------------------------------------------------------------ *)

let pressurecheck_rows_and_findings () =
  let prog, inputs = profiled_strcpy () in
  let compiled = P.Passes.height_reduce prog inputs in
  let rows = Cpr_verify.Pressurecheck.rows compiled.P.Passes.prog in
  checkb "three rows per region" true
    (rows <> [] && List.length rows mod 3 = 0);
  List.iter
    (fun (r : Cpr_verify.Pressurecheck.row) ->
      checkb
        (Printf.sprintf "row %s/%s: margin is file size minus worst count"
           r.Cpr_verify.Pressurecheck.region
           (cls_name r.Cpr_verify.Pressurecheck.cls))
        true
        (r.Cpr_verify.Pressurecheck.margin
        = r.Cpr_verify.Pressurecheck.file_size
          - max r.Cpr_verify.Pressurecheck.sweep_maxlive
              r.Cpr_verify.Pressurecheck.sched_maxlive))
    rows;
  let summary = Cpr_verify.Pressurecheck.summary compiled.P.Passes.prog in
  checki "summary covers the three classes" 3 (List.length summary);
  (* Medium-machine files fit the paper workloads: no errors, all proved. *)
  let stats = Cpr_verify.Finding.new_stats () in
  let findings =
    Cpr_verify.Pressurecheck.check ~stats compiled.P.Passes.prog
  in
  checkb "no unallocatable findings on the medium machine" true
    (not (List.exists Cpr_verify.Finding.is_error findings));
  checkb "classes proved allocatable" true
    (stats.Cpr_verify.Finding.proved >= List.length rows);
  (* A starved machine turns the same code into hard errors — and the
     severity split the lint exit code relies on must classify them as
     errors, distinct from warnings. *)
  let tiny =
    {
      Descr.medium with
      Descr.name = "Tiny";
      files = { Descr.gprs = 2; preds = 1; btrs = 1 };
    }
  in
  let stats = Cpr_verify.Finding.new_stats () in
  let errors =
    Cpr_verify.Pressurecheck.check ~machine:tiny ~stats compiled.P.Passes.prog
  in
  checkb "starved machine is unallocatable" true
    (List.exists Cpr_verify.Finding.is_error errors);
  (* Growth against a baseline is a warning, never an error: lint must
     exit 0 on a warnings-only run (the PR 5 exit-code contract). *)
  let baseline = prog in
  let stats = Cpr_verify.Finding.new_stats () in
  let warnings =
    Cpr_verify.Pressurecheck.check ~growth_factor:0.0 ~baseline ~stats
      compiled.P.Passes.prog
  in
  let growth =
    List.filter
      (fun (f : Cpr_verify.Finding.t) ->
        not (Cpr_verify.Finding.is_error f))
      warnings
  in
  checkb "growth findings present under a zero-growth budget" true
    (growth <> []);
  checkb "growth findings are warnings, not errors" true
    (List.for_all
       (fun f -> not (Cpr_verify.Finding.is_error f))
       growth)

let suite =
  ( "pressure",
    [
      QCheck_alcotest.to_alcotest prop_pressure_sound;
      QCheck_alcotest.to_alcotest prop_pressure_sound_transformed;
      case "all workloads consistent on all machines" workloads_sound;
      case "complementary cmpp guards share register slots"
        disjoint_guards_share_slots;
      case "sweep contributions telescope" contributions_telescope;
      case "pressurecheck rows, findings, severity split"
        pressurecheck_rows_and_findings;
    ] )
