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
        let sweep = Pr.sweep live r in
        result_consistent (r.Region.label ^ "/sweep") sweep;
        let s = Cpr_sched.List_sched.schedule machine prog live r in
        let sched =
          Pr.of_schedule live r ~ops:s.Cpr_sched.Schedule.ops
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
(* The span walk against the per-cycle rescan it replaced.             *)
(* ------------------------------------------------------------------ *)

let same_counts (got : Pr.t) (want : Pr.t) =
  got.Pr.n_points = want.Pr.n_points
  && got.Pr.per_point = want.Pr.per_point
  && got.Pr.per_point_blind = want.Pr.per_point_blind
  && got.Pr.stats = want.Pr.stats

(* Every region of [prog]: [Pr.sweep] gives the same per-point counts as
   {!Pressure_reference.sweep}, and scheduled on each of [machines],
   [Pr.of_schedule] and {!Pressure_reference.of_schedule} give the same
   per-cycle counts, blind and refined, and the same statistics. *)
let matches_reference ?(machines = Descr.all) where prog =
  let live = A.Liveness.analyze prog in
  List.iter
    (fun (r : Region.t) ->
      if
        not
          (same_counts (Pr.sweep live r) (Pressure_reference.sweep live r))
      then
        Alcotest.failf "%s/%s: sweep differs from the reference" where
          r.Region.label)
    (Prog.regions prog);
  List.iter
    (fun (m : Descr.t) ->
      List.iter
        (fun (r : Region.t) ->
          let s = Cpr_sched.List_sched.schedule m prog live r in
          let ops = s.Cpr_sched.Schedule.ops
          and cycle = s.Cpr_sched.Schedule.cycle
          and length = s.Cpr_sched.Schedule.length in
          let got = Pr.of_schedule live r ~ops ~cycle ~length in
          let want =
            Pressure_reference.of_schedule live r ~ops ~cycle ~length
          in
          if not (same_counts got want) then
            Alcotest.failf "%s/%s on %s: of_schedule differs from the reference"
              where r.Region.label m.Descr.name)
        (Prog.regions prog))
    machines

let reference_on_workloads () =
  List.iter
    (fun (w : W.Workload.t) ->
      let prog = w.W.Workload.build () in
      let inputs = w.W.Workload.inputs () in
      List.iter
        (fun (stage : P.Passes.stage) ->
          let c = P.Passes.run ~verify:false stage prog inputs in
          matches_reference
            (w.W.Workload.name ^ "/" ^ stage.P.Passes.name)
            c.P.Passes.prog)
        P.Passes.stages)
    W.Registry.all

let reference_on_fuzz () =
  for seed = 0 to 499 do
    matches_reference (Printf.sprintf "seed %d" seed) (W.Gen.prog_of_seed seed)
  done

(* The many-regions kernels: a dispatch loop with a chain of cold
   regions, each of which the registers of all the others live through
   unwritten — where the bulk counting of registers a region never writes
   does nearly all the work. *)
let reference_on_dispatch () =
  List.iter
    (fun cold ->
      let spec =
        {
          W.Kernels.default_dispatch with
          cases =
            List.init 4 (fun i ->
                { W.Kernels.match_value = 3 + (7 * i); handler_work = 4 });
          d_cold_regions = cold;
          d_cold_size = 10;
        }
      in
      let prog = W.Kernels.dispatch_prog spec in
      let live = A.Liveness.analyze prog in
      let widest =
        List.fold_left
          (fun acc (r : Region.t) ->
            let written =
              Reg.Set.of_list (List.concat_map Op.defs r.Region.ops)
            in
            max acc
              (Reg.Set.cardinal
                 (Reg.Set.diff
                    (A.Liveness.live_in live r.Region.label)
                    written)))
          0 (Prog.regions prog)
      in
      checkb
        (Printf.sprintf "cold %d: a region has %d live-through registers"
           cold widest)
        true (widest >= cold);
      matches_reference
        ~machines:[ Descr.narrow; Descr.medium ]
        (Printf.sprintf "dispatch cold %d" cold)
        prog)
    [ 25; 50; 75; 100; 125; 150; 175; 200; 225; 250 ]

(* The benchmark's nine many-regions programs, raw, as the baseline
   (prepared) and after ICBM, on all five machines. *)
let reference_on_many_regions () =
  List.iter
    (fun (name, prog, inputs) ->
      matches_reference (name ^ " raw") prog;
      matches_reference (name ^ " baseline") (P.Passes.prepare prog inputs);
      matches_reference (name ^ " icbm")
        (P.Passes.height_reduce ~verify:false prog inputs).P.Passes.prog)
    (many_regions ())

(* Registers the pressure walks visit one by one ([pressure.reg_visits])
   in [Pressurecheck.summary] of a dispatch program after ICBM.  From 125
   to 250 cold regions the count may grow with the regions (about x2),
   not with the registers live through them: the sum of live-out sizes
   over the regions grows about x4 there, and visiting it made the
   count grow likewise. *)
let reg_visits_grow_with_regions () =
  let visits cold =
    let prog, inputs = cold_dispatch ~ncases:4 ~d_unroll:3 ~cold in
    let reduced =
      (P.Passes.height_reduce ~verify:false prog inputs).P.Passes.prog
    in
    Fun.protect
      ~finally:(fun () ->
        Cpr_obs.Obs.set_enabled false;
        Cpr_obs.Obs.reset ())
      (fun () ->
        Cpr_obs.Obs.set_enabled true;
        Cpr_obs.Obs.reset ();
        ignore (Cpr_verify.Pressurecheck.summary reduced : (Reg.cls * int) list);
        Cpr_obs.Obs.counter_value (Cpr_obs.Obs.counter "pressure.reg_visits"))
  in
  let small = visits 125 and large = visits 250 in
  checkb
    (Printf.sprintf "register visits %d -> %d grow at most x2.5" small large)
    true
    (small > 0 && float_of_int large <= 2.5 *. float_of_int small)

(* A predicate [p] the region never writes, live at the target of an
   exit whose guard [q] is constant false: blind liveness keeps [p] live
   from entry to the exit, but no demand can read its entry value, so it
   occupies no slot (condition [fls]). *)
let unwritten_dead_entry_pred () =
  let ctx = B.create () in
  let p = B.pred ctx and q = B.pred ctx in
  let x = B.gpr ctx in
  let main =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.pred_init e [ (q, false) ] in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If q) "Side" in
        let (_ : Op.t) = B.movi e x 1 in
        ())
  in
  let side =
    B.region ctx "Side" ~fallthrough:"Exit" (fun e ->
        ignore (B.movi e ~guard:(Op.If p) x 2 : Op.t))
  in
  let prog = B.prog ctx ~entry:"Main" [ main; side ] in
  matches_reference "unwritten dead-entry predicate" prog;
  let live = A.Liveness.analyze prog in
  let r = Prog.find_exn prog "Main" in
  checkb "p is live into the region" true
    (Reg.Set.mem p (A.Liveness.live_in live "Main"));
  let sw = Pr.sweep live r in
  checki "sweep: blind pred count sees p and q" 2
    (Pr.maxlive_blind sw Reg.Pred);
  checki "sweep: refined pred count drops p" 1 (Pr.maxlive sw Reg.Pred)

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
  let t = Pr.sweep live r in
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
    Pr.of_schedule live r ~ops:s.Cpr_sched.Schedule.ops
      ~cycle:s.Cpr_sched.Schedule.cycle ~length:s.Cpr_sched.Schedule.length
  in
  checkb "scheduled refined < scheduled blind" true
    (Pr.maxlive sched Reg.Gpr < Pr.maxlive_blind sched Reg.Gpr);
  checkb "scheduled refined covers per-path demand" true
    (Pr.maxlive sched Reg.Gpr >= k)

(* Net change in the blind live count of [cls] across op [i] of a sweep:
   positive when the op lengthens pressure, negative when its operands
   die. *)
let contribution (t : Pr.t) cls i =
  let k = Reg.cls_rank cls in
  if i + 1 >= t.Pr.n_points then 0
  else t.Pr.per_point_blind.(k).(i + 1) - t.Pr.per_point_blind.(k).(i)

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
  let t = Pr.sweep live r in
  let total = ref 0 in
  for i = 0 to List.length r.Region.ops - 1 do
    total := !total + contribution t Reg.Gpr i
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
  let checked_rows, findings =
    Cpr_verify.Pressurecheck.check ~stats compiled.P.Passes.prog
  in
  checkb "check reports the same rows" true (checked_rows = rows);
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
  let _, errors =
    Cpr_verify.Pressurecheck.check ~machine:tiny ~stats compiled.P.Passes.prog
  in
  checkb "starved machine is unallocatable" true
    (List.exists Cpr_verify.Finding.is_error errors);
  (* Growth against a baseline is a warning, never an error: lint must
     exit 0 on a warnings-only run (the PR 5 exit-code contract). *)
  let baseline = prog in
  let stats = Cpr_verify.Finding.new_stats () in
  let _, warnings =
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
      case "of_schedule = reference on every workload stage"
        reference_on_workloads;
      case "of_schedule = reference on 500 fuzz programs" reference_on_fuzz;
      case "sweep, of_schedule = reference on many-regions kernels"
        reference_on_dispatch;
      case "sweep, of_schedule = reference on the nine many-regions programs"
        reference_on_many_regions;
      case "pressure register visits grow with the regions"
        reg_visits_grow_with_regions;
      case "unwritten predicate with a dead entry value takes no slot"
        unwritten_dead_entry_pred;
      case "complementary cmpp guards share register slots"
        disjoint_guards_share_slots;
      case "sweep contributions telescope" contributions_telescope;
      case "pressurecheck rows, findings, severity split"
        pressurecheck_rows_and_findings;
    ] )
