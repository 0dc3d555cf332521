open Cpr_ir
module Obs = Cpr_obs.Obs
module Chaos = Cpr_resilience.Chaos
module Recover = Cpr_resilience.Recover

type compiled = {
  prog : Prog.t;
  icbm : Cpr_core.Icbm.region_stats option;
  observed : Cpr_sim.Equiv.observation list option;
}

let c_regions_formed = Obs.counter "superblock.regions_formed"
let c_branches_bypassed = Obs.counter "icbm.branches_bypassed"
let c_comp_ops = Obs.counter "icbm.compensation_ops"
let c_blocks_transformed = Obs.counter "icbm.blocks_transformed"
let c_blocks_demoted = Obs.counter "icbm.blocks_demoted"

(* Wrap one pipeline entry point in a span, recording program size on
   the way in and out ("ops in/out per pass").  The counts are only
   computed when a telemetry sink is listening. *)
let with_pass ~stage input f =
  Obs.span ("pass/" ^ stage) (fun () ->
      let ops_in =
        if Obs.enabled () then Prog.static_op_count input else 0
      in
      let compiled = f () in
      if Obs.enabled () then begin
        Obs.add (Obs.counter ("pass." ^ stage ^ ".ops_in")) ops_in;
        Obs.add
          (Obs.counter ("pass." ^ stage ^ ".ops_out"))
          (Prog.static_op_count compiled.prog)
      end;
      compiled)

(* Call after the transformed program has been re-profiled: "branches
   bypassed" is the drop in dynamic branch count (off-trace motion keeps
   branches in the text, so the static count barely moves — the paper's
   D-br column is the honest measure). *)
let record_icbm before (stats : Cpr_core.Icbm.region_stats) after =
  if Obs.enabled () then begin
    Obs.add c_blocks_transformed stats.Cpr_core.Icbm.blocks_transformed;
    Obs.add c_blocks_demoted stats.Cpr_core.Icbm.blocks_demoted;
    Obs.add c_comp_ops
      (stats.Cpr_core.Icbm.ops_moved + stats.Cpr_core.Icbm.ops_split);
    let branches p = (Stats_ir.of_prog p).Stats_ir.dynamic_branches in
    Obs.add c_branches_bypassed (max 0 (branches before - branches after))
  end

(* The one profiling loop: clear, then interpret every input with
   profile recording on, keeping [f] of each outcome (and never the
   interpreter state itself). *)
let interpret prog inputs f =
  Obs.span "profile" (fun () ->
      Prog.clear_profile prog;
      List.map
        (fun input -> f (Cpr_sim.Equiv.run_on ~profile:true prog input))
        inputs)

let profile prog inputs = ignore (interpret prog inputs ignore : unit list)

let profile_observed prog inputs =
  interpret prog inputs (Cpr_sim.Equiv.observation_of prog)

(* Both compiled codes start from the same superblock formation — the
   paper's baseline is "optimized superblock code produced by the IMPACT
   compiler", not the raw region graph.  [final] is the closing profile
   run, whose result is returned beside the program. *)
let prepare_with final prog inputs =
  Obs.span "pass/prepare" (fun () ->
      (* Program boundary: trim the predicate engine's arena and memo
         tables so a long suite/fuzz run's footprint stays bounded by
         one program's working set, not the whole run. *)
      Cpr_analysis.Pqs.trim ();
      let p = Prog.copy prog in
      profile p inputs;
      let formed = Cpr_core.Superblock.form p in
      Obs.add c_regions_formed formed;
      let (_ : int) = Cpr_core.Superblock.prune_unreachable p in
      Validate.check_exn p;
      (p, final p inputs))

let prepare prog inputs = fst (prepare_with profile prog inputs)

(* Static verification of one transformation step: raises
   {!Cpr_verify.Verify.Verify_error} on any error-severity finding.  The
   whole check runs inside a [verify/<stage>] span; the [verify_time]
   ref keeps the pre-span accounting contract (the <10%-of-suite budget
   the bench harness tracks) for callers that do not read traces. *)
let verify_stage ?(verify = true) ?verify_time ~stage ~before p =
  if verify then
    Obs.span ("verify/" ^ stage) (fun () ->
        let t0 = Unix.gettimeofday () in
        (* Superblock formation lays out traces without reordering ops,
           so the schedule-hazard re-derivation cannot find anything the
           transformed stages would not also see; skip it there. *)
        let sched = stage <> "superblock" in
        Cpr_verify.Verify.check_stage_exn ~sched ~stage ~before p;
        match verify_time with
        | Some r -> r := !r +. (Unix.gettimeofday () -. t0)
        | None -> ())

let baseline ?verify ?verify_time prog inputs =
  with_pass ~stage:"baseline" prog (fun () ->
      let p, observed = prepare_with profile_observed prog inputs in
      Chaos.trip ~stage:"superblock" p;
      verify_stage ?verify ?verify_time ~stage:"superblock" ~before:prog p;
      { prog = p; icbm = None; observed = Some observed })

let height_reduce_prepared ?heur ?verify ?verify_time p inputs =
  let before = Prog.copy p in
  let stats = Cpr_core.Icbm.run ?heur p in
  Chaos.trip ~stage:"icbm" p;
  Validate.check_exn p;
  verify_stage ?verify ?verify_time ~stage:"icbm" ~before p;
  let observed = profile_observed p inputs in
  record_icbm before stats p;
  { prog = p; icbm = Some stats; observed = Some observed }

let height_reduce ?heur ?verify ?verify_time prog inputs =
  with_pass ~stage:"icbm" prog (fun () ->
      height_reduce_prepared ?heur ?verify ?verify_time (prepare prog inputs)
        inputs)

(* Per-stage entry points: each runs one transformation (plus its
   prerequisites) on a prepared copy, re-validates and re-profiles.  The
   differential fuzzer drives these individually so a miscompile is
   attributed to the narrowest stage that exhibits it. *)

let finish ?verify ?verify_time ~stage ~before p inputs =
  (* Chaos injection point: fires only when the chaos harness armed this
     stage on this domain; a no-op in production.  Placed after the
     transform and before validation so a [Corrupt] fault exercises
     exactly the detection path (validate -> verify -> fallback) a real
     miscompile would take. *)
  Chaos.trip ~stage p;
  Validate.check_exn p;
  verify_stage ?verify ?verify_time ~stage ~before p;
  profile p inputs;
  { prog = p; icbm = None; observed = None }

let superblock_only ?verify ?verify_time prog inputs =
  baseline ?verify ?verify_time prog inputs

let if_convert ?verify ?verify_time prog inputs =
  with_pass ~stage:"ifconv" prog (fun () ->
      let p = prepare prog inputs in
      let before = Prog.copy p in
      let (_ : Cpr_core.Ifconv.stats) = Cpr_core.Ifconv.convert p in
      finish ?verify ?verify_time ~stage:"ifconv" ~before p inputs)

let frp_convert ?verify ?verify_time prog inputs =
  with_pass ~stage:"frp" prog (fun () ->
      let p = prepare prog inputs in
      let before = Prog.copy p in
      let (_ : int) = Cpr_core.Frp.convert p in
      finish ?verify ?verify_time ~stage:"frp" ~before p inputs)

let speculate ?verify ?verify_time prog inputs =
  with_pass ~stage:"spec" prog (fun () ->
      let p = prepare prog inputs in
      let before = Prog.copy p in
      let (_ : int) = Cpr_core.Frp.convert p in
      let (_ : Cpr_core.Spec.stats) = Cpr_core.Spec.speculate p in
      finish ?verify ?verify_time ~stage:"spec" ~before p inputs)

let full_cpr ?verify ?verify_time prog inputs =
  with_pass ~stage:"fullcpr" prog (fun () ->
      let p = prepare prog inputs in
      let before = Prog.copy p in
      List.iter
        (fun (r : Region.t) ->
          if Cpr_core.Frp.convert_region p r then begin
            let (_ : Cpr_core.Spec.stats) =
              Cpr_core.Spec.speculate_region p r
            in
            ignore (Cpr_core.Fullcpr.transform_region p r : bool)
          end)
        (Prog.regions p);
      finish ?verify ?verify_time ~stage:"fullcpr" ~before p inputs)

let unroll ?(factor = 2) ?verify ?verify_time prog inputs =
  with_pass ~stage:"unroll" prog (fun () ->
      let p = prepare prog inputs in
      let before = Prog.copy p in
      List.iter
        (fun (r : Region.t) ->
          if Cpr_core.Unroll.unrollable p r then
            ignore (Cpr_core.Unroll.unroll_region p r ~factor : bool))
        (Prog.regions p);
      finish ?verify ?verify_time ~stage:"unroll" ~before p inputs)

type entry =
  ?verify:bool ->
  ?verify_time:float ref ->
  Prog.t ->
  Cpr_sim.Equiv.input list ->
  compiled

let stage_names =
  [ "superblock"; "ifconv"; "frp"; "spec"; "unroll"; "fullcpr"; "icbm" ]

let by_name : string -> entry option = function
  | "superblock" | "baseline" -> Some baseline
  | "ifconv" -> Some if_convert
  | "frp" -> Some frp_convert
  | "spec" -> Some speculate
  | "unroll" -> Some (fun ?verify ?verify_time p i -> unroll ?verify ?verify_time p i)
  | "fullcpr" -> Some full_cpr
  | "icbm" ->
    Some (fun ?verify ?verify_time p i -> height_reduce ?verify ?verify_time p i)
  | _ -> None

(* The verified fallback: a plain copy of the pre-pass IR, the last
   program known good.  Never a partially transformed working copy —
   passes mutate in place, so mid-pass state may violate invariants the
   rest of the pipeline relies on, while the input was validated on the
   way in.  Must be infallible ({!Recover.protect} does not sandbox the
   fallback), hence the best-effort profile. *)
let fallback_compiled prog inputs =
  let p = Prog.copy prog in
  let observed =
    try Some (profile_observed p inputs)
    with _ ->
      Prog.clear_profile p;
      None
  in
  { prog = p; icbm = None; observed }

(* Sandbox [run], a stage over [prog]: the fallback and any crash
   bundle always describe [prog], the raw pre-pass input. *)
let guard ?bundle_dir ~stage prog inputs run =
  let on_failure =
    Option.map
      (fun dir fail -> Recover.bundle_to ~dir ~inputs prog fail)
      bundle_dir
  in
  Recover.protect ?on_failure ~stage
    ~fallback:(fun () -> fallback_compiled prog inputs)
    run

let protected ?verify ?verify_time ?bundle_dir ~stage prog inputs =
  match by_name stage with
  | None -> invalid_arg ("Passes.protected: unknown stage " ^ stage)
  | Some run ->
    guard ?bundle_dir ~stage prog inputs (fun () ->
        run ?verify ?verify_time prog inputs)

(* The paper's two compiled codes from one preparation: ICBM starts from
   a fresh copy of the committed baseline (made inside the retried thunk,
   so a retry starts clean) instead of preparing the input again.  A
   degraded baseline is no starting point; ICBM then prepares for
   itself. *)
let compile ?verify_time ?bundle_dir prog inputs =
  let base =
    protected ?verify_time ?bundle_dir ~stage:"superblock" prog inputs
  in
  let reduced =
    match base with
    | Recover.Committed b ->
      guard ?bundle_dir ~stage:"icbm" prog inputs (fun () ->
          with_pass ~stage:"icbm" prog (fun () ->
              (* The trim [prepare] would have done. *)
              Cpr_analysis.Pqs.trim ();
              height_reduce_prepared ?verify_time (Prog.copy b.prog) inputs))
    | Recover.Fell_back _ ->
      protected ?verify_time ?bundle_dir ~stage:"icbm" prog inputs
  in
  (base, reduced)

let equivalent base reduced inputs =
  let side c =
    match c.observed with
    | Some obs -> Cpr_sim.Equiv.Observed obs
    | None -> Cpr_sim.Equiv.Run c.prog
  in
  Cpr_sim.Equiv.verdict (side base) (side reduced) inputs
