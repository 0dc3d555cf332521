open Cpr_ir
module Obs = Cpr_obs.Obs
module Chaos = Cpr_resilience.Chaos
module Recover = Cpr_resilience.Recover
module Sched_table = Cpr_sched.Sched_table

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
   profile recording on (the program decoded once), keeping [f] of each
   outcome (and never the interpreter state itself). *)
let interpret prog inputs f =
  Obs.span "profile" (fun () ->
      Prog.clear_profile prog;
      Cpr_sim.Equiv.run_each ~profile:true prog inputs f)

let profile prog inputs = ignore (interpret prog inputs ignore : unit list)

let profile_observed prog inputs =
  interpret prog inputs (fun (out : Cpr_sim.Interp.outcome) ->
      Cpr_sim.Equiv.observation_of prog out.exit_label out.state)

(* Both compiled codes start from the same superblock formation — the
   paper's baseline is "optimized superblock code produced by the IMPACT
   compiler", not the raw region graph.  [final] is the closing profile
   run, whose result is returned beside the program. *)
let prepare_with final prog inputs =
  Obs.span "pass/prepare" (fun () ->
      (* Program boundary: trim the predicate engine's node table so a
         long suite/fuzz run's footprint stays bounded by one program's
         working set, not the whole run. *)
      Cpr_analysis.Pqs.trim ();
      let p = Prog.copy prog in
      profile p inputs;
      let formed = Cpr_core.Superblock.form p in
      Obs.add c_regions_formed formed;
      let (_ : int) = Cpr_core.Superblock.prune_unreachable p in
      Validate.check_exn p;
      (p, final p inputs))

let prepare prog inputs = fst (prepare_with profile prog inputs)

(* The stage table: every pipeline stage, in pipeline order.  A row's
   [transform] rewrites a {!prepare}d copy in place and returns ICBM's
   statistics ([None] for every other stage); {!run} drives each row the
   same way.  [superblock] is {!prepare} itself, so its transform has
   nothing left to do. *)
type stage = {
  name : string;
  transform :
    Cpr_core.Heur.t -> live:(unit -> Cpr_analysis.Liveness.t) -> Prog.t
    -> Cpr_core.Icbm.region_stats option;
}

let rewrite f _heur ~live:_ p =
  f p;
  None

let each_region f = rewrite (fun p -> List.iter (f p) (Prog.regions p))

(* Profile-guided superblock formation (tail duplication). *)
let superblock = { name = "superblock"; transform = rewrite ignore }

(* The ICBM schema: FRP conversion, speculation, match, restructure,
   off-trace motion, DCE. *)
let icbm =
  {
    name = "icbm";
    transform =
      (fun heur ~live p -> Some (Cpr_core.Icbm.run_live ~heur ~live p));
  }

let stages =
  [
    superblock;
    (* Classic if-conversion of unbiased side exits. *)
    {
      name = "ifconv";
      transform =
        rewrite (fun p ->
            ignore (Cpr_core.Ifconv.convert p : Cpr_core.Ifconv.stats));
    };
    (* Fully-resolved-predicate conversion. *)
    {
      name = "frp";
      transform = rewrite (fun p -> ignore (Cpr_core.Frp.convert p : int));
    };
    (* FRP conversion + predicate speculation. *)
    {
      name = "spec";
      transform =
        rewrite (fun p ->
            ignore (Cpr_core.Frp.convert p : int);
            ignore (Cpr_core.Spec.speculate p : Cpr_core.Spec.stats));
    };
    (* Superblock loop unrolling, factor 2. *)
    {
      name = "unroll";
      transform =
        each_region (fun p r ->
            if Cpr_core.Unroll.unrollable p r then
              ignore (Cpr_core.Unroll.unroll_region p r ~factor:2 : bool));
    };
    (* Full (redundant) CPR after Schlansker & Kathail, region by
       region after FRP conversion and speculation. *)
    {
      name = "fullcpr";
      transform =
        each_region (fun p r ->
            if Cpr_core.Frp.convert_region p r then begin
              ignore
                (Cpr_core.Spec.speculate_region p r : Cpr_core.Spec.stats);
              ignore (Cpr_core.Fullcpr.transform_region p r : bool)
            end);
    };
    icbm;
  ]

(* [baseline] names the superblock stage where the paper's word is the
   natural one: its [pass/baseline] span and the [cprc show] phase. *)
let baseline_name = "baseline"

let find name =
  if name = baseline_name then Some superblock
  else List.find_opt (fun s -> s.name = name) stages

(* Static verification of one transformation step: raises
   {!Cpr_verify.Verify.Verify_error} on any error-severity finding.  The
   whole check runs inside a [verify/<stage>] span; the [verify_time]
   ref keeps the pre-span accounting contract (the <10%-of-suite budget
   tables.exe reports) for callers that do not read traces. *)
let verify_stage ?(verify = true) ?verify_time ?table stage ~before p =
  if verify then
    Obs.span ("verify/" ^ stage.name) (fun () ->
        let t0 = Unix.gettimeofday () in
        (* Superblock formation lays out traces without reordering ops,
           so the schedule-hazard re-derivation cannot find anything the
           transformed stages would not also see; skip it there. *)
        let sched = stage.name <> superblock.name in
        Cpr_verify.Verify.check_stage_exn ~sched ?table ~stage:stage.name
          ~before p;
        match verify_time with
        | Some r -> r := !r +. (Unix.gettimeofday () -. t0)
        | None -> ())

(* The runner's tail on an already prepared [p]: transform, then the
   chaos injection point, validation, verification and the closing
   profile run.  The chaos point fires only when the chaos harness armed
   this stage on this domain (a no-op in production); it sits after the
   transform and before validation so a [Corrupt] fault takes exactly
   the detection path (validate -> verify -> fallback) a real miscompile
   would.  [before], what verification compares against, is a copy of
   [p] unless the caller holds the same program unrewritten.

   With a [table], the transform's liveness starts from [before]'s
   table solution, re-solved on [p] (which shares its op lists), and
   [p]'s version adopts the tracker's solution once the program is final
   — after the transform's last rewrite and the chaos point — so the
   stage calls [Liveness.analyze] once, for its input. *)
let finish ?(heur = Cpr_core.Heur.default) ?verify ?verify_time ?table ?before
    stage p inputs =
  let before = match before with Some b -> b | None -> Prog.copy p in
  let from =
    Option.map
      (fun t -> Sched_table.liveness (Sched_table.version t before))
      table
  in
  let live = Cpr_analysis.Liveness.tracker ?from p in
  let stats = stage.transform heur ~live p in
  Chaos.trip ~stage:stage.name p;
  Validate.check_exn p;
  Option.iter
    (fun t -> Sched_table.adopt (Sched_table.version t p) (live ()))
    table;
  verify_stage ?verify ?verify_time ?table stage ~before p;
  (* Only the height-reduced code needs observations, for {!equivalent};
     the other stages' outputs are just re-profiled. *)
  let observed =
    if stage.name = icbm.name then Some (profile_observed p inputs)
    else begin
      profile p inputs;
      None
    end
  in
  Option.iter (fun s -> record_icbm before s p) stats;
  { prog = p; icbm = stats; observed }

(* The one runner every row goes through, inside its [pass/<stage>]
   span, beside the program the output is verified against.
   Superblock formation is [prepare] alone: its observations come from
   [prepare]'s closing profile run and it is verified against the raw
   input.  Every other stage is verified against the pristine copy of
   the prepared program it rewrote, taken before the transform, so a
   stage run prepares once. *)
let run_with_input ?heur ?verify ?verify_time stage prog inputs =
  if stage.name = superblock.name then
    ( prog,
      with_pass ~stage:baseline_name prog (fun () ->
          let p, observed = prepare_with profile_observed prog inputs in
          Chaos.trip ~stage:stage.name p;
          verify_stage ?verify ?verify_time stage ~before:prog p;
          { prog = p; icbm = None; observed = Some observed }) )
  else
    let input = ref prog in
    let compiled =
      with_pass ~stage:stage.name prog (fun () ->
          let p = prepare prog inputs in
          let before = Prog.copy p in
          input := before;
          finish ?heur ?verify ?verify_time ~before stage p inputs)
    in
    (!input, compiled)

let run ?heur ?verify ?verify_time stage prog inputs =
  snd (run_with_input ?heur ?verify ?verify_time stage prog inputs)

let baseline ?verify ?verify_time prog inputs =
  run ?verify ?verify_time superblock prog inputs

let height_reduce_prepared ?heur ?verify ?verify_time p inputs =
  finish ?heur ?verify ?verify_time icbm p inputs

let height_reduce ?heur ?verify ?verify_time prog inputs =
  run ?heur ?verify ?verify_time icbm prog inputs

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
  match find stage with
  | None -> invalid_arg ("Passes.protected: unknown stage " ^ stage)
  | Some s ->
    guard ?bundle_dir ~stage prog inputs (fun () ->
        run ?verify ?verify_time s prog inputs)

(* The paper's two compiled codes from one preparation: ICBM starts from
   a fresh copy of the committed baseline (made inside the retried thunk,
   so a retry starts clean) instead of preparing the input again.  A
   degraded baseline is no starting point; ICBM then prepares for
   itself. *)
let compile ?verify_time ?table ?bundle_dir prog inputs =
  let base =
    protected ?verify_time ?bundle_dir ~stage:superblock.name prog inputs
  in
  let reduced =
    match base with
    | Recover.Committed b ->
      guard ?bundle_dir ~stage:icbm.name prog inputs (fun () ->
          with_pass ~stage:icbm.name prog (fun () ->
              (* The trim [prepare] would have done.  The committed
                 baseline is never rewritten, so it serves as the
                 stage's input for verification. *)
              Cpr_analysis.Pqs.trim ();
              finish ?verify_time ?table ~before:b.prog icbm
                (Prog.copy b.prog) inputs))
    | Recover.Fell_back _ ->
      protected ?verify_time ?bundle_dir ~stage:icbm.name prog inputs
  in
  (base, reduced)

let equivalent base reduced inputs =
  let side c =
    match c.observed with
    | Some obs -> Cpr_sim.Equiv.Observed obs
    | None -> Cpr_sim.Equiv.Run c.prog
  in
  Cpr_sim.Equiv.verdict (side base) (side reduced) inputs
