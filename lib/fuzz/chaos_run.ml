module W = Cpr_workloads
module Obs = Cpr_obs.Obs
module Passes = Cpr_pipeline.Passes
module Inject = Cpr_resilience.Chaos
module Recover = Cpr_resilience.Recover

type status =
  | Committed
  | Degraded of Recover.failure
  | Escaped of string

type outcome = {
  seed : int;
  stage : string;
  kind : Inject.kind;
  status : status;
}

(* Deterministic fault plan: a multiplicative hash of the seed picks the
   stage from [h mod n_stages] and the fault kind from the digits above
   it, [h / n_stages mod n_kinds], so every (seed, plan) pair is
   reproducible from the seed alone and consecutive seeds walk the full
   stage x kind grid. *)
let plan_of_seed seed =
  let stages = Passes.stage_names in
  let n_stages = List.length stages in
  let h = seed * 2654435761 land max_int in
  let stage = List.nth stages (h mod n_stages) in
  let kinds = Inject.all_kinds in
  let kind = List.nth kinds (h / n_stages mod List.length kinds) in
  (stage, kind)

(* The invariant under test: with a fault armed at an arbitrary pipeline
   point, the protected pipeline must either commit verified output
   (transient faults are absorbed by the retry) or degrade cleanly to
   the verified fallback with a crash bundle on disk.  An exception
   escaping [Passes.protected] — [Escaped] — is the bug this harness
   exists to find. *)
let run_seed ?(bundle_dir = Cpr_resilience.Bundle.default_dir) seed =
  let stage, kind = plan_of_seed seed in
  let prog = W.Gen.prog_of_seed seed in
  let inputs = W.Gen.inputs_of_seed seed in
  Inject.arm ~stage kind;
  let status =
    Fun.protect ~finally:Inject.disarm (fun () ->
        match Passes.protected ~bundle_dir ~stage prog inputs with
        | Recover.Committed _ -> Committed
        | Recover.Fell_back (_, f) -> Degraded f
        | exception e -> Escaped (Printexc.to_string e))
  in
  { seed; stage; kind; status }

(* One task per seed; arm/disarm are domain-local, so pooled seeds keep
   their injections isolated and results come back in seed order. *)
let run ?pool ?bundle_dir ~lo ~hi () =
  Obs.span "fuzz/chaos" @@ fun () ->
  let seeds = List.init (max 0 (hi - lo)) (fun k -> lo + k) in
  let one seed =
    Obs.span ~args:[ ("seed", string_of_int seed) ] "chaos/seed" @@ fun () ->
    run_seed ?bundle_dir seed
  in
  match pool with
  | Some p ->
    Cpr_par.Pool.map
      ~label:(fun seed -> "chaos-seed-" ^ string_of_int seed)
      p one seeds
  | None -> List.map one seeds

type summary = {
  seeds : int;
  committed : int;
  degraded : int;
  bundled : int;  (* degraded runs that also produced a bundle *)
  escaped : (int * string * string) list;  (* seed, stage, exn *)
}

let summarize outcomes =
  List.fold_left
    (fun acc o ->
      match o.status with
      | Committed -> { acc with seeds = acc.seeds + 1; committed = acc.committed + 1 }
      | Degraded f ->
        {
          acc with
          seeds = acc.seeds + 1;
          degraded = acc.degraded + 1;
          bundled = (acc.bundled + if f.Recover.bundle <> None then 1 else 0);
        }
      | Escaped msg ->
        {
          acc with
          seeds = acc.seeds + 1;
          escaped = (o.seed, o.stage, msg) :: acc.escaped;
        })
    { seeds = 0; committed = 0; degraded = 0; bundled = 0; escaped = [] }
    outcomes

let ok summary = summary.escaped = []

let pp_summary ppf s =
  Format.fprintf ppf
    "chaos: %d seeds, %d committed, %d degraded (%d bundled), %d escaped@."
    s.seeds s.committed s.degraded s.bundled
    (List.length s.escaped);
  List.iter
    (fun (seed, stage, msg) ->
      Format.fprintf ppf "ESCAPED seed %d stage %s: %s@." seed stage msg)
    (List.rev s.escaped)
