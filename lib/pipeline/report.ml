open Cpr_ir
module Descr = Cpr_machine.Descr
module Recover = Cpr_resilience.Recover

type result = {
  name : string;
  speedups : (string * float) list;
  s_tot : float;
  s_br : float;
  d_tot : float;
  d_br : float;
  baseline_cycles : (string * int) list;
  reduced_cycles : (string * int) list;
  icbm : Cpr_core.Icbm.region_stats;
  equivalent : (unit, string) Result.t;
  failures : Recover.failure list;
  bound_cycles : int;
  achieved_cycles : int;
  height_gap : float;
  pressure : (string * int) list;
  verify_s : float;
  total_s : float;
}

let degraded r = r.failures <> []

let run ?bundle_dir ~name prog inputs =
  Cpr_obs.Obs.span ~args:[ ("workload", name) ] ("workload/" ^ name)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let verify_time = ref 0.0 in
  let base_p, reduced_p =
    Passes.compile ~verify_time ?bundle_dir prog inputs
  in
  let failures = List.filter_map Recover.failure [ base_p; reduced_p ] in
  let base = Recover.value base_p and reduced = Recover.value reduced_p in
  let equivalent = Passes.equivalent base reduced inputs in
  (* Keep the programs only: the observations die with the verdict. *)
  let icbm = reduced.Passes.icbm in
  let base = base.Passes.prog and reduced = reduced.Passes.prog in
  let baseline_cycles =
    List.map
      (fun (m : Descr.t) -> (m.Descr.name, Perf.estimate m base))
      Descr.all
  in
  let reduced_cycles =
    List.map
      (fun (m : Descr.t) -> (m.Descr.name, Perf.estimate m reduced))
      Descr.all
  in
  let speedups =
    List.map2
      (fun (mname, b) (_, t) -> (mname, Perf.speedup ~baseline:b ~transformed:t))
      baseline_cycles reduced_cycles
  in
  (* Schedule quality on the medium machine: the static lower bound the
     height analyzer proves vs the cycles the scheduler achieves, both
     entry-weighted.  The gap is part of the deterministic result that
     the cprbench fingerprint and test_pipeline compare, so a scheduler
     or analyzer change that moves it shows up there. *)
  let bound_cycles = Perf.bound_estimate Descr.medium reduced in
  let achieved_cycles =
    Option.value ~default:0
      (List.assoc_opt Descr.medium.Descr.name reduced_cycles)
  in
  let height_gap =
    if bound_cycles = 0 then 0.
    else float_of_int (achieved_cycles - bound_cycles) /. float_of_int bound_cycles
  in
  (* Register-pressure summary of the transformed program (worst region,
     predicate-aware scheduled MAXLIVE per class, medium machine) — the
     resource half of the cost CPR pays for its height win; compared
     like the height gap. *)
  let pressure =
    List.map
      (fun (cls, v) -> (Cpr_verify.Pressurecheck.cls_name cls, v))
      (Cpr_verify.Pressurecheck.summary ~machine:Descr.medium reduced)
  in
  let sb = Stats_ir.of_prog base in
  let sr = Stats_ir.of_prog reduced in
  let s_tot, s_br, d_tot, d_br = Stats_ir.ratio sr sb in
  {
    name;
    speedups;
    s_tot;
    s_br;
    d_tot;
    d_br;
    baseline_cycles;
    reduced_cycles;
    icbm = Option.value ~default:Cpr_core.Icbm.zero_stats icbm;
    equivalent;
    failures;
    bound_cycles;
    achieved_cycles;
    height_gap;
    pressure;
    verify_s = !verify_time;
    total_s = Unix.gettimeofday () -. t0;
  }

let c_workloads = Cpr_obs.Obs.counter "report.workloads"

let run_many ?pool ?bundle_dir jobs =
  Cpr_obs.Obs.span "report/run_many" @@ fun () ->
  Cpr_obs.Obs.add c_workloads (List.length jobs);
  let one (name, prog, inputs) =
    run ?bundle_dir ~name prog inputs
  in
  match pool with
  | Some p ->
    Cpr_par.Pool.map ~label:(fun (name, _, _) -> name) p one jobs
  | None -> List.map one jobs

let gmean = function
  | [] -> 1.0
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log (max x 1e-9)) 0.0 xs
         /. float_of_int (List.length xs))

let machine_names = List.map (fun (m : Descr.t) -> m.Descr.name) Descr.all

let print_table2 ppf results =
  Format.fprintf ppf "%-14s" "Benchmark";
  List.iter (fun m -> Format.fprintf ppf "%8s" m) machine_names;
  Format.fprintf ppf "@.";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s" r.name;
      List.iter (fun (_, s) -> Format.fprintf ppf "%8.2f" s) r.speedups;
      Format.fprintf ppf "@.")
    results;
  let gmean_row label rows =
    Format.fprintf ppf "%-14s" label;
    List.iter
      (fun m ->
        let col = List.map (fun r -> List.assoc m r.speedups) rows in
        Format.fprintf ppf "%8.2f" (gmean col))
      machine_names;
    Format.fprintf ppf "@."
  in
  gmean_row "Gmean-all" results;
  let spec95 =
    List.filter
      (fun r -> List.mem r.name Cpr_workloads.Registry.spec95_names)
      results
  in
  if spec95 <> [] then gmean_row "Gmean-spec95" spec95

let print_table3 ppf results =
  Format.fprintf ppf "%-14s%8s%8s%8s%8s@." "Benchmark" "S tot" "S br" "D tot"
    "D br";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s%8.2f%8.2f%8.2f%8.2f@." r.name r.s_tot r.s_br
        r.d_tot r.d_br)
    results;
  let col f = gmean (List.map f results) in
  Format.fprintf ppf "%-14s%8.2f%8.2f%8.2f%8.2f@." "Gmean-all"
    (col (fun r -> r.s_tot))
    (col (fun r -> r.s_br))
    (col (fun r -> r.d_tot))
    (col (fun r -> r.d_br))
