(* A lex/yacc-style dispatch kernel under the microscope.

   Shows the before/after schedules on the medium machine: the baseline
   serializes nine rarely-taken case branches; after ICBM a single bypass
   branch guards them all and the dependence height collapses.

   Run with: dune exec examples/interpreter_kernel.exe *)

module W = Cpr_workloads
module P = Cpr_pipeline


let () =
  let w = Option.get (W.Registry.find "lex") in
  let prog = w.W.Workload.build () in
  let inputs = w.W.Workload.inputs () in
  let base = P.Passes.baseline prog inputs in
  let red = P.Passes.height_reduce prog inputs in
  (match Cpr_sim.Equiv.check_many base.P.Passes.prog red.P.Passes.prog inputs with
  | Ok () -> Format.printf "equivalent on all training inputs@."
  | Error e -> Format.printf "EQUIVALENCE FAILURE: %s@." e);
  let m = Cpr_machine.Descr.medium in
  let show tag p =
    let schedules = Cpr_sched.Sched_table.schedule_prog m p in
    let s = List.assoc "Loop" schedules in
    Format.printf "@.--- %s (loop length %d) ---@.%a@." tag
      s.Cpr_sched.Schedule.length Cpr_sched.Schedule.pp s
  in
  show "baseline" base.P.Passes.prog;
  show "height-reduced" red.P.Passes.prog;
  List.iter
    (fun (mach : Cpr_machine.Descr.t) ->
      let b = P.Perf.estimate mach base.P.Passes.prog in
      let t = P.Perf.estimate mach red.P.Passes.prog in
      Format.printf "%s: %d -> %d cycles (speedup %.2f)@."
        mach.Cpr_machine.Descr.name b t
        (P.Perf.speedup ~baseline:b ~transformed:t))
    Cpr_machine.Descr.all
