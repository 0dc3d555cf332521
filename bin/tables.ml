(* Regenerate the paper's Table 2 (speedups across the five processors)
   and Table 3 (static/dynamic operation-count ratios, medium processor)
   over the full benchmark suite.  `tables --quick` runs a three-workload
   subset. *)

module W = Cpr_workloads
module P = Cpr_pipeline

module Descr = Cpr_machine.Descr

(* The machine family: issue widths from the paper, register-file sizes
   from our HPL-PD-flavoured extension (the budgets `lint --pressure`
   checks MAXLIVE against). *)
let print_machines () =
  Format.printf "Machine register files (gpr/pred/btr per class)@.@.";
  Format.printf "%-14s%8s%8s%8s@." "Machine" "gpr" "pred" "btr";
  List.iter
    (fun (m : Descr.t) ->
      Format.printf "%-14s%8d%8d%8d@." m.Descr.name
        (Descr.regfile_size m Cpr_ir.Reg.Gpr)
        (Descr.regfile_size m Cpr_ir.Reg.Pred)
        (Descr.regfile_size m Cpr_ir.Reg.Btr))
    Descr.all

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  print_machines ();
  let suite =
    if quick then
      List.filter_map W.Registry.find [ "strcpy"; "grep"; "099.go" ]
    else W.Registry.all
  in
  let results =
    List.map
      (fun (w : W.Workload.t) ->
        let r =
          P.Report.run ~name:w.W.Workload.name (w.W.Workload.build ())
            (w.W.Workload.inputs ())
        in
        (match r.P.Report.equivalent with
        | Ok () -> ()
        | Error e ->
          Format.eprintf "WARNING %s: equivalence failure: %s@."
            w.W.Workload.name e);
        Format.eprintf "  [%s done]@.%!" w.W.Workload.name;
        r)
      suite
  in
  Format.printf "@.Table 2: ICBM speedup by processor (paper Table 2)@.@.";
  P.Report.print_table2 Format.std_formatter results;
  Format.printf
    "@.Table 3: static/dynamic operation-count ratios, medium processor \
     (paper Table 3)@.@.";
  P.Report.print_table3 Format.std_formatter results
