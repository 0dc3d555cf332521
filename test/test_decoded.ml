(* The decoded interpreter against the reference that walks [Op.t]
   lists ([Interp_reference]): exit label, the four counters, memory,
   store trace, every register the program or its inputs name, the
   profile tables, and the [Stuck] message of a malformed program. *)

open Cpr_ir
open Helpers
module Sim = Cpr_sim
module Ref = Interp_reference
module W = Cpr_workloads

let registers prog (inputs : Sim.Equiv.input list) =
  List.concat_map
    (fun (r : Region.t) ->
      List.concat_map (fun op -> Op.uses op @ Op.defs op) r.Region.ops)
    (Prog.regions prog)
  @ prog.Prog.live_out
  @ List.concat_map
      (fun (i : Sim.Equiv.input) ->
        List.map fst i.Sim.Equiv.gprs @ List.map fst i.Sim.Equiv.preds)
      inputs
  |> List.sort_uniq Reg.compare

let outcome f =
  match f () with
  | v -> Ok v
  | exception Sim.Interp.Stuck m -> Error ("stuck: " ^ m)
  | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)

let same_run what regs decoded reference =
  match (decoded, reference) with
  | Error d, Error r -> check Alcotest.string (what ^ ": failure") r d
  | Ok (d : Sim.Interp.outcome), Ok (r : Ref.outcome) ->
    check
      Alcotest.(option string)
      (what ^ ": exit") r.Ref.exit_label d.Sim.Interp.exit_label;
    List.iter
      (fun (name, want, got) -> checki (what ^ ": " ^ name) want got)
      [
        ("ops_executed", r.Ref.ops_executed, d.Sim.Interp.ops_executed);
        ("ops_issued", r.Ref.ops_issued, d.Sim.Interp.ops_issued);
        ( "branches_executed",
          r.Ref.branches_executed,
          d.Sim.Interp.branches_executed );
        ("steps", r.Ref.steps, d.Sim.Interp.steps);
      ];
    let cells = Alcotest.(list (pair int int)) in
    let rs = r.Ref.state and ds = d.Sim.Interp.state in
    check cells (what ^ ": memory") (Ref.memory_snapshot rs)
      (Sim.State.memory_snapshot ds);
    check cells (what ^ ": stores") (Ref.store_trace rs)
      (Sim.State.store_trace ds);
    List.iter
      (fun reg ->
        let name = what ^ ": " ^ Reg.to_string reg in
        checki name (Ref.read_gpr rs reg) (Sim.State.read_gpr ds reg);
        checkb name (Ref.read_pred rs reg) (Sim.State.read_pred ds reg))
      regs
  | Ok _, Error r -> Alcotest.failf "%s: only the reference failed: %s" what r
  | Error d, Ok _ -> Alcotest.failf "%s: only the decoded run failed: %s" what d

let same_profile what (decoded : Prog.t) (reference : Prog.t) =
  List.iter
    (fun (r : Region.t) ->
      let d = Prog.find_exn decoded r.Region.label in
      let name = what ^ ": " ^ r.Region.label in
      checki (name ^ " entries") r.Region.entry_count d.Region.entry_count;
      List.iter
        (fun (op : Op.t) ->
          checki
            (Printf.sprintf "%s taken %d" name op.Op.id)
            (Region.taken_count r op.Op.id)
            (Region.taken_count d op.Op.id))
        r.Region.ops)
    (Prog.regions reference)

(* Profile fresh copies of [prog] with both interpreters, one decoding
   for all inputs, and compare every run and the recorded profiles. *)
let agree ?max_steps what prog inputs =
  let dp = Prog.copy prog and rp = Prog.copy prog in
  Prog.clear_profile dp;
  Prog.clear_profile rp;
  let regs = registers prog inputs in
  let code = Sim.Code.decode dp in
  List.iteri
    (fun i input ->
      let decoded =
        outcome (fun () ->
            Sim.Interp.run ?max_steps ~profile:true code
              (Sim.Equiv.state_of code input))
      in
      let reference =
        outcome (fun () -> Ref.run ?max_steps ~profile:true rp input)
      in
      same_run (Printf.sprintf "%s input %d" what i) regs decoded reference)
    inputs;
  Sim.Code.commit_profile code;
  same_profile what dp rp

let registry_workloads () =
  List.iter
    (fun (w : W.Workload.t) ->
      let name = w.W.Workload.name and inputs = w.W.Workload.inputs () in
      let raw = w.W.Workload.build () in
      agree (name ^ " raw") raw inputs;
      let base, red = Cpr_pipeline.Passes.compile raw inputs in
      List.iter
        (fun (code, compiled) ->
          match compiled with
          | Cpr_resilience.Recover.Committed (c : Cpr_pipeline.Passes.compiled)
            ->
            agree (name ^ " " ^ code) c.Cpr_pipeline.Passes.prog inputs
          | Cpr_resilience.Recover.Fell_back _ ->
            Alcotest.failf "%s %s degraded" name code)
        [ ("baseline", base); ("cpr", red) ])
    W.Registry.all

(* [Passes.profile] (decode once, fold the counters at the end) records
   exactly the reference's per-run profile. *)
let profiler_tables () =
  List.iter
    (fun (w : W.Workload.t) ->
      let inputs = w.W.Workload.inputs () in
      let dp = w.W.Workload.build () and rp = w.W.Workload.build () in
      Cpr_pipeline.Passes.profile dp inputs;
      List.iter
        (fun input -> ignore (Ref.run ~profile:true rp input : Ref.outcome))
        inputs;
      same_profile w.W.Workload.name dp rp)
    W.Registry.all

let generated_stages () =
  for seed = 0 to 300 do
    let prog = W.Gen.prog_of_seed seed in
    let inputs = W.Gen.inputs_of_seed seed in
    agree (Printf.sprintf "seed %d raw" seed) prog inputs;
    List.iter
      (fun (stage : Cpr_fuzz.Stage.t) ->
        match stage.Cpr_fuzz.Stage.apply prog inputs with
        | candidate ->
          agree
            (Printf.sprintf "seed %d %s" seed stage.Cpr_fuzz.Stage.name)
            candidate inputs
        | exception Sim.Interp.Stuck _ -> ())
      Cpr_fuzz.Stage.all
  done

(* Hand-written programs, each a malformed op or an edge of control
   flow; the first region is the entry. *)
let op ?(guard = Op.True) id opcode dests srcs =
  Op.make ~id ~guard opcode dests srcs

let r = Reg.gpr and p = Reg.pred and b = Reg.btr
let add = Op.Alu Op.Add

let malformed =
  let prog ?(entry = "A") ?(exits = [ "Exit" ]) regions =
    Prog.create ~entry ~exit_labels:exits ~live_out:[ r 1 ]
      (List.map
         (fun (label, fallthrough, ops) -> Region.make ?fallthrough label ops)
         regions)
  in
  let one ops = prog [ ("A", Some "Exit", ops) ] in
  let set_p1 v = op 90 (Op.Pred_init [ v ]) [ p 1 ] [] in
  [
    ("btr as value", one [ op 1 add [ r 1 ] [ Op.Reg (b 1); Op.Imm 1 ] ]);
    ("label as value", one [ op 1 add [ r 1 ] [ Op.Lab "A"; Op.Imm 1 ] ]);
    ( "btr and label as values",
      one [ op 1 add [ r 1 ] [ Op.Reg (b 1); Op.Lab "A" ] ] );
    ("unset btr", one [ op 1 Op.Branch [] [ Op.Reg (b 1) ] ]);
    ( "unknown label",
      one
        [
          op 1 Op.Pbr [ b 1 ] [ Op.Lab "Nowhere"; Op.Imm 0 ];
          op 2 Op.Branch [] [ Op.Reg (b 1) ];
        ] );
    ("unknown entry", prog ~entry:"Nowhere" [ ("A", Some "Exit", []) ]);
    ( "unknown fallthrough",
      one [ op 1 add [ r 1 ] [ Op.Imm 1; Op.Imm 2 ] ]
      |> fun pr ->
      (Prog.find_exn pr "A").Region.fallthrough <- Some "Nowhere";
      pr );
    ( "step budget",
      one
        [
          op 1 add [ r 1 ] [ Op.Reg (r 1); Op.Imm 1 ];
          op 2 Op.Pbr [ b 1 ] [ Op.Lab "A"; Op.Imm 0 ];
          op 3 Op.Branch [] [ Op.Reg (b 1) ];
        ] );
    ( "malformed alu under a false guard",
      one
        [
          set_p1 false;
          op ~guard:(Op.If (p 1)) 1 add [ r 1 ] [ Op.Imm 1 ];
          op 2 add [ r 1 ] [ Op.Imm 1; Op.Imm 2 ];
        ] );
    ( "malformed cmpp under a false guard",
      one
        [
          set_p1 false;
          op ~guard:(Op.If (p 1)) 1 (Op.Cmpp (Op.Eq, Op.Un, None)) [ p 2 ]
            [ Op.Imm 1 ];
        ] );
    ("malformed alu", one [ op 1 add [ r 1; r 2 ] [ Op.Imm 1; Op.Imm 2 ] ]);
    ("malformed falu", one [ op 1 (Op.Falu Op.Fadd) [] [ Op.Imm 1; Op.Imm 2 ] ]);
    ("malformed load", one [ op 1 Op.Load [ r 1 ] [ Op.Imm 1 ] ]);
    ("malformed store", one [ op 1 Op.Store [] [ Op.Imm 1; Op.Imm 2 ] ]);
    ("malformed pbr", one [ op 1 Op.Pbr [ b 1 ] [ Op.Imm 0 ] ]);
    ("malformed branch", one [ op 1 Op.Branch [] [ Op.Imm 0 ] ]);
    ( "pred_init of the wrong length",
      one [ op 1 (Op.Pred_init [ true; false ]) [ p 1 ] [] ] );
    ( "registers of one id in several files",
      one
        [
          op 1 (Op.Cmpp (Op.Eq, Op.Un, None)) [ r 1 ] [ Op.Imm 1; Op.Imm 1 ];
          op ~guard:(Op.If (r 1)) 2 add [ r 2 ] [ Op.Reg (p 1); Op.Imm 5 ];
          op 3 Op.Pbr [ r 3 ] [ Op.Lab "Exit"; Op.Imm 0 ];
          op 4 Op.Branch [] [ Op.Reg (r 3) ];
        ] );
    ( "an exit label shadows a region",
      prog ~exits:[ "Exit"; "B" ]
        [
          ("A", Some "B", [ op 1 add [ r 1 ] [ Op.Imm 1; Op.Imm 2 ] ]);
          ("B", Some "Exit", [ op 2 add [ r 1 ] [ Op.Imm 3; Op.Imm 4 ] ]);
        ] );
    ( "a region without fallthrough",
      prog [ ("A", None, [ op 1 add [ r 1 ] [ Op.Imm 1; Op.Imm 2 ] ]) ] );
  ]

let malformed_programs () =
  let inputs =
    [ { Sim.Equiv.memory = [ (1, 2) ]; gprs = [ (r 9, 4) ]; preds = [] } ]
  in
  List.iter (fun (what, prog) -> agree ~max_steps:50 what prog inputs) malformed

(* Memory at addresses whose offsets from each other overflow. *)
let extreme_addresses () =
  let big = max_int - 3 and small = min_int + 3 in
  let prog =
    Prog.create ~entry:"A"
      [
        Region.make ~fallthrough:"Exit" "A"
          [
            op 1 Op.Store [] [ Op.Imm big; Op.Imm 0; Op.Imm 1 ];
            op 2 Op.Store [] [ Op.Imm small; Op.Imm 0; Op.Imm 2 ];
            op 3 Op.Load [ r 1 ] [ Op.Imm 0; Op.Imm 7 ];
            op 4 Op.Store [] [ Op.Imm big; Op.Imm 0; Op.Reg (r 1) ];
          ];
      ]
  in
  agree "extreme addresses" prog
    [ Sim.Equiv.input_of_memory [ (7, 9); (max_int, 4); (min_int, 5) ] ]

(* Register ids above 2^20: the decoded state holds the registers the
   program uses, not its largest id. *)
let sparse_registers () =
  let big = (1 lsl 20) + 7 in
  let ctx = Builder.create () in
  let region =
    Builder.region ctx "A" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = Builder.movi e (r big) 5 in
        let (_ : Op.t) = Builder.addi e (r (big * 2)) (r big) 1 in
        let (_ : Op.t) =
          Builder.cmpp1 e Op.Eq Op.Un (p (big * 3)) (Op.Reg (r (big * 2)))
            (Op.Imm 6)
        in
        let (_ : Op.t) =
          Builder.store e ~guard:(Op.If (p (big * 3))) ~base:(r big) ~off:0
            (Op.Reg (r (big * 2)))
        in
        ())
  in
  let prog = Builder.prog ctx ~entry:"A" ~live_out:[ r (big * 2) ] [ region ] in
  agree "sparse" prog [ Sim.Equiv.no_input ];
  let code = Sim.Code.decode prog in
  checki "general file" 2 (Reg.Tbl.length code.Sim.Code.gprs);
  checki "predicate file" 1 (Reg.Tbl.length code.Sim.Code.preds);
  let before = Gc.minor_words () in
  let st = Sim.Equiv.state_of code Sim.Equiv.no_input in
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "a state is small (%.0f words)" words)
    true (words < 1000.);
  checki "untouched" 0 (Sim.State.read_gpr st (r big));
  checkb "a state of another decoding is refused" true
    (match Sim.Interp.run (Sim.Code.decode prog) st with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  ( "decoded interpreter",
    [
      case "= reference on every registry workload" registry_workloads;
      case "= reference profile tables" profiler_tables;
      case "= reference on seeds 0..300, all stages" generated_stages;
      case "= reference on malformed programs" malformed_programs;
      case "= reference at extreme addresses" extreme_addresses;
      case "sparse register ids" sparse_registers;
    ] )
