open Cpr_ir
module Schedule = Cpr_sched.Schedule

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;
  region_entries : int;
}

exception Vliw_error of string

type pending =
  | Write_gpr of Reg.t * int
  | Write_pred of Reg.t * bool
  | Write_btr of Reg.t * string
  | Write_mem of int * int

let apply st = function
  | Write_gpr (r, v) -> State.write_gpr st r v
  | Write_pred (r, v) -> State.write_pred st r v
  | Write_btr (r, l) -> State.write_btr st r l
  | Write_mem (a, v) -> State.write_mem st a v

let operand_value st = function
  | Op.Reg r -> (
    match r.Reg.cls with
    | Reg.Gpr -> State.read_gpr st r
    | Reg.Pred -> if State.read_pred st r then 1 else 0
    | Reg.Btr -> raise (Vliw_error "btr read as value"))
  | Op.Imm i -> i
  | Op.Lab _ -> raise (Vliw_error "label read as value")

(* Effects of issuing [op] at cycle [c]: pending writes that land at
   [c + latency], and the redirect target if this is a taken branch. *)
let issue machine st (op : Op.t) =
  let guard =
    match op.Op.guard with
    | Op.True -> true
    | Op.If p -> State.read_pred st p
  in
  let lat = Cpr_machine.Descr.latency_of machine op in
  let writes = ref [] in
  let redirect = ref None in
  (if guard then
     match op.Op.opcode with
     | Op.Alu a -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], [ x; y ] ->
         writes :=
           [ Write_gpr (d, Op.eval_alu a (operand_value st x) (operand_value st y)) ]
       | _ -> raise (Vliw_error "malformed alu"))
     | Op.Falu f -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], [ x; y ] ->
         writes :=
           [ Write_gpr (d, Op.eval_falu f (operand_value st x) (operand_value st y)) ]
       | _ -> raise (Vliw_error "malformed falu"))
     | Op.Load -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], [ base; off ] ->
         writes :=
           [ Write_gpr
               (d, State.read_mem st (operand_value st base + operand_value st off));
           ]
       | _ -> raise (Vliw_error "malformed load"))
     | Op.Store -> (
       match op.Op.srcs with
       | [ base; off; v ] ->
         writes :=
           [ Write_mem
               (operand_value st base + operand_value st off, operand_value st v);
           ]
       | _ -> raise (Vliw_error "malformed store"))
     | Op.Pbr -> (
       match (op.Op.dests, op.Op.srcs) with
       | [ d ], Op.Lab l :: _ -> writes := [ Write_btr (d, l) ]
       | _ -> raise (Vliw_error "malformed pbr"))
     | Op.Branch -> (
       match op.Op.srcs with
       | [ Op.Reg b ] -> (
         match State.read_btr st b with
         | Some l -> redirect := Some l
         | None -> raise (Vliw_error "branch through unset btr"))
       | _ -> raise (Vliw_error "malformed branch"))
     | Op.Pred_init bits ->
       writes :=
         List.map2 (fun d v -> Write_pred (d, v)) op.Op.dests bits
     | Op.Cmpp _ -> ());
  (* cmpp destinations: Table 1 semantics evaluate even under a false
     guard for the unconditional destinations. *)
  (match op.Op.opcode with
  | Op.Cmpp (cond, a1, a2) -> (
    match op.Op.srcs with
    | [ x; y ] ->
      let c = Op.eval_cond cond (operand_value st x) (operand_value st y) in
      List.iter2
        (fun action d ->
          match Op.cmpp_dest_update action ~guard ~cond:c with
          | Some v -> writes := Write_pred (d, v) :: !writes
          | None -> ())
        (a1 :: Option.to_list a2)
        op.Op.dests
    | _ -> raise (Vliw_error "malformed cmpp"))
  | _ -> ());
  (List.rev !writes, lat, !redirect)

(* Fuel: a run that exceeds it raises rather than loop forever. *)
let max_cycles = 10_000_000

let run ?state machine (prog : Prog.t) =
  let st = match state with Some s -> s | None -> State.create () in
  let schedules = Cpr_sched.List_sched.schedule_prog machine prog in
  (* per-region: cycle -> ops issued that cycle, in program order *)
  let buckets = Hashtbl.create 17 in
  List.iter
    (fun (label, (s : Schedule.t)) ->
      let by_cycle = Hashtbl.create 17 in
      Array.iteri
        (fun i op ->
          let c = s.Schedule.cycle.(i) in
          Hashtbl.replace by_cycle c
            (Option.value ~default:[] (Hashtbl.find_opt by_cycle c) @ [ op ]))
        s.Schedule.ops;
      Hashtbl.replace buckets label (s.Schedule.length, by_cycle))
    schedules;
  let total_cycles = ref 0 in
  let entries = ref 0 in
  let rec run_region label =
    if Prog.is_exit prog label then Some label
    else
      match Hashtbl.find_opt buckets label with
      | None -> raise (Vliw_error ("no schedule for " ^ label))
      | Some (length, by_cycle) ->
        incr entries;
        let pending : (int, pending list) Hashtbl.t = Hashtbl.create 17 in
        let redirect = ref None (* (cycle, target) *) in
        let land_writes c =
          List.iter (apply st)
            (Option.value ~default:[] (Hashtbl.find_opt pending c));
          Hashtbl.remove pending c
        in
        let flush_all () =
          let cs =
            Hashtbl.fold (fun c _ acc -> c :: acc) pending []
            |> List.sort Int.compare
          in
          List.iter land_writes cs
        in
        let result = ref None in
        let c = ref 0 in
        while !result = None do
          if !total_cycles > max_cycles then
            raise (Vliw_error "cycle budget exceeded");
          land_writes !c;
          (match !redirect with
          | Some (rc, target) when rc = !c ->
            flush_all ();
            result := Some (`Goto target)
          | _ ->
            if !c >= length then begin
              flush_all ();
              result :=
                Some
                  (match (Prog.find_exn prog label).Region.fallthrough with
                  | Some next -> `Goto next
                  | None -> `Halt)
            end
            else begin
              List.iter
                (fun op ->
                  let writes, lat, br = issue machine st op in
                  if writes <> [] then
                    Hashtbl.replace pending (!c + lat)
                      (Option.value ~default:[]
                         (Hashtbl.find_opt pending (!c + lat))
                      @ writes);
                  match br with
                  | Some target -> (
                    match !redirect with
                    | Some (rc, _) when rc = !c + lat ->
                      raise (Vliw_error "simultaneous taken branches")
                    | Some (rc, _) when rc < !c + lat -> ()
                    | _ -> redirect := Some (!c + lat, target))
                  | None -> ())
                (Option.value ~default:[] (Hashtbl.find_opt by_cycle !c));
              incr total_cycles;
              incr c
            end)
        done;
        (match !result with
        | Some (`Goto next) -> run_region next
        | Some `Halt -> None
        | None -> assert false)
  in
  let exit_label = run_region prog.Prog.entry in
  {
    state = st;
    exit_label;
    cycles = !total_cycles;
    region_entries = !entries;
  }

let check_against_interp machine prog inputs =
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  List.fold_left
    (fun acc input ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        let mk () =
          let st = State.create () in
          State.set_memory st input.Equiv.memory;
          List.iter (fun (r, v) -> State.write_gpr st r v) input.Equiv.gprs;
          List.iter (fun (r, v) -> State.write_pred st r v) input.Equiv.preds;
          st
        in
        let reference = Interp.run ~state:(mk ()) prog in
        match run ~state:(mk ()) machine prog with
        | exception Vliw_error m -> fail "vliw error: %s" m
        | vl ->
          if reference.Interp.exit_label <> vl.exit_label then
            fail "exit labels differ: %s vs %s"
              (Option.value ~default:"<end>" reference.Interp.exit_label)
              (Option.value ~default:"<end>" vl.exit_label)
          else if
            State.memory_snapshot reference.Interp.state
            <> State.memory_snapshot vl.state
          then fail "memories differ"
          else Ok ()))
    (Ok ()) inputs
