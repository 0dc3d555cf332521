open Cpr_ir

exception Stuck = Cpr_sim.Interp.Stuck

type state = {
  gprs : int Reg.Tbl.t;
  preds : bool Reg.Tbl.t;
  btrs : string Reg.Tbl.t;
  memory : (int, int) Hashtbl.t;
  mutable stores : (int * int) list;
}

let read_gpr t r = Option.value ~default:0 (Reg.Tbl.find_opt t.gprs r)
let read_pred t r = Option.value ~default:false (Reg.Tbl.find_opt t.preds r)
let read_btr t r = Reg.Tbl.find_opt t.btrs r
let read_mem t a = Option.value ~default:0 (Hashtbl.find_opt t.memory a)

let write_mem t a v =
  Hashtbl.replace t.memory a v;
  t.stores <- (a, v) :: t.stores

let store_trace t = List.rev t.stores

let memory_snapshot t =
  Hashtbl.fold (fun a v acc -> (a, v) :: acc) t.memory []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let state_of (input : Cpr_sim.Equiv.input) =
  let st =
    {
      gprs = Reg.Tbl.create 64;
      preds = Reg.Tbl.create 64;
      btrs = Reg.Tbl.create 8;
      memory = Hashtbl.create 256;
      stores = [];
    }
  in
  List.iter (fun (a, v) -> Hashtbl.replace st.memory a v) input.memory;
  List.iter (fun (r, v) -> Reg.Tbl.replace st.gprs r v) input.gprs;
  List.iter (fun (r, v) -> Reg.Tbl.replace st.preds r v) input.preds;
  st

let operand_value st = function
  | Op.Reg r -> (
    match r.Reg.cls with
    | Reg.Gpr -> read_gpr st r
    | Reg.Pred -> if read_pred st r then 1 else 0
    | Reg.Btr -> raise (Stuck "btr read as value"))
  | Op.Imm i -> i
  | Op.Lab _ -> raise (Stuck "label read as value")

let guard_true st = function Op.True -> true | Op.If p -> read_pred st p

let issue st (op : Op.t) =
  let gpr d v = Reg.Tbl.replace st.gprs d v in
  let pred d v = Reg.Tbl.replace st.preds d v in
  let g = guard_true st op.Op.guard in
  match op.Op.opcode with
  | Op.Cmpp (cond, a1, a2) -> (
    match op.Op.srcs with
    | [ x; y ] ->
      let c = Op.eval_cond cond (operand_value st x) (operand_value st y) in
      List.iter2
        (fun action d ->
          match Op.cmpp_dest_update action ~guard:g ~cond:c with
          | Some v -> pred d v
          | None -> ())
        (a1 :: Option.to_list a2)
        op.Op.dests;
      None
    | _ -> raise (Stuck "malformed cmpp"))
  | _ when not g -> None
  | Op.Alu a -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], [ x; y ] ->
      gpr d (Op.eval_alu a (operand_value st x) (operand_value st y));
      None
    | _ -> raise (Stuck "malformed alu"))
  | Op.Falu f -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], [ x; y ] ->
      gpr d (Op.eval_falu f (operand_value st x) (operand_value st y));
      None
    | _ -> raise (Stuck "malformed falu"))
  | Op.Load -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], [ base; off ] ->
      gpr d (read_mem st (operand_value st base + operand_value st off));
      None
    | _ -> raise (Stuck "malformed load"))
  | Op.Store -> (
    match op.Op.srcs with
    | [ base; off; v ] ->
      write_mem st
        (operand_value st base + operand_value st off)
        (operand_value st v);
      None
    | _ -> raise (Stuck "malformed store"))
  | Op.Pred_init bits ->
    List.iter2 pred op.Op.dests bits;
    None
  | Op.Pbr -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], Op.Lab l :: _ ->
      Reg.Tbl.replace st.btrs d l;
      None
    | _ -> raise (Stuck "malformed pbr"))
  | Op.Branch -> (
    match op.Op.srcs with
    | [ Op.Reg b ] -> (
      match read_btr st b with
      | Some l -> Some l
      | None -> raise (Stuck "branch through unset btr"))
    | _ -> raise (Stuck "malformed branch"))

type outcome = {
  state : state;
  exit_label : string option;
  ops_executed : int;
  ops_issued : int;
  branches_executed : int;
  steps : int;
}

let run ?(max_steps = 1_000_000) ?(profile = false) (prog : Prog.t) input =
  let st = state_of input in
  let steps = ref 0 in
  let executed = ref 0 in
  let issued = ref 0 in
  let branches = ref 0 in
  let rec region_loop label =
    if Prog.is_exit prog label then Some label
    else
      match Prog.find prog label with
      | None -> raise (Stuck ("branch to unknown label " ^ label))
      | Some region ->
        if profile then Region.add_entries region 1;
        let rec ops_loop = function
          | [] -> (
            match region.Region.fallthrough with
            | Some next -> region_loop next
            | None -> None)
          | (op : Op.t) :: rest -> (
            incr steps;
            if !steps > max_steps then raise (Stuck "step budget exceeded");
            incr issued;
            if Op.is_branch op then incr branches;
            if guard_true st op.Op.guard then incr executed;
            match issue st op with
            | Some target ->
              if profile then Region.add_taken region op.Op.id 1;
              region_loop target
            | None -> ops_loop rest)
        in
        ops_loop region.Region.ops
  in
  let exit_label = region_loop prog.Prog.entry in
  {
    state = st;
    exit_label;
    ops_executed = !executed;
    ops_issued = !issued;
    branches_executed = !branches;
    steps = !steps;
  }
