open Cpr_ir

type sink = {
  gpr : Reg.t -> int -> unit;
  pred : Reg.t -> bool -> unit;
  btr : Reg.t -> string -> unit;
  mem : int -> int -> unit;
}

exception Stuck of string

let operand_value st = function
  | Op.Reg r -> (
    match r.Reg.cls with
    | Reg.Gpr -> State.read_gpr st r
    | Reg.Pred -> if State.read_pred st r then 1 else 0
    | Reg.Btr -> raise (Stuck "btr read as value"))
  | Op.Imm i -> i
  | Op.Lab _ -> raise (Stuck "label read as value")

let guard_true st = function
  | Op.True -> true
  | Op.If p -> State.read_pred st p

let issue sink st (op : Op.t) =
  let g = guard_true st op.Op.guard in
  match op.Op.opcode with
  | Op.Cmpp (cond, a1, a2) -> (
    match op.Op.srcs with
    | [ x; y ] ->
      let c = Op.eval_cond cond (operand_value st x) (operand_value st y) in
      List.iter2
        (fun action d ->
          match Op.cmpp_dest_update action ~guard:g ~cond:c with
          | Some v -> sink.pred d v
          | None -> ())
        (a1 :: Option.to_list a2)
        op.Op.dests;
      None
    | _ -> raise (Stuck "malformed cmpp"))
  | _ when not g -> None
  | Op.Alu a -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], [ x; y ] ->
      sink.gpr d (Op.eval_alu a (operand_value st x) (operand_value st y));
      None
    | _ -> raise (Stuck "malformed alu"))
  | Op.Falu f -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], [ x; y ] ->
      sink.gpr d (Op.eval_falu f (operand_value st x) (operand_value st y));
      None
    | _ -> raise (Stuck "malformed falu"))
  | Op.Load -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], [ base; off ] ->
      sink.gpr d
        (State.read_mem st (operand_value st base + operand_value st off));
      None
    | _ -> raise (Stuck "malformed load"))
  | Op.Store -> (
    match op.Op.srcs with
    | [ base; off; v ] ->
      sink.mem
        (operand_value st base + operand_value st off)
        (operand_value st v);
      None
    | _ -> raise (Stuck "malformed store"))
  | Op.Pred_init bits ->
    List.iter2 sink.pred op.Op.dests bits;
    None
  | Op.Pbr -> (
    match (op.Op.dests, op.Op.srcs) with
    | [ d ], Op.Lab l :: _ ->
      sink.btr d l;
      None
    | _ -> raise (Stuck "malformed pbr"))
  | Op.Branch -> (
    match op.Op.srcs with
    | [ Op.Reg b ] -> (
      match State.read_btr st b with
      | Some l -> Some l
      | None -> raise (Stuck "branch through unset btr"))
    | _ -> raise (Stuck "malformed branch"))

type outcome = {
  state : State.t;
  exit_label : string option;
  ops_executed : int;
  ops_issued : int;
  branches_executed : int;
  steps : int;
}

let run ?(max_steps = 1_000_000) ?(profile = false) (prog : Prog.t) st =
  let sink =
    {
      gpr = State.write_gpr st;
      pred = State.write_pred st;
      btr = State.write_btr st;
      mem = State.write_mem st;
    }
  in
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
        if profile then Region.record_entry region;
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
            match issue sink st op with
            | Some target ->
              if profile then Region.record_taken region op.Op.id;
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
