type sink = {
  gpr : int -> int -> unit;
  pred : int -> bool -> unit;
  btr : int -> int -> unit;
  mem : int -> int -> unit;
}

exception Stuck of string

let[@inline] value st = function
  | Code.Gpr i -> st.Machine.gprs.(i)
  | Code.Pred i -> if st.Machine.preds.(i) then 1 else 0
  | Code.Imm v -> v
  | Code.Bad msg -> raise (Stuck msg)

let[@inline] guard_true st (op : Code.op) =
  op.Code.guard < 0 || st.Machine.preds.(op.Code.guard)

(* [issue] given the op's guard value [g].  The shapes of the
   expressions below are the reference interpreter's, so that operands
   are read, and fail, in the same order. *)
let issue_guarded sink st (op : Code.op) g =
  match op.Code.opcode with
  | Code.Cmpp (cond, actions, dests, x, y) ->
    let c = Cpr_ir.Op.eval_cond cond (value st x) (value st y) in
    List.iter2
      (fun action d ->
        match Cpr_ir.Op.cmpp_dest_update action ~guard:g ~cond:c with
        | Some v -> sink.pred d v
        | None -> ())
      actions dests;
    -1
  | Code.Malformed msg when Cpr_ir.Op.is_cmpp op.Code.source ->
    raise (Stuck msg)
  | _ when not g -> -1
  | Code.Alu (a, d, x, y) ->
    sink.gpr d (Cpr_ir.Op.eval_alu a (value st x) (value st y));
    -1
  | Code.Falu (f, d, x, y) ->
    sink.gpr d (Cpr_ir.Op.eval_falu f (value st x) (value st y));
    -1
  | Code.Load (d, base, off) ->
    sink.gpr d (State.read_mem st (value st base + value st off));
    -1
  | Code.Store (base, off, v) ->
    sink.mem (value st base + value st off) (value st v);
    -1
  | Code.Pred_init (dests, bits) ->
    List.iter2 sink.pred dests bits;
    -1
  | Code.Pbr (d, l) ->
    sink.btr d l;
    -1
  | Code.Branch b ->
    let l = st.Machine.btrs.(b) in
    if l < 0 then raise (Stuck "branch through unset btr") else l
  | Code.Malformed msg -> raise (Stuck msg)

let issue sink st op = issue_guarded sink st op (guard_true st op)

type outcome = {
  state : State.t;
  exit_label : string option;
  ops_executed : int;
  ops_issued : int;
  branches_executed : int;
  steps : int;
}

let run ?(max_steps = 1_000_000) ?(profile = false) (code : Code.t) st =
  if st.Machine.code != code then
    invalid_arg "Interp.run: a state of another decoded program";
  let sink =
    {
      gpr = (fun i v -> st.Machine.gprs.(i) <- v);
      pred = (fun i v -> st.Machine.preds.(i) <- v);
      btr = (fun i l -> st.Machine.btrs.(i) <- l);
      mem = (fun a v -> State.write_mem st a v);
    }
  in
  (* every op issued is a step *)
  let steps = ref 0 in
  let executed = ref 0 in
  let branches = ref 0 in
  let rec enter = function
    | Code.Exit label -> Some label
    | Code.Unknown label -> raise (Stuck ("branch to unknown label " ^ label))
    | Code.Region i ->
      let r = code.Code.regions.(i) in
      if profile then code.Code.entries.(i) <- code.Code.entries.(i) + 1;
      let ops = r.Code.ops in
      let n = Array.length ops in
      let rec step j =
        if j = n then
          match r.Code.fallthrough with Some next -> enter next | None -> None
        else begin
          let op = ops.(j) in
          incr steps;
          if !steps > max_steps then raise (Stuck "step budget exceeded");
          if op.Code.is_branch then incr branches;
          let g = guard_true st op in
          if g then incr executed;
          let l = issue_guarded sink st op g in
          if l < 0 then step (j + 1)
          else begin
            if profile then begin
              let taken = code.Code.taken.(i) in
              taken.(j) <- taken.(j) + 1
            end;
            enter code.Code.targets.(l)
          end
        end
      in
      step 0
  in
  let exit_label = enter code.Code.entry in
  {
    state = st;
    exit_label;
    ops_executed = !executed;
    ops_issued = !steps;
    branches_executed = !branches;
    steps = !steps;
  }
