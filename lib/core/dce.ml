open Cpr_ir

let used_regs (prog : Prog.t) =
  let used = ref (Reg.Set.of_list prog.Prog.live_out) in
  List.iter
    (fun (r : Region.t) ->
      List.iter
        (fun op -> List.iter (fun u -> used := Reg.Set.add u !used) (Op.uses op))
        r.Region.ops)
    (Prog.regions prog);
  !used

let prune_op used (op : Op.t) =
  let dead d = not (Reg.Set.mem d used) in
  match op.Op.opcode with
  | Op.Store | Op.Branch -> Some op
  | Op.Cmpp (cond, a1, Some a2) -> (
    match op.Op.dests with
    | [ d1; d2 ] -> (
      let drop1 = dead d1 && (a1 = Op.Un || a1 = Op.Uc) in
      let drop2 = dead d2 && (a2 = Op.Un || a2 = Op.Uc) in
      match (drop1, drop2) with
      | false, false -> Some op
      | false, true ->
        Some { op with Op.opcode = Op.Cmpp (cond, a1, None); Op.dests = [ d1 ] }
      | true, false ->
        Some { op with Op.opcode = Op.Cmpp (cond, a2, None); Op.dests = [ d2 ] }
      | true, true -> None)
    | _ -> Some op)
  | Op.Cmpp (_, a1, None) ->
    if (a1 = Op.Un || a1 = Op.Uc) && List.for_all dead op.Op.dests then None
    else Some op
  | Op.Pred_init bits -> (
    let kept =
      List.filter (fun (d, _) -> not (dead d)) (List.combine op.Op.dests bits)
    in
    match kept with
    | [] -> None
    | kept when List.length kept = List.length op.Op.dests -> Some op
    | kept ->
      Some
        {
          op with
          Op.dests = List.map fst kept;
          Op.opcode = Op.Pred_init (List.map snd kept);
        })
  | Op.Alu _ | Op.Falu _ | Op.Load | Op.Pbr ->
    if List.for_all dead op.Op.dests then None else Some op

let run prog =
  let removed = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let used = used_regs prog in
    List.iter
      (fun (r : Region.t) ->
        (* A region whose ops all stay as they are keeps its op list
           physically: liveness updates and schedule-table keys find an
           untouched region by that identity. *)
        let touched = ref false in
        let nu =
          List.filter_map
            (fun op ->
              match prune_op used op with
              | Some op' ->
                if op' != op then touched := true;
                Some op'
              | None ->
                incr removed;
                touched := true;
                None)
            r.Region.ops
        in
        if !touched then begin
          changed := true;
          r.Region.ops <- nu
        end)
      (Prog.regions prog)
  done;
  !removed
