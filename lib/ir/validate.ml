type error = {
  where : string;
  op : int option;
  what : string;
}

let pp_error ppf e =
  match e.op with
  | None -> Format.fprintf ppf "[%s] %s" e.where e.what
  | Some id -> Format.fprintf ppf "[%s] op %d: %s" e.where id e.what

let check (p : Prog.t) =
  let errors = ref [] in
  let err ?op where fmt =
    Format.kasprintf (fun what -> errors := { where; op; what } :: !errors) fmt
  in
  let seen_ids = Hashtbl.create 97 in
  if Prog.find p p.Prog.entry = None then
    err "<program>" "entry label %s has no region" p.Prog.entry;
  let check_label ?op where l =
    if Prog.find p l = None && not (Prog.is_exit p l) then
      err ?op where "reference to undefined label %s" l
  in
  (* [target] is the op's branch target ({!Region.targets_by_index}). *)
  let check_op (r : Region.t) target (op : Op.t) =
    let where = r.Region.label in
    let op_id = op.Op.id in
    let err fmt = err ~op:op_id where fmt in
    (match Hashtbl.find_opt seen_ids op.Op.id with
    | Some prev -> err "duplicate op id %d (also in %s)" op.Op.id prev
    | None -> Hashtbl.replace seen_ids op.Op.id where);
    (match op.Op.guard with
    | Op.True -> ()
    | Op.If g ->
      if not (Reg.is_pred g) then
        err "guarded by non-predicate %s" (Reg.to_string g));
    match op.Op.opcode with
    | Op.Cmpp (_, _, a2) ->
      let expected = match a2 with Some _ -> 2 | None -> 1 in
      if List.length op.Op.dests <> expected then
        err "cmpp with %d dests, expected %d" (List.length op.Op.dests)
          expected;
      List.iter
        (fun d ->
          if not (Reg.is_pred d) then
            err "cmpp dest %s is not a predicate" (Reg.to_string d))
        op.Op.dests;
      if List.length op.Op.srcs <> 2 then err "cmpp needs 2 sources"
    | Op.Pred_init bits ->
      if List.length bits <> List.length op.Op.dests then
        err "pred_init arity mismatch";
      List.iter
        (fun d ->
          if not (Reg.is_pred d) then
            err "pred_init dest %s is not a predicate" (Reg.to_string d))
        op.Op.dests
    | Op.Pbr -> (
      match (op.Op.dests, op.Op.srcs) with
      | [ d ], Op.Lab l :: _ ->
        if d.Reg.cls <> Reg.Btr then
          err "pbr dest %s is not a btr" (Reg.to_string d);
        check_label ~op:op_id where l
      | _ -> err "malformed pbr")
    | Op.Branch -> (
      match op.Op.srcs with
      | [ Op.Reg b ] when b.Reg.cls = Reg.Btr -> (
        match target with
        | Some l -> check_label ~op:op_id where l
        | None -> err "branch btr has no reaching pbr")
      | _ -> err "malformed branch")
    | Op.Load ->
      if List.length op.Op.dests <> 1 then err "load needs one dest"
    | Op.Store ->
      if op.Op.dests <> [] then err "store has dests";
      if List.length op.Op.srcs <> 3 then err "store needs base/off/value"
    | Op.Alu _ | Op.Falu _ ->
      (match op.Op.dests with
      | [ d ] ->
        if d.Reg.cls <> Reg.Gpr then
          err "alu dest %s is not a gpr" (Reg.to_string d)
      | _ -> err "alu needs one dest");
      if List.length op.Op.srcs <> 2 then err "alu needs two sources"
  in
  List.iter
    (fun (r : Region.t) ->
      Option.iter (check_label r.Region.label) r.Region.fallthrough;
      let targets = Region.targets_by_index r in
      List.iteri (fun i op -> check_op r targets.(i) op) r.Region.ops)
    (Prog.regions p);
  List.rev !errors

let check_exn p =
  match check p with
  | [] -> ()
  | errs ->
    let report =
      String.concat "; " (List.map (Format.asprintf "%a" pp_error) errs)
    in
    invalid_arg ("Validate: " ^ report)
