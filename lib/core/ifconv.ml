open Cpr_ir

type stats = {
  converted : int;
  inlined_ops : int;
}

let zero = { converted = 0; inlined_ops = 0 }

(* The unique unguarded UN compare computing [p] before index [limit],
   with room for a UC destination. *)
let controlling_compare ops limit p =
  let hits =
    List.filteri (fun i _ -> i < limit) ops
    |> List.filter (fun (op : Op.t) -> List.exists (Reg.equal p) (Op.defs op))
  in
  match hits with
  | [ cmp ] -> (
    match cmp.Op.opcode with
    | Op.Cmpp (_, Op.Un, None) when List.hd cmp.Op.dests |> Reg.equal p ->
      Some cmp
    | _ -> None)
  | _ -> None

(* Bound on the inlined stub's size. *)
let max_stub_ops = 12

(* A convertible stub: branch-free, unpredicated, rejoining at [join]. *)
let stub_of prog ~join label =
  if Prog.is_exit prog label then None
  else
    match Prog.find prog label with
    | Some (t : Region.t)
      when t.Region.fallthrough = join
           && List.length t.Region.ops <= max_stub_ops
           && List.for_all
                (fun (op : Op.t) ->
                  (not (Op.is_branch op)) && op.Op.guard = Op.True)
                t.Region.ops -> Some t
    | _ -> None

let unbiased (region : Region.t) (br : Op.t) =
  let entry = region.Region.entry_count in
  entry > 0
  &&
  let r =
    float_of_int (Region.taken_count region br.Op.id) /. float_of_int entry
  in
  r >= 0.2 && r <= 0.8

(* Convert the first eligible branch; [true] if one was converted. *)
let convert_one ?(only_unbiased = true) (prog : Prog.t) (region : Region.t) =
  let ops = region.Region.ops in
  let eligible (i, (br : Op.t)) =
    Op.is_branch br
    && ((not only_unbiased) || unbiased region br)
    &&
    match br.Op.guard with
    | Op.True -> false
    | Op.If p -> (
      match
        ( controlling_compare ops i p,
          Option.bind (Region.branch_target region br)
            (stub_of prog ~join:region.Region.fallthrough) )
      with
      | Some _, Some _ ->
        (* everything below the branch must be unpredicated so it can be
           re-guarded by the fall-through predicate, and every later
           branch's controlling compare must also sit below (so its taken
           predicate picks up the fall-through guard) *)
        List.mapi (fun j op -> (j, op)) ops
        |> List.for_all (fun (j, (op : Op.t)) ->
               j <= i
               ||
               if Op.is_branch op then
                 match op.Op.guard with
                 | Op.True -> false
                 | Op.If q -> (
                   match controlling_compare ops j q with
                   | Some cmp -> (
                     match Region.op_index region cmp.Op.id with
                     | k -> k > i
                     | exception Not_found -> false)
                   | None -> false)
               else op.Op.guard = Op.True)
      | _ -> false)
  in
  match
    List.find_opt eligible (List.mapi (fun i op -> (i, op)) ops)
  with
  | None -> None
  | Some (i, br) ->
    let p = match br.Op.guard with Op.If p -> p | Op.True -> assert false in
    let cmp = Option.get (controlling_compare ops i p) in
    let stub =
      Option.get
        (Option.bind (Region.branch_target region br)
           (stub_of prog ~join:region.Region.fallthrough))
    in
    let p_fall = Prog.fresh_pred prog in
    (* the branch's pbr, to delete along with it *)
    let pbr_id =
      List.find_map
        (fun (op : Op.t) ->
          if
            Op.is_pbr op
            && List.exists
                 (fun d -> List.exists (fun s -> s = Op.Reg d) br.Op.srcs)
                 op.Op.dests
          then Some op.Op.id
          else None)
        ops
    in
    let inlined =
      List.map
        (fun (op : Op.t) ->
          Op.make ~id:(Prog.fresh_op_id prog) ~guard:(Op.If p) ~orig:op.Op.id
            op.Op.opcode op.Op.dests op.Op.srcs)
        stub.Region.ops
    in
    let rewritten =
      List.concat
        (List.mapi
           (fun j (op : Op.t) ->
             if op.Op.id = br.Op.id || Some op.Op.id = pbr_id then []
             else if op.Op.id = cmp.Op.id then
               [
                 {
                   op with
                   Op.opcode =
                     (match op.Op.opcode with
                     | Op.Cmpp (c, Op.Un, None) -> Op.Cmpp (c, Op.Un, Some Op.Uc)
                     | o -> o);
                   Op.dests = op.Op.dests @ [ p_fall ];
                 };
               ]
             else if j > i && op.Op.guard = Op.True && not (Op.is_branch op)
             then [ { op with Op.guard = Op.If p_fall } ]
             else [ op ])
           ops)
    in
    region.Region.ops <- rewritten @ inlined;
    Some (List.length inlined)

let convert_region ?only_unbiased prog region =
  let stats = ref zero in
  let continue_ = ref true in
  while !continue_ do
    match convert_one ?only_unbiased prog region with
    | Some n ->
      stats :=
        {
          converted = !stats.converted + 1;
          inlined_ops = !stats.inlined_ops + n;
        }
    | None -> continue_ := false
  done;
  !stats

let convert ?only_unbiased prog =
  List.fold_left
    (fun acc r ->
      let s = convert_region ?only_unbiased prog r in
      { converted = acc.converted + s.converted;
        inlined_ops = acc.inlined_ops + s.inlined_ops })
    zero (Prog.regions prog)
