open Cpr_ir
module Liveness = Cpr_analysis.Liveness


(* An induction candidate: updated only by unguarded [r = add (r, imm)]
   ops (at least twice) and dead at every branch target other than the
   region itself. *)
let candidates (region : Region.t) ft liveness =
  let ops = region.Region.ops in
  let is_update r (op : Op.t) =
    op.Op.guard = Op.True
    && (match (op.Op.opcode, op.Op.dests, op.Op.srcs) with
       | Op.Alu Op.Add, [ d ], [ Op.Reg s; Op.Imm _ ] ->
         Reg.equal d r && Reg.equal s r
       | _ -> false)
  in
  let defs_of r =
    List.filter (fun (op : Op.t) -> List.exists (Reg.equal r) (Op.defs op)) ops
  in
  let dead_at_exits r =
    List.for_all
      (fun l ->
        l = region.Region.label
        || not (Reg.Set.mem r (Liveness.live_in liveness l)))
      (ft :: Region.successors region)
  in
  List.concat_map (fun (op : Op.t) -> Op.defs op) ops
  |> List.sort_uniq Reg.compare
  |> List.filter (fun r ->
         let defs = defs_of r in
         List.length defs >= 2
         && List.for_all (is_update r) defs
         && dead_at_exits r)

(* Rewrite the region so [r] is updated once; abort (restore the original
   op list) on any use of [r] that cannot absorb the accumulated delta
   into an immediate. *)
let fold_induction (prog : Prog.t) (region : Region.t) _ft r =
  let original = region.Region.ops in
  let delta = ref 0 in
  let ok = ref true in
  let rewrite (op : Op.t) =
    let is_update =
      op.Op.guard = Op.True
      && (match (op.Op.opcode, op.Op.dests, op.Op.srcs) with
         | Op.Alu Op.Add, [ d ], [ Op.Reg s; Op.Imm _ ] ->
           Reg.equal d r && Reg.equal s r
         | _ -> false)
    in
    if is_update then begin
      (match op.Op.srcs with
      | [ _; Op.Imm k ] -> delta := !delta + k
      | _ -> ok := false);
      None
    end
    else begin
      let uses_r = List.exists (Reg.equal r) (Op.uses op) in
      if not uses_r then Some op
      else if !delta = 0 then Some op
      else
        match (op.Op.opcode, op.Op.srcs) with
        | (Op.Alu Op.Add | Op.Load), [ Op.Reg s; Op.Imm m ] when Reg.equal s r
          -> Some { op with Op.srcs = [ Op.Reg r; Op.Imm (m + !delta) ] }
        | Op.Store, [ Op.Reg s; Op.Imm m; v ]
          when Reg.equal s r && v <> Op.Reg r ->
          Some { op with Op.srcs = [ Op.Reg r; Op.Imm (m + !delta); v ] }
        | Op.Cmpp _, [ Op.Reg s; Op.Imm m ] when Reg.equal s r ->
          Some { op with Op.srcs = [ Op.Reg r; Op.Imm (m - !delta) ] }
        | _ ->
          ok := false;
          Some op
    end
  in
  let folded = List.filter_map rewrite region.Region.ops in
  if (not !ok) || !delta = 0 then region.Region.ops <- original
  else begin
    (* materialize the single update just before the final pbr+branch *)
    let update =
      Op.make ~id:(Prog.fresh_op_id prog) (Op.Alu Op.Add) [ r ]
        [ Op.Reg r; Op.Imm !delta ]
    in
    let rec insert_before_tail acc = function
      | ([ (p : Op.t); (b : Op.t) ] : Op.t list)
        when Op.is_pbr p && Op.is_branch b ->
        List.rev_append acc [ update; p; b ]
      | [ (b : Op.t) ] when Op.is_branch b -> List.rev_append acc [ update; b ]
      | x :: rest -> insert_before_tail (x :: acc) rest
      | [] -> List.rev_append acc [ update ]
    in
    region.Region.ops <- insert_before_tail [] folded
  end

let loop_back_parts (region : Region.t) =
  match List.rev region.Region.ops with
  | (br : Op.t) :: _ when Op.is_branch br -> (
    let targets = Region.targets_by_index region in
    match (targets.(Array.length targets - 1), br.Op.guard) with
    | Some target, Op.If p when target = region.Region.label ->
      (* the unique UN compare computing the guard, and the pbr feeding
         the branch *)
      let defs =
        List.filter
          (fun (op : Op.t) -> List.exists (Reg.equal p) (Op.defs op))
          region.Region.ops
      in
      let pbr =
        List.find_opt
          (fun (op : Op.t) ->
            Op.is_pbr op
            && List.exists
                 (fun d ->
                   List.exists (fun s -> s = Op.Reg d) br.Op.srcs)
                 op.Op.dests)
          region.Region.ops
      in
      (match (defs, pbr) with
      | [ cmp ], Some pbr -> (
        match cmp.Op.opcode with
        | Op.Cmpp (_, Op.Un, None) -> Some (cmp, pbr, br)
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

let unrollable prog (region : Region.t) =
  ignore prog;
  region.Region.fallthrough <> None && loop_back_parts region <> None

let unroll_region (prog : Prog.t) (region : Region.t) ~factor =
  match (region.Region.fallthrough, loop_back_parts region) with
  | Some ft, Some (loop_cmp, loop_pbr, _) when factor >= 2 ->
    (* registers whose values cross copy boundaries keep their names *)
    let liveness = Liveness.analyze prog in
    let protected_regs =
      List.fold_left
        (fun acc l -> Reg.Set.union acc (Liveness.live_in liveness l))
        (Liveness.live_in liveness region.Region.label)
        (Region.successors region)
    in
    let fresh_like (r : Reg.t) =
      match r.Reg.cls with
      | Reg.Gpr -> Prog.fresh_gpr prog
      | Reg.Pred -> Prog.fresh_pred prog
      | Reg.Btr -> Prog.fresh_btr prog
    in
    let copy_of ~last_copy =
      let rename = Reg.Tbl.create 17 in
      let map r =
        match Reg.Tbl.find_opt rename r with Some r' -> r' | None -> r
      in
      List.map
        (fun (op : Op.t) ->
          let srcs =
            List.map
              (function Op.Reg r -> Op.Reg (map r) | s -> s)
              op.Op.srcs
          in
          let guard =
            match op.Op.guard with
            | Op.True -> Op.True
            | Op.If p -> Op.If (map p)
          in
          let dests =
            List.map
              (fun d ->
                if Reg.Set.mem d protected_regs then d
                else begin
                  let d' = fresh_like d in
                  Reg.Tbl.replace rename d d';
                  d'
                end)
              op.Op.dests
          in
          let opcode =
            (* intermediate copies exit the loop where the rolled loop
               would: invert the loop-back condition and retarget it at
               the fallthrough *)
            if (not last_copy) && op.Op.id = loop_cmp.Op.id then
              match op.Op.opcode with
              | Op.Cmpp (c, a1, a2) -> Op.Cmpp (Op.negate_cond c, a1, a2)
              | o -> o
            else op.Op.opcode
          in
          let srcs =
            if (not last_copy) && op.Op.id = loop_pbr.Op.id then
              List.map
                (function Op.Lab _ -> Op.Lab ft | s -> s)
                srcs
            else srcs
          in
          Op.make ~id:(Prog.fresh_op_id prog) ~guard ~orig:op.Op.id opcode
            dests srcs)
        region.Region.ops
    in
    let copies =
      List.concat
        (List.init factor (fun c -> copy_of ~last_copy:(c = factor - 1)))
    in
    region.Region.ops <- copies;
    (* Fold per-copy induction-variable updates (cursors, counters) into a
       single update before the loop-back, rewriting intermediate uses'
       immediates; without this the replicated updates make every copy's
       exit condition anti-dependent on later updates, which defeats
       control CPR (its compensation code would read post-update values).
       Only registers dead at every non-header target are folded. *)
    List.iter (fun r -> fold_induction prog region ft r) (candidates region ft liveness);
    Region.clear_profile region;
    true
  | _ -> false
