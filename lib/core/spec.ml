open Cpr_ir
module Liveness = Cpr_analysis.Liveness
module Pred_env = Cpr_analysis.Pred_env
module Pqs = Cpr_analysis.Pqs

type stats = {
  promoted : int;
  demoted : int;
}

let candidate (op : Op.t) =
  match (op.Op.guard, op.Op.opcode) with
  | Op.True, _ -> false
  | _, (Op.Cmpp _ | Op.Store | Op.Branch | Op.Pred_init _) -> false
  | Op.If _, (Op.Alu _ | Op.Falu _ | Op.Load | Op.Pbr) -> true

(* Promotion decisions are computed against the pristine region and
   applied as a batch: a use by an operation that is itself promoted still
   contributes its original guard to the liveness expression ("promotion
   faithfully mirrors the original code", Section 6) — judging uses by
   post-promotion guards would block every producer whose consumer was
   promoted first. *)
let promote_pass liveness (region : Region.t) =
  let env = Pred_env.analyze region in
  let ops = Pred_env.ops env in
  let live_at = Liveness.live_at_branches liveness region ops in
  let promoted = ref [] in
  Array.iteri
    (fun idx (op : Op.t) ->
      if candidate op then begin
        let guard_e = Pred_env.guard_expr env idx in
        let clobber_safe =
          List.for_all
            (fun d ->
              Liveness.live_after_implies liveness env region ~live_at idx d
                guard_e)
            (Op.defs op)
        in
        if clobber_safe then promoted := (op.Op.id, op.Op.guard) :: !promoted
      end)
    ops;
  let promoted = List.rev !promoted in
  let ids = Hashtbl.create 17 in
  List.iter (fun (id, _) -> Hashtbl.replace ids id ()) promoted;
  region.Region.ops <-
    List.map
      (fun (o : Op.t) ->
        if Hashtbl.mem ids o.Op.id then { o with Op.guard = Op.True } else o)
      region.Region.ops;
  promoted

(* A direct flow dependence: [consumer] reads a register [producer]
   defines, with no intervening definition. *)
let direct_flow_producers (ops : Op.t array) idx =
  let producers = ref [] in
  List.iter
    (fun r ->
      let rec scan k =
        if k < 0 then ()
        else if List.exists (Reg.equal r) (Op.defs ops.(k)) then
          producers := k :: !producers
        else scan (k - 1)
      in
      scan (idx - 1))
    (Op.uses ops.(idx));
  List.sort_uniq Int.compare !producers

(* Second demotion criterion (Section 5.1): a promoted operation that
   still carries a branch dependence — some destination is live at the
   target of a preceding branch whose taken condition is compatible with
   the original guard — is demoted, replacing the branch dependence with
   a data dependence on the guard's compare.  This is what keeps
   operations writing exit-live values (e.g. accumulators) predicated, so
   ICBM can move them off-trace.  [live_at] is the round's
   [Liveness.live_at_branches]. *)
let branch_dependent live_at env idx (op : Op.t) =
  let ops = Pred_env.ops env in
  let rec scan k found =
    if k >= idx || found then found
    else
      let found =
        Op.is_branch ops.(k)
        && (not
              (Pqs.disjoint (Pred_env.taken_expr env k)
                 (Pred_env.guard_expr env idx)))
        && List.exists (fun d -> Reg.Set.mem d live_at.(k)) (Op.defs op)
      in
      scan (k + 1) found
  in
  scan 0 false

(* Each round judges every still-promoted op against the liveness and
   predicate environments of the region as the round began, then applies
   the round's demotions in one rewrite; demotions made earlier in the
   round already count as non-promoted producers.  [live ()] is the
   liveness of the program as it stands. *)
let demote_pass ~live (region : Region.t) promoted =
  let demoted = ref 0 in
  let changed = ref true in
  let still_promoted = Hashtbl.create 17 in
  List.iter (fun (id, g) -> Hashtbl.replace still_promoted id g) promoted;
  while !changed do
    changed := false;
    (* guards changed (promotions applied, earlier demotions), so both the
       global liveness and the predicate environments are brought up to
       date *)
    let liveness = live () in
    let env = Pred_env.analyze region in
    let ops = Pred_env.ops env in
    let live_at = Liveness.live_at_branches liveness region ops in
    let restore = Hashtbl.create 7 in
    Array.iteri
      (fun idx (op : Op.t) ->
        match Hashtbl.find_opt still_promoted op.Op.id with
        | None -> ()
        | Some original_guard ->
          let orig_e =
            match original_guard with
            | Op.True -> Pqs.tru
            | Op.If p -> Pred_env.reg_expr_before env idx p
          in
          let useless_promotion =
            List.exists
              (fun k ->
                let producer = ops.(k) in
                match producer.Op.guard with
                | Op.True -> false
                | Op.If _ ->
                  (not (Hashtbl.mem still_promoted producer.Op.id))
                  && Pqs.implies orig_e (Pred_env.guard_expr env k))
              (direct_flow_producers ops idx)
          in
          let should_demote =
            useless_promotion || branch_dependent live_at env idx op
          in
          if should_demote then begin
            Hashtbl.remove still_promoted op.Op.id;
            Hashtbl.replace restore op.Op.id original_guard;
            incr demoted;
            changed := true
          end)
      ops;
    if !changed then
      region.Region.ops <-
        List.map
          (fun (o : Op.t) ->
            match Hashtbl.find_opt restore o.Op.id with
            | Some guard -> { o with Op.guard = guard }
            | None -> o)
          region.Region.ops
  done;
  !demoted

(* Liveness is whole-program, so it is asked for only for a region that
   has something to promote; demotion runs only when something was
   promoted. *)
let speculate_region_live ~live region =
  if not (List.exists candidate region.Region.ops) then
    { promoted = 0; demoted = 0 }
  else
    let promoted = promote_pass (live ()) region in
    let demoted =
      if promoted = [] then 0 else demote_pass ~live region promoted
    in
    { promoted = List.length promoted; demoted }

let speculate_region prog region =
  speculate_region_live ~live:(Liveness.tracker prog) region

let speculate prog =
  let live = Liveness.tracker prog in
  List.fold_left
    (fun acc r ->
      let s = speculate_region_live ~live r in
      { promoted = acc.promoted + s.promoted; demoted = acc.demoted + s.demoted })
    { promoted = 0; demoted = 0 }
    (Prog.regions prog)
