open Cpr_ir
open Helpers
module B = Builder

let branch_targets () =
  let ctx = B.create () in
  let p = B.pred ctx and q = B.pred ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 0) (Op.Imm 0) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "A" in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un q (Op.Imm 0) (Op.Imm 1) in
        let (_ : Op.t) = B.branch_to e ~guard:(Op.If q) "B" in
        ())
  in
  let brs = Region.branches region in
  checki "two branches" 2 (List.length brs);
  check
    Alcotest.(list (option string))
    "targets" [ Some "A"; Some "B" ]
    (List.map (Target_reference.branch_target region) brs);
  check
    Alcotest.(list (option string))
    "targets in one pass" [ Some "A"; Some "B" ]
    (List.map snd (Region.branch_targets region));
  check
    Alcotest.(list string)
    "successors dedup and include fallthrough" [ "A"; "B"; "Exit" ]
    (Region.successors region)

let pbr_rebinding () =
  (* the last pbr before the branch wins *)
  let ctx = B.create () in
  let b = B.btr ctx and p = B.pred ctx in
  let region =
    B.region ctx "Main" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.pbr e b "A" in
        let (_ : Op.t) = B.pbr e b "B" in
        let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 0) (Op.Imm 0) in
        let (_ : Op.t) = B.branch e ~guard:(Op.If p) b in
        let (_ : Op.t) = B.pbr e b "C" in
        let (_ : Op.t) = B.branch e ~guard:(Op.If p) b in
        ())
  in
  let brs = Region.branches region in
  check
    Alcotest.(list (option string))
    "last pbr before each branch wins" [ Some "B"; Some "C" ]
    (List.map (Target_reference.branch_target region) brs);
  check
    Alcotest.(list (option string))
    "and in one pass" [ Some "B"; Some "C" ]
    (List.map snd (Region.branch_targets region))

(* The one-pass resolutions (by branch and by op index) agree with the
   per-branch scan on every region of the registry workloads and of
   generated programs. *)
let branch_targets_agree () =
  let agree where prog =
    List.iter
      (fun (r : Region.t) ->
        let scanned =
          List.map
            (fun br -> (br, Target_reference.branch_target r br))
            (Region.branches r)
        in
        if Region.branch_targets r <> scanned then
          Alcotest.failf "%s/%s: branch_targets differs from branch_target"
            where r.Region.label;
        let by_index = Region.targets_by_index r in
        List.iteri
          (fun i (op : Op.t) ->
            let expected =
              if Op.is_branch op then Target_reference.branch_target r op
              else None
            in
            if by_index.(i) <> expected then
              Alcotest.failf "%s/%s: targets_by_index differs at op %d" where
                r.Region.label op.Op.id)
          r.Region.ops)
      (Prog.regions prog)
  in
  List.iter
    (fun (w : Cpr_workloads.Workload.t) ->
      agree w.Cpr_workloads.Workload.name (w.Cpr_workloads.Workload.build ()))
    Cpr_workloads.Registry.all;
  for seed = 0 to 299 do
    agree (Printf.sprintf "seed %d" seed)
      (Cpr_workloads.Gen.prog_of_seed seed)
  done

let profile_counters () =
  let r = Region.make "L" [] in
  Region.add_entries r 2;
  Region.add_taken r 7 1;
  checki "entries" 2 r.Region.entry_count;
  checki "taken" 1 (Region.taken_count r 7);
  checki "unknown branch" 0 (Region.taken_count r 8);
  Region.clear_profile r;
  checki "cleared" 0 r.Region.entry_count

let prog_structure () =
  let ctx = B.create () in
  let a = B.region ctx "A" ~fallthrough:"B" (fun _ -> ()) in
  let b = B.region ctx "B" ~fallthrough:"Exit" (fun _ -> ()) in
  let p = B.prog ctx ~entry:"A" [ a; b ] in
  checkb "find" true (Prog.find p "B" <> None);
  checkb "exit label" true (Prog.is_exit p "Exit");
  checkb "non-exit" false (Prog.is_exit p "B");
  let c = Region.make "C" ~fallthrough:"Exit" [] in
  Prog.add_region p ~after:"A" c;
  check
    Alcotest.(list string)
    "insertion order" [ "A"; "C"; "B" ]
    (List.map (fun (r : Region.t) -> r.Region.label) (Prog.regions p));
  checkb "duplicate label rejected" true
    (try
       Prog.add_region p (Region.make "C" []);
       false
     with Invalid_argument _ -> true)

let fresh_generators_respect_existing () =
  let ctx = B.create () in
  let r9 = Reg.gpr 9 in
  let region =
    B.region ctx "A" ~fallthrough:"Exit" (fun e ->
        let (_ : Op.t) = B.movi e r9 1 in
        ())
  in
  let p = B.prog ctx ~entry:"A" [ region ] in
  checkb "fresh gpr above max" true ((Prog.fresh_gpr p).Reg.id > 9);
  let id1 = Prog.fresh_op_id p in
  let id2 = Prog.fresh_op_id p in
  checkb "op ids increase" true (id2 > id1)

let copy_is_deep_for_profile () =
  let ctx = B.create () in
  let a = B.region ctx "A" ~fallthrough:"Exit" (fun _ -> ()) in
  let p = B.prog ctx ~entry:"A" [ a ] in
  (Prog.find_exn p "A").Region.entry_count <- 5;
  let q = Prog.copy p in
  (Prog.find_exn q "A").Region.entry_count <- 99;
  checki "original unchanged" 5 (Prog.find_exn p "A").Region.entry_count

let validate_catches ~expect build =
  let errors = Validate.check (build ()) in
  checkb (expect ^ " reported") true
    (List.exists
       (fun (e : Validate.error) -> Astring_like.contains e.Validate.what expect)
       errors)

let validation () =
  (* dangling branch target *)
  validate_catches ~expect:"undefined label" (fun () ->
      let ctx = B.create () in
      let p = B.pred ctx in
      let region =
        B.region ctx "A" ~fallthrough:"Exit" (fun e ->
            let (_ : Op.t) = B.cmpp1 e Op.Eq Op.Un p (Op.Imm 0) (Op.Imm 0) in
            let (_ : Op.t) = B.branch_to e ~guard:(Op.If p) "Nowhere" in
            ())
      in
      B.prog ctx ~entry:"A" [ region ]);
  (* duplicate op ids *)
  validate_catches ~expect:"duplicate op id" (fun () ->
      let op = Op.make ~id:1 (Op.Alu Op.Mov) [ Reg.gpr 1 ] [ Op.Imm 0; Op.Imm 0 ] in
      Prog.create ~entry:"A" [ Region.make "A" ~fallthrough:"Exit" [ op; op ] ]);
  (* branch with no reaching pbr *)
  validate_catches ~expect:"no reaching pbr" (fun () ->
      let br = Op.make ~id:1 Op.Branch [] [ Op.Reg (Reg.btr 1) ] in
      Prog.create ~entry:"A" [ Region.make "A" ~fallthrough:"Exit" [ br ] ]);
  (* cmpp destination must be a predicate *)
  validate_catches ~expect:"not a predicate" (fun () ->
      let bad =
        Op.make ~id:1 (Op.Cmpp (Op.Eq, Op.Un, None)) [ Reg.gpr 1 ]
          [ Op.Imm 0; Op.Imm 0 ]
      in
      Prog.create ~entry:"A" [ Region.make "A" ~fallthrough:"Exit" [ bad ] ]);
  (* missing entry region *)
  validate_catches ~expect:"no region" (fun () ->
      Prog.create ~entry:"Ghost" [ Region.make "A" ~fallthrough:"Exit" [] ]);
  (* well-formed program passes *)
  let prog, _ = profiled_strcpy () in
  check Alcotest.(list string) "clean program" []
    (List.map (fun (e : Validate.error) -> e.Validate.what) (Validate.check prog))

let stats_counting () =
  let prog, inputs = profiled_strcpy () in
  Cpr_pipeline.Passes.profile prog inputs;
  let s = Stats_ir.of_prog prog in
  checki "static ops: 6 in Start + 30 in Loop" 36 s.Stats_ir.static_total;
  checki "static branches" 5 s.Stats_ir.static_branches;
  checkb "dynamic >= static" true (s.Stats_ir.dynamic_total >= s.Stats_ir.static_total)

let suite =
  ( "region & prog",
    [
      case "branch targets" branch_targets;
      case "pbr rebinding" pbr_rebinding;
      case "one-pass branch targets agree" branch_targets_agree;
      case "profile counters" profile_counters;
      case "prog structure" prog_structure;
      case "fresh generators" fresh_generators_respect_existing;
      case "copy isolates profile" copy_is_deep_for_profile;
      case "validation" validation;
      case "op-count stats" stats_counting;
    ] )
