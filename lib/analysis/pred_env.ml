open Cpr_ir

module type S = sig
  type pqs
  type t

  val analyze : Region.t -> t
  val ops : t -> Op.t array
  val guard_expr : t -> int -> pqs
  val reg_expr_before : t -> int -> Reg.t -> pqs
  val reg_expr_at_end : t -> Reg.t -> pqs
  val taken_expr : t -> int -> pqs
  val path_conds : t -> pqs array
  val write_cond : t -> int -> Reg.t -> pqs
end

module type ENGINE = sig
  type t

  val tru : t
  val const : bool -> t
  val cond_lit : int -> t
  val entry_lit : Reg.t -> t
  val and_ : t -> t -> t
  val or_ : t -> t -> t
  val not_ : t -> t
end

(* Functorized over the expression constructors so tests can replay the
   identical constructions through a reference engine; production code
   uses the [include Make (Pqs)] at the bottom. *)
module Make (P : ENGINE) = struct
  type pqs = P.t

  type t = {
    ops : Op.t array;
    before : P.t Reg.Map.t array;  (* predicate env just before each op *)
    at_end : P.t Reg.Map.t;
    pc : P.t array Lazy.t;  (* prefix path conditions, built on first use *)
  }

  let ops t = t.ops

  let lookup env (r : Reg.t) =
    match Reg.Map.find_opt r env with
    | Some e -> e
    | None -> P.entry_lit r

  let guard_expr_in env (op : Op.t) =
    match op.Op.guard with Op.True -> P.tru | Op.If p -> lookup env p

  (* Value numbering for condition sharing: two cmpps with the same
     (canonicalized) condition over the same register *versions* compute
     the same boolean, so they share one PQS literal — this is what lets
     duplicated compares (ICBM lookaheads, full-CPR predicate columns) be
     recognized as equal or complementary by the scheduler's disjointness
     queries.  An operand's version is a variant, never a packed int: a
     packing once gave an immediate and a register's entry version the
     same number, and so unrelated compares one literal. *)
  type version =
    | Imm of int
    | Lab
    | Def of int  (* id of the register's last def op in the region *)
    | Entry of Reg.t  (* the register's value on region entry *)

  type vn_state = {
    versions : int Reg.Tbl.t;  (* reg -> id of its last def op *)
    cond_ids : (Op.cond * version * version, int) Hashtbl.t;
  }

  let vn_create () =
    { versions = Reg.Tbl.create 32; cond_ids = Hashtbl.create 32 }

  let operand_version st = function
    | Op.Imm i -> Imm i
    | Op.Lab _ -> Lab
    | Op.Reg r -> (
      match Reg.Tbl.find_opt st.versions r with
      | Some v -> Def v
      | None -> Entry r)

  (* canonical condition: Eq/Lt/Le are canonical; Ne/Ge/Gt are their
     negations *)
  let canonical = function
    | Op.Eq -> (Op.Eq, true)
    | Op.Ne -> (Op.Eq, false)
    | Op.Lt -> (Op.Lt, true)
    | Op.Ge -> (Op.Lt, false)
    | Op.Le -> (Op.Le, true)
    | Op.Gt -> (Op.Le, false)

  let vn_defs st (op : Op.t) =
    List.iter (fun d -> Reg.Tbl.replace st.versions d op.Op.id) (Op.defs op)

  let cond_expr st (op : Op.t) =
    (* Constant-fold conditions on two immediates (e.g. the on-trace FRP
       initialization trick [cmpp.un eq (0, 0) if root], op 36 of Fig. 7). *)
    match (op.Op.opcode, op.Op.srcs) with
    | Op.Cmpp (c, _, _), [ Op.Imm a; Op.Imm b ] -> P.const (Op.eval_cond c a b)
    | Op.Cmpp (c, _, _), [ x; y ] ->
      let ccond, pos = canonical c in
      let key = (ccond, operand_version st x, operand_version st y) in
      let id =
        match Hashtbl.find_opt st.cond_ids key with
        | Some id -> id
        | None ->
          Hashtbl.replace st.cond_ids key op.Op.id;
          op.Op.id
      in
      if pos then P.cond_lit id else P.not_ (P.cond_lit id)
    | Op.Cmpp _, _ -> P.cond_lit op.Op.id
    | _ -> invalid_arg "Pred_env.cond_expr: not a cmpp"

  let apply_action st env (op : Op.t) dest action =
    let g = guard_expr_in env op in
    let c = cond_expr st op in
    let value =
      match action with
      | Op.Un -> P.and_ g c
      | Op.Uc -> P.and_ g (P.not_ c)
      | Op.On -> P.or_ (lookup env dest) (P.and_ g c)
      | Op.Oc -> P.or_ (lookup env dest) (P.and_ g (P.not_ c))
      | Op.An -> P.and_ (lookup env dest) (P.not_ (P.and_ g (P.not_ c)))
      | Op.Ac -> P.and_ (lookup env dest) (P.not_ (P.and_ g c))
    in
    Reg.Map.add dest value env

  let step st env (op : Op.t) =
    let env =
      match op.Op.opcode with
      | Op.Cmpp (_, a1, a2) -> (
        match (op.Op.dests, a2) with
        | [ d1 ], None -> apply_action st env op d1 a1
        | [ d1; d2 ], Some a2 ->
          apply_action st (apply_action st env op d1 a1) op d2 a2
        | _ -> env (* malformed; Validate reports it *))
      | Op.Pred_init bits ->
        List.fold_left2
          (fun env d b -> Reg.Map.add d (P.const b) env)
          env op.Op.dests bits
      | Op.Alu _ | Op.Falu _ | Op.Load | Op.Store | Op.Pbr | Op.Branch -> env
    in
    vn_defs st op;
    env

  (* [pc.(i)] is the condition that control entering the region reaches
     op [i]: the running conjunction of the negated taken-expressions of
     the branches before it.  One product per branch, shared by every
     query on the region. *)
  let prefix_conds ops before =
    let n = Array.length ops in
    let pc = Array.make (n + 1) P.tru in
    for i = 0 to n - 1 do
      pc.(i + 1) <-
        (if Op.is_branch ops.(i) then
           P.and_ pc.(i) (P.not_ (guard_expr_in before.(i) ops.(i)))
         else pc.(i))
    done;
    pc

  let analyze (r : Region.t) =
    let ops = Array.of_list r.Region.ops in
    let n = Array.length ops in
    let before = Array.make n Reg.Map.empty in
    let env = ref Reg.Map.empty in
    let st = vn_create () in
    for i = 0 to n - 1 do
      before.(i) <- !env;
      env := step st !env ops.(i)
    done;
    { ops; before; at_end = !env; pc = lazy (prefix_conds ops before) }

  let guard_expr t i = guard_expr_in t.before.(i) t.ops.(i)
  let reg_expr_before t i r = lookup t.before.(i) r
  let reg_expr_at_end t r = lookup t.at_end r

  let taken_expr t i =
    assert (Op.is_branch t.ops.(i));
    guard_expr t i

  let path_conds t = Lazy.force t.pc

  let write_cond t i d =
    if List.exists (Reg.equal d) (Op.writes_when_guard_false t.ops.(i)) then
      P.tru
    else guard_expr t i
end

include Make (Pqs)
