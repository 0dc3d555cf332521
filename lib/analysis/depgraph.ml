open Cpr_ir

type kind =
  | Flow of Reg.t
  | Anti of Reg.t
  | Output of Reg.t
  | Mem_flow
  | Mem_anti
  | Mem_output
  | Ctrl
  | Exit_live of Reg.t
  | Br_anticipation

type edge = {
  src : int;
  dst : int;
  kind : kind;
  latency : int;
}

type t = {
  ops : Op.t array;
  lat : int array;
  edges : edge list;
  preds : edge list array;
  succs : edge list array;
}

(* Access events are packed small ints, [(op index lsl 3) lor code]:
   code 0 = use, 1 = unconditionally-killing def (unguarded plain def,
   or a UN/UC [cmpp] destination, which writes even under a false
   guard), 2 = guarded def, 3/4 = wired-or / wired-and accumulator
   read-modify-write.  The kill bit is precomputed here so the pairwise
   edge loop below never re-derives it per pair. *)
let ev_use = 0
let ev_def_kill = 1
let ev_def = 2
let ev_acc_or = 3
let ev_acc_and = 4

let acc_code_of_action = function
  | Op.On | Op.Oc -> ev_acc_or
  | Op.An | Op.Ac -> ev_acc_and
  | Op.Un | Op.Uc -> ev_def_kill

(* A per-register growing buffer of packed events, appended in program
   order (no per-event tuple or list cell — the pair loops below scan
   flat int arrays). *)
type evbuf = {
  mutable buf : int array;
  mutable len : int;
}

let ev_push b ev =
  if b.len = Array.length b.buf then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 bigger 0 b.len;
    b.buf <- bigger
  end;
  b.buf.(b.len) <- ev;
  b.len <- b.len + 1

(* Per-register access events over a whole op array, in one pass:
   events per register in ascending op-index order and, within one op,
   in evaluation order (uses first).  Replaces the old per-register
   rescan of every op, which made register edge construction
   O(ops x registers).  The table holds only the registers the region
   touches, so its size — and the work of walking it — follows the
   region, not the program-global register ids. *)
let access_events ops =
  let events : evbuf Reg.Tbl.t = Reg.Tbl.create 32 in
  let push (r : Reg.t) ev =
    match Reg.Tbl.find_opt events r with
    | Some b -> ev_push b ev
    | None -> Reg.Tbl.add events r { buf = Array.make 4 ev; len = 1 }
  in
  Array.iteri
    (fun i (op : Op.t) ->
      List.iter
        (function
          | Op.Reg x -> push x ((i lsl 3) lor ev_use)
          | Op.Imm _ | Op.Lab _ -> ())
        op.Op.srcs;
      (match op.Op.guard with
      | Op.If g -> push g ((i lsl 3) lor ev_use)
      | Op.True -> ());
      match op.Op.opcode with
      | Op.Cmpp (_, a1, a2) ->
        List.iter2
          (fun act d -> push d ((i lsl 3) lor acc_code_of_action act))
          (a1 :: Option.to_list a2)
          op.Op.dests
      | _ ->
        let code = if op.Op.guard = Op.True then ev_def_kill else ev_def in
        List.iter (fun d -> push d ((i lsl 3) lor code)) op.Op.dests)
    ops;
  events

(* The register and memory passes every graph shares, then [control]
   (which adds edges after all of them, so each data edge keeps its place
   in [succs] and [preds]), then the adjacency lists. *)
let make ?env machine (prog : Prog.t) (region : Region.t) control =
  let ops = Array.of_list region.Region.ops in
  let n = Array.length ops in
  let lat = Array.map (Cpr_machine.Descr.latency_of machine) ops in
  let env =
    match env with Some e -> e | None -> Pred_env.analyze region
  in
  let guard_expr = Array.init n (Pred_env.guard_expr env) in
  (* Edges accumulate in a preallocated, doubling array; the exposed
     [edges] list and the [preds]/[succs] adjacency lists are carved out
     of it at the end in exactly the order the old list-accumulating
     construction produced (several core passes iterate them). *)
  let dummy = { src = 0; dst = 0; kind = Ctrl; latency = 0 } in
  let earr = ref (Array.make (max 16 (4 * n)) dummy) in
  let n_edges = ref 0 in
  let add src dst kind latency =
    if !n_edges = Array.length !earr then begin
      let bigger = Array.make (2 * !n_edges) dummy in
      Array.blit !earr 0 bigger 0 !n_edges;
      earr := bigger
    end;
    !earr.(!n_edges) <- { src; dst; kind; latency };
    incr n_edges
  in

  (* Register dependences, one register at a time: every ordered event
     pair (a, b) with a before b in program order, truncated past an
     unconditional kill — transitivity through the killer preserves
     ordering.  The kill takes effect at the killer's *definition* event
     (a read-modify-write op's own use event must not hide its def from
     earlier events), and same-op pairs are skipped.  The edge cases
     mirror the old variant match: same-flavor accumulator pairs
     commute, def/acc-to-use is flow, use-to-def/acc is anti,
     def/acc-to-acc is flow, def/acc-to-def is output. *)
  let reg_edges r (ev : evbuf) =
    let buf = ev.buf and m = ev.len in
    for a = 0 to m - 1 do
      let ea = buf.(a) in
      let i = ea lsr 3 and ca = ea land 7 in
      let killed = ref false in
      let b = ref (a + 1) in
      while (not !killed) && !b < m do
        let eb = buf.(!b) in
        let j = eb lsr 3 and cb = eb land 7 in
        if i <> j then begin
          if ca >= ev_acc_or && ca = cb then ()
          else if ca <> ev_use && cb = ev_use then add i j (Flow r) lat.(i)
          else if ca = ev_use && cb <> ev_use then
            add i j (Anti r) (1 - lat.(j))
          else if ca <> ev_use && cb >= ev_acc_or then add i j (Flow r) lat.(i)
          else if ca <> ev_use && cb <> ev_use then
            add i j (Output r) (lat.(i) - lat.(j) + 1);
          if cb = ev_def_kill && j > i then killed := true
        end;
        incr b
      done
    done
  in
  (* Visit registers in ascending [Reg.compare] order — the same order
     [Reg.Set.iter] used to produce — so edge order is unchanged. *)
  let events = access_events ops in
  Reg.Tbl.fold (fun r _ acc -> r :: acc) events []
  |> List.sort Reg.compare
  |> List.iter (fun r -> reg_edges r (Reg.Tbl.find events r));

  (* Memory dependences. *)
  let alias = Alias.analyze prog region in
  for i = 0 to n - 1 do
    if Op.is_mem ops.(i) then
      for j = i + 1 to n - 1 do
        if
          Op.is_mem ops.(j)
          && (Op.is_store ops.(i) || Op.is_store ops.(j))
          && (not (Alias.independent alias i j))
          && not (Pqs.disjoint guard_expr.(i) guard_expr.(j))
        then
          match (Op.is_store ops.(i), Op.is_store ops.(j)) with
          | true, false -> add i j Mem_flow lat.(i)
          | false, true -> add i j Mem_anti 0
          | true, true -> add i j Mem_output 1
          | false, false -> ()
      done
  done;

  control ~ops ~guard_expr ~lat ~add;

  (* The old code prepended each edge onto a list, so the exposed list is
     in reverse addition order and the adjacency lists (built by a second
     prepend pass over it) are in addition order.  Reproduce both. *)
  let preds = Array.make n [] and succs = Array.make n [] in
  let edges = ref [] in
  let arr = !earr in
  for k = 0 to !n_edges - 1 do
    edges := arr.(k) :: !edges
  done;
  for k = !n_edges - 1 downto 0 do
    let e = arr.(k) in
    succs.(e.src) <- e :: succs.(e.src);
    preds.(e.dst) <- e :: preds.(e.dst)
  done;
  { ops; lat; edges = !edges; preds; succs }

let data ?env machine prog region =
  make ?env machine prog region (fun ~ops:_ ~guard_expr:_ ~lat:_ ~add:_ -> ())

(* Control dependences around branches. *)
let control_edges liveness region ~ops ~guard_expr ~lat ~add =
  let n = Array.length ops in
  let live_at = Liveness.live_at_branches liveness region ops in
  for b = 0 to n - 1 do
    if Op.is_branch ops.(b) then begin
      let taken = guard_expr.(b) in
      (* [disjoint x tru] holds only when [x] is const-false (or proves
         so), so the dominant unguarded-op case resolves on one constant
         test instead of a full query. *)
      let taken_live = not (Pqs.is_const_false taken) in
      let live = live_at.(b) in
      (* Forward: ops after the branch. *)
      for j = b + 1 to n - 1 do
        let opj = ops.(j) in
        let compatible =
          if Pqs.is_const_true guard_expr.(j) then taken_live
          else not (Pqs.disjoint taken guard_expr.(j))
        in
        if compatible then
          if Op.is_branch opj || Op.is_store opj then add b j Ctrl lat.(b)
          else
            List.iter
              (fun d ->
                if Reg.Set.mem d live then add b j (Exit_live d) lat.(b))
              (Op.defs opj)
      done;
      (* Backward: effects the taken path needs must land before control
         transfers at [issue(b) + lat(b)]. *)
      for i = 0 to b - 1 do
        let opi = ops.(i) in
        let compatible =
          if Pqs.is_const_true guard_expr.(i) then taken_live
          else not (Pqs.disjoint guard_expr.(i) taken)
        in
        if compatible then
          if Op.is_store opi then
            add i b Br_anticipation (lat.(i) - lat.(b))
          else if
            List.exists (fun d -> Reg.Set.mem d live) (Op.defs opi)
          then add i b Br_anticipation (lat.(i) - lat.(b))
      done
    end
  done

let build ?env machine prog liveness region =
  make ?env machine prog region (control_edges liveness region)

let n_ops t = Array.length t.ops
let op t i = t.ops.(i)
let ops t = t.ops
let latency t i = t.lat.(i)
let edges t = t.edges
let preds t i = t.preds.(i)
let succs t i = t.succs.(i)

(* Edges always point from lower to higher op index except none do —
   all constructed edges satisfy src < dst — so program order is a
   topological order. *)
let asap t =
  let n = n_ops t in
  let a = Array.make n 0 in
  for j = 0 to n - 1 do
    List.iter
      (fun e -> a.(j) <- max a.(j) (a.(e.src) + e.latency))
      t.preds.(j)
  done;
  a

let height t =
  let a = asap t in
  let h = ref 0 in
  for i = 0 to n_ops t - 1 do
    h := max !h (a.(i) + t.lat.(i))
  done;
  !h

let kind_name = function
  | Flow r -> "flow:" ^ Reg.to_string r
  | Anti r -> "anti:" ^ Reg.to_string r
  | Output r -> "out:" ^ Reg.to_string r
  | Mem_flow -> "mem-flow"
  | Mem_anti -> "mem-anti"
  | Mem_output -> "mem-out"
  | Ctrl -> "ctrl"
  | Exit_live r -> "exit-live:" ^ Reg.to_string r
  | Br_anticipation -> "br-anticipation"

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun e ->
      Format.fprintf ppf "%d -> %d  %s (lat %d)@,"
        t.ops.(e.src).Op.id t.ops.(e.dst).Op.id (kind_name e.kind) e.latency)
    (List.rev t.edges);
  Format.fprintf ppf "@]"
