open Cpr_ir

type input = {
  memory : (int * int) list;
  gprs : (Reg.t * int) list;
  preds : (Reg.t * bool) list;
}

let no_input = { memory = []; gprs = []; preds = [] }
let input_of_memory memory = { no_input with memory }

let state_of code input =
  let st = State.create code ~memory:input.memory in
  List.iter (fun (r, v) -> State.write_gpr st r v) input.gprs;
  List.iter (fun (r, v) -> State.write_pred st r v) input.preds;
  st

let run_each ?(profile = false) prog inputs f =
  let code = Code.decode prog in
  let run input = f (Interp.run ~profile code (state_of code input)) in
  if profile then
    Fun.protect
      ~finally:(fun () -> Code.commit_profile code)
      (fun () -> List.map run inputs)
  else List.map run inputs

let run_on ?profile prog input =
  List.hd (run_each ?profile prog [ input ] Fun.id)

type observation = {
  exit_label : string option;
  final_memory : (int * int) list;
  stores : (int * int) list;
  live : (Reg.t * int) list;
}

let observation_of prog exit_label st =
  {
    exit_label;
    final_memory = State.memory_snapshot st;
    (* sorted stably by address: equal exactly when every address saw
       the same sequence of stores *)
    stores =
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (State.store_trace st);
    live =
      List.filter_map
        (fun r -> if Reg.is_pred r then None else Some (r, State.read_gpr st r))
        prog.Prog.live_out;
  }

let observe_code (code : Code.t) input =
  let out = Interp.run code (state_of code input) in
  observation_of code.Code.prog out.Interp.exit_label out.Interp.state

let observe_all prog inputs = List.map (observe_code (Code.decode prog)) inputs

let diff reference candidate =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if reference.exit_label <> candidate.exit_label then
    fail "exit labels differ: %s vs %s"
      (Option.value ~default:"<end>" reference.exit_label)
      (Option.value ~default:"<end>" candidate.exit_label)
  else if reference.final_memory <> candidate.final_memory then
    fail "final memories differ"
  else if reference.stores <> candidate.stores then
    fail "store sequences differ"
  else
    match
      List.find_opt
        (fun (r, v) -> List.assoc_opt r candidate.live <> Some v)
        reference.live
    with
    | Some (r, _) -> fail "live-out register %s differs" (Reg.to_string r)
    | None -> Ok ()

type side =
  | Observed of observation list
  | Run of Prog.t

let observer = function
  | Observed obs ->
    let obs = Array.of_list obs in
    fun i _ -> obs.(i)
  | Run prog ->
    let code = lazy (Code.decode prog) in
    fun _ input -> observe_code (Lazy.force code) input

let judge reference candidate inputs =
  let reference = observer reference and candidate = observer candidate in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | input :: rest -> (
      (* The candidate runs first: when both are stuck, its message is
         the one reported. *)
      match
        let c = candidate i input in
        (reference i input, c)
      with
      | exception Interp.Stuck msg -> Error ("interpreter stuck: " ^ msg)
      | r, c -> (
        match diff r c with
        | Ok () -> go (i + 1) (c :: acc) rest
        | Error e -> Error e))
  in
  go 0 [] inputs

let verdict reference candidate inputs =
  Result.map ignore (judge reference candidate inputs)

let check_many reference candidate inputs =
  verdict (Run reference) (Run candidate) inputs

let check reference candidate input = check_many reference candidate [ input ]

(* ------------------------------------------------------------------ *)
(* One-line textual input serialization, shared by the fuzz corpus
   artifacts and the resilience layer's crash bundles (both store one
   [# input: ...] comment line per training input). *)

let reg_of_string s =
  if String.length s < 2 then invalid_arg ("bad register " ^ s)
  else begin
    let id = int_of_string (String.sub s 1 (String.length s - 1)) in
    match s.[0] with
    | 'r' -> Reg.gpr id
    | 'p' -> Reg.pred id
    | 'b' -> Reg.btr id
    | _ -> invalid_arg ("bad register " ^ s)
  end

let input_to_string i =
  let pair (k, v) = Printf.sprintf "%d=%d" k v in
  let rpair (r, v) = Printf.sprintf "%s=%d" (Reg.to_string r) v in
  let bpair (r, b) =
    Printf.sprintf "%s=%d" (Reg.to_string r) (if b then 1 else 0)
  in
  let groups =
    List.filter
      (fun s -> s <> "")
      [
        (if i.memory = [] then ""
         else "mem " ^ String.concat " " (List.map pair i.memory));
        (if i.gprs = [] then ""
         else "gpr " ^ String.concat " " (List.map rpair i.gprs));
        (if i.preds = [] then ""
         else "pred " ^ String.concat " " (List.map bpair i.preds));
      ]
  in
  String.concat " ; " groups

let input_of_string s =
  let parse_kv kv =
    match String.index_opt kv '=' with
    | Some i ->
      ( String.sub kv 0 i,
        int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
    | None -> invalid_arg ("bad binding " ^ kv)
  in
  let input = ref no_input in
  List.iter
    (fun group ->
      match
        List.filter
          (fun t -> t <> "")
          (String.split_on_char ' ' (String.trim group))
      with
      | [] -> ()
      | kind :: kvs ->
        let kvs = List.map parse_kv kvs in
        let i = !input in
        input :=
          (match kind with
          | "mem" ->
            { i with memory = List.map (fun (a, v) -> (int_of_string a, v)) kvs }
          | "gpr" ->
            { i with gprs = List.map (fun (r, v) -> (reg_of_string r, v)) kvs }
          | "pred" ->
            {
              i with
              preds = List.map (fun (r, v) -> (reg_of_string r, v <> 0)) kvs;
            }
          | k -> invalid_arg ("bad input group " ^ k)))
    (String.split_on_char ';' s);
  !input
