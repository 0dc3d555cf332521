open Cpr_ir
module Schedule = Cpr_sched.Schedule

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;
  region_entries : int;
}

exception Vliw_error of string

(* The issue table: per decoded region, one entry per cycle of its
   schedule (the array's length is the schedule's), holding the ops
   issued that cycle in program order with their latencies; [None] for
   a region the scheduler was not given. *)
let issue_table machine (code : Code.t) =
  let schedules = Hashtbl.create 17 in
  List.iter
    (fun (label, s) -> Hashtbl.replace schedules label s)
    (Cpr_sched.Sched_table.schedule_prog machine code.Code.prog);
  Array.map
    (fun (r : Code.region) ->
      Option.map
        (fun (s : Schedule.t) ->
          let by_cycle = Array.make s.Schedule.length [] in
          for i = Array.length s.Schedule.ops - 1 downto 0 do
            let c = s.Schedule.cycle.(i) in
            if c < s.Schedule.length then
              by_cycle.(c) <-
                ( Cpr_machine.Descr.latency_of machine s.Schedule.ops.(i),
                  r.Code.ops.(i) )
                :: by_cycle.(c)
          done;
          by_cycle)
        (Hashtbl.find_opt schedules r.Code.region.Region.label))
    code.Code.regions

(* Fuel: a run that exceeds it raises rather than loop forever. *)
let max_cycles = 10_000_000

let exec (code : Code.t) table st =
  let cycles = ref 0 and entries = ref 0 in
  (* landing cycle -> writes queued for it, newest first *)
  let pending = Hashtbl.create 17 in
  let lands_at = ref 0 in
  let queue write =
    let c = !lands_at in
    Hashtbl.replace pending c
      (write :: Option.value ~default:[] (Hashtbl.find_opt pending c))
  in
  let sink =
    {
      Interp.gpr = (fun i v -> queue (fun () -> st.Machine.gprs.(i) <- v));
      pred = (fun i b -> queue (fun () -> st.Machine.preds.(i) <- b));
      btr = (fun i l -> queue (fun () -> st.Machine.btrs.(i) <- l));
      mem = (fun a v -> queue (fun () -> State.write_mem st a v));
    }
  in
  let retire c =
    match Hashtbl.find_opt pending c with
    | None -> ()
    | Some writes ->
      Hashtbl.remove pending c;
      List.iter (fun w -> w ()) (List.rev writes)
  in
  let flush () =
    Hashtbl.fold (fun c _ acc -> c :: acc) pending []
    |> List.sort Int.compare |> List.iter retire
  in
  (* [redirect] is the earliest taken branch so far: (cycle, label). *)
  let issue c redirect (latency, op) =
    lands_at := c + latency;
    let l = Interp.issue sink st op in
    if l < 0 then redirect
    else
      match redirect with
      | Some (rc, _) when rc = !lands_at ->
        raise (Vliw_error "simultaneous taken branches")
      | Some (rc, _) when rc < !lands_at -> redirect
      | _ -> Some (!lands_at, l)
  in
  let rec enter = function
    | Code.Exit label -> Some label
    | Code.Unknown label -> raise (Vliw_error ("no schedule for " ^ label))
    | Code.Region i -> (
      let r = code.Code.regions.(i) in
      match table.(i) with
      | None ->
        raise (Vliw_error ("no schedule for " ^ r.Code.region.Region.label))
      | Some by_cycle ->
        incr entries;
        let rec cycle c redirect =
          if !cycles > max_cycles then
            raise (Vliw_error "cycle budget exceeded");
          retire c;
          match redirect with
          | Some (rc, l) when rc = c ->
            flush ();
            enter code.Code.targets.(l)
          | _ when c >= Array.length by_cycle -> (
            flush ();
            match r.Code.fallthrough with
            | Some next -> enter next
            | None -> None)
          | _ ->
            let redirect = List.fold_left (issue c) redirect by_cycle.(c) in
            incr cycles;
            cycle (c + 1) redirect
        in
        cycle 0 None)
  in
  let exit_label =
    try enter code.Code.entry with Interp.Stuck m -> raise (Vliw_error m)
  in
  { state = st; exit_label; cycles = !cycles; region_entries = !entries }

let run machine prog inputs =
  let code = Code.decode prog in
  let table = issue_table machine code in
  List.map (fun input -> exec code table (Equiv.state_of code input)) inputs

let check machine prog ~reference inputs =
  let code = Code.decode prog in
  let reference = Equiv.observer reference in
  (* Scheduled lazily: the reference runs on the first input before
     anything is scheduled, so a stuck reference is reported as such. *)
  let table = lazy (issue_table machine code) in
  let rec go i acc = function
    | [] -> (List.rev acc, Ok ())
    | input :: rest -> (
      let expected = reference i input in
      match exec code (Lazy.force table) (Equiv.state_of code input) with
      | exception Vliw_error m -> (List.rev acc, Error ("vliw error: " ^ m))
      | vl -> (
        let acc = vl :: acc in
        let candidate = Equiv.observation_of prog vl.exit_label vl.state in
        match Equiv.diff expected candidate with
        | Ok () -> go (i + 1) acc rest
        | e -> (List.rev acc, e)))
  in
  go 0 [] inputs

let check_against_interp machine prog inputs =
  snd (check machine prog ~reference:(Equiv.Run prog) inputs)
