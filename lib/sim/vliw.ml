open Cpr_ir
module Schedule = Cpr_sched.Schedule

type outcome = {
  state : State.t;
  exit_label : string option;
  cycles : int;
  region_entries : int;
}

exception Vliw_error of string

(* The issue table: per region label, one entry per cycle of its
   schedule (the array's length is the schedule's), holding the ops
   issued that cycle in program order. *)
let issue_table machine prog =
  let table = Hashtbl.create 17 in
  List.iter
    (fun (label, (s : Schedule.t)) ->
      let by_cycle = Array.make s.Schedule.length [] in
      for i = Array.length s.Schedule.ops - 1 downto 0 do
        let c = s.Schedule.cycle.(i) in
        if c < s.Schedule.length then
          by_cycle.(c) <- s.Schedule.ops.(i) :: by_cycle.(c)
      done;
      Hashtbl.replace table label by_cycle)
    (Cpr_sched.List_sched.schedule_prog machine prog);
  table

(* Fuel: a run that exceeds it raises rather than loop forever. *)
let max_cycles = 10_000_000

let exec machine (prog : Prog.t) table st =
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
      Interp.gpr = (fun r v -> queue (fun () -> State.write_gpr st r v));
      pred = (fun r v -> queue (fun () -> State.write_pred st r v));
      btr = (fun r l -> queue (fun () -> State.write_btr st r l));
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
  (* [redirect] is the earliest taken branch so far: (cycle, target). *)
  let issue c redirect op =
    lands_at := c + Cpr_machine.Descr.latency_of machine op;
    match Interp.issue sink st op with
    | None -> redirect
    | Some target -> (
      match redirect with
      | Some (rc, _) when rc = !lands_at ->
        raise (Vliw_error "simultaneous taken branches")
      | Some (rc, _) when rc < !lands_at -> redirect
      | _ -> Some (!lands_at, target))
  in
  let rec region label =
    if Prog.is_exit prog label then Some label
    else
      match Hashtbl.find_opt table label with
      | None -> raise (Vliw_error ("no schedule for " ^ label))
      | Some by_cycle ->
        incr entries;
        let rec cycle c redirect =
          if !cycles > max_cycles then
            raise (Vliw_error "cycle budget exceeded");
          retire c;
          match redirect with
          | Some (rc, target) when rc = c ->
            flush ();
            region target
          | _ when c >= Array.length by_cycle -> (
            flush ();
            match (Prog.find_exn prog label).Region.fallthrough with
            | Some next -> region next
            | None -> None)
          | _ ->
            let redirect = List.fold_left (issue c) redirect by_cycle.(c) in
            incr cycles;
            cycle (c + 1) redirect
        in
        cycle 0 None
  in
  let exit_label =
    try region prog.Prog.entry with Interp.Stuck m -> raise (Vliw_error m)
  in
  { state = st; exit_label; cycles = !cycles; region_entries = !entries }

let run machine prog inputs =
  let table = issue_table machine prog in
  List.map
    (fun input -> exec machine prog table (Equiv.state_of input))
    inputs

let check_against_interp machine prog inputs =
  (* Scheduled lazily: the reference runs on the first input before
     anything is scheduled, so a stuck reference is reported as such. *)
  let table = lazy (issue_table machine prog) in
  let rec go = function
    | [] -> Ok ()
    | input :: rest -> (
      let reference = Equiv.observe prog input in
      match exec machine prog (Lazy.force table) (Equiv.state_of input) with
      | exception Vliw_error m -> Error ("vliw error: " ^ m)
      | vl -> (
        let candidate = Equiv.observation_of prog vl.exit_label vl.state in
        match Equiv.diff reference candidate with
        | Ok () -> go rest
        | e -> e))
  in
  go inputs
