(* A batch is an array of thunks plus a cursor.  Workers (and the
   caller) race on [next] under the pool mutex, run the claimed thunk
   outside the lock, and the last finisher signals [batch_done].  Thunks
   never raise: [map] wraps each task so failures land in the result
   slot and re-raise deterministically in the caller. *)

type batch = {
  tasks : (unit -> unit) array;
  mutable next : int;
  mutable finished : int;
}

type t = {
  mutex : Mutex.t;
  work_available : Condition.t;
  batch_done : Condition.t;
  mutable batch : batch option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  domains : int;
}

let domains t = t.domains

let default_domains () = min 8 (Domain.recommended_domain_count ())

(* Batch telemetry (dark unless Cpr_obs is enabled): how many tasks and
   batches went through the pool, cumulative busy vs wall nanoseconds,
   and a utilization gauge (busy / (wall * domains)) for the last batch. *)
module Obs = Cpr_obs.Obs

let c_tasks = Obs.counter "pool.tasks"
let c_batches = Obs.counter "pool.batches"
let c_busy = Obs.counter "pool.busy_ns"
let c_wall = Obs.counter "pool.wall_ns"

exception
  Task_failed of {
    index : int;
    label : string;
    elapsed_ns : int64;
    cause : exn;
  }

let () =
  Printexc.register_printer (function
    | Task_failed { index; label; elapsed_ns; cause } ->
      Some
        (Printf.sprintf "Task_failed(task %d %S after %.1fms: %s)" index label
           (Int64.to_float elapsed_ns /. 1e6)
           (Printexc.to_string cause))
    | _ -> None)

(* Run tasks from [b] until its cursor is exhausted.  Called with
   [t.mutex] held; returns with it held. *)
let drain t b =
  while b.next < Array.length b.tasks do
    let i = b.next in
    b.next <- i + 1;
    Mutex.unlock t.mutex;
    b.tasks.(i) ();
    Mutex.lock t.mutex;
    b.finished <- b.finished + 1;
    if b.finished = Array.length b.tasks then begin
      (match t.batch with Some b' when b' == b -> t.batch <- None | _ -> ());
      Condition.broadcast t.batch_done
    end
  done

let worker t () =
  Mutex.lock t.mutex;
  let rec loop () =
    match t.batch with
    | Some b when b.next < Array.length b.tasks ->
      drain t b;
      loop ()
    | _ ->
      if not t.stop then begin
        Condition.wait t.work_available t.mutex;
        loop ()
      end
  in
  loop ();
  Mutex.unlock t.mutex

let create ~domains =
  let domains = max 1 domains in
  let t =
    {
      mutex = Mutex.create ();
      work_available = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
      stop = false;
      workers = [];
      domains;
    }
  in
  t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let map ?label t f xs =
  let args = Array.of_list xs in
  let n = Array.length args in
  if n = 0 then begin
    if Obs.enabled () then Obs.incr c_batches;
    []
  end
  else begin
    let observed = Obs.enabled () in
    let lbl i =
      match label with Some g -> g args.(i) | None -> "#" ^ string_of_int i
    in
    let busy = Atomic.make 0 in
    let wall0 = if observed then Obs.now_ns () else 0L in
    let results = Array.make n None in
    (* Every task runs under this wrapper on whichever domain claims it:
       a failure lands in the result slot wrapped with the submission
       index, label and elapsed time, so a pool failure is attributable
       without re-running. *)
    let run_one i =
      let t0 = Obs.now_ns () in
      (match f args.(i) with
      | y -> results.(i) <- Some (Ok y)
      | exception cause ->
        let bt = Printexc.get_raw_backtrace () in
        results.(i) <-
          Some
            (Error
               ( Task_failed
                   {
                     index = i;
                     label = lbl i;
                     elapsed_ns = Int64.sub (Obs.now_ns ()) t0;
                     cause;
                   },
                 bt )));
      if observed then
        ignore
          (Atomic.fetch_and_add busy
             (Int64.to_int (Int64.sub (Obs.now_ns ()) t0))
            : int)
    in
    if t.domains = 1 then
      for i = 0 to n - 1 do
        run_one i
      done
    else begin
      let tasks = Array.init n (fun i -> fun () -> run_one i) in
      let b = { tasks; next = 0; finished = 0 } in
      Mutex.lock t.mutex;
      (* Serialize concurrent maps: wait for any in-flight batch. *)
      while t.batch <> None do
        Condition.wait t.batch_done t.mutex
      done;
      t.batch <- Some b;
      Condition.broadcast t.work_available;
      drain t b;
      while b.finished < n do
        Condition.wait t.batch_done t.mutex
      done;
      Mutex.unlock t.mutex
    end;
    if observed then begin
      let wall = Int64.to_int (Int64.sub (Obs.now_ns ()) wall0) in
      Obs.add c_tasks n;
      Obs.incr c_batches;
      Obs.add c_busy (Atomic.get busy);
      Obs.add c_wall wall;
      if wall > 0 then
        Obs.gauge "pool.utilization"
          (float_of_int (Atomic.get busy)
          /. (float_of_int wall *. float_of_int t.domains))
    end;
    (* Earliest failure in submission order wins, deterministically. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.to_list
      (Array.map
         (function Some (Ok y) -> y | Some (Error _) | None -> assert false)
         results)
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
