external now_ns : unit -> (int64[@unboxed])
  = "cpr_obs_monotonic_ns_byte" "cpr_obs_monotonic_ns_unboxed"
[@@noalloc]

(* One atomic read guards every recording entry point: the disabled path
   must cost a load and a branch, nothing else. *)
let on = Atomic.make false
let enabled () = Atomic.get on

type event = {
  name : string;
  track : int;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  args : (string * string) list;
}

(* Global state: the event log and gauge table share one mutex, taken
   once per span exit / gauge write.  Counters are individually atomic
   and never touch the mutex after creation. *)
let mutex = Mutex.create ()
let recorded : event list ref = ref [] (* newest first *)
let gauge_tbl : (string * float) list ref = ref []
let epoch = ref 0L

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

type counter = { cname : string; cell : int Atomic.t }

let registry : counter list ref = ref []

let counter name =
  locked (fun () ->
      match List.find_opt (fun c -> c.cname = name) !registry with
      | Some c -> c
      | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        registry := c :: !registry;
        c)

let incr c = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell 1 : int)

let add c n =
  if Atomic.get on && n <> 0 then ignore (Atomic.fetch_and_add c.cell n : int)

let counter_value c = Atomic.get c.cell

let counters () =
  let cs = locked (fun () -> !registry) in
  List.sort compare
    (List.filter_map
       (fun c ->
         let v = Atomic.get c.cell in
         if v = 0 then None else Some (c.cname, v))
       cs)

let gauge name v =
  if Atomic.get on then
    locked (fun () ->
        gauge_tbl := (name, v) :: List.remove_assoc name !gauge_tbl)

let gauges () = List.sort compare (locked (fun () -> !gauge_tbl))

let set_enabled v =
  if v && !epoch = 0L then epoch := now_ns ();
  Atomic.set on v

let reset () =
  locked (fun () ->
      recorded := [];
      gauge_tbl := [];
      List.iter (fun c -> Atomic.set c.cell 0) !registry);
  epoch := now_ns ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Nesting depth lives in domain-local storage: each domain runs its
   spans serially, so a per-domain counter incremented at entry is
   exactly the tree depth, with no interval arithmetic at record time. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let span ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let my_depth = !d in
    d := my_depth + 1;
    let t0 = now_ns () in
    let finally () =
      let t1 = now_ns () in
      d := my_depth;
      let e =
        {
          name;
          track = (Domain.self () :> int);
          start_ns = t0;
          dur_ns = Int64.sub t1 t0;
          depth = my_depth;
          args;
        }
      in
      locked (fun () -> recorded := e :: !recorded)
    in
    Fun.protect ~finally f
  end

let events () =
  let es = locked (fun () -> !recorded) in
  List.stable_sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.depth b.depth
      | c -> c)
    es

(* ------------------------------------------------------------------ *)
(* Summary tree                                                        *)

module Summary = struct
  type node = {
    name : string;
    count : int;
    total_ns : int64;
    children : node list;
  }

  type agg = {
    mutable acount : int;
    mutable atotal : int64;
    mutable akids : (string * agg) list; (* reverse insertion order *)
  }

  let get_kid parent name =
    match List.assoc_opt name parent.akids with
    | Some a -> a
    | None ->
      let a = { acount = 0; atotal = 0L; akids = [] } in
      parent.akids <- (name, a) :: parent.akids;
      a

  (* Events arrive sorted by (start, depth); a stack of (depth, agg)
     rebuilds the nesting: an event's parent is the deepest stack entry
     shallower than it.  Tracks are processed separately (their spans
     interleave in time) and merged by landing in the same root table. *)
  let tree () =
    let root = { acount = 0; atotal = 0L; akids = [] } in
    let all = events () in
    let tracks = List.sort_uniq compare (List.map (fun e -> e.track) all) in
    List.iter
      (fun t ->
        let stack = ref [] in
        List.iter
          (fun e ->
            if e.track = t then begin
              while
                match !stack with
                | (d, _) :: rest when d >= e.depth ->
                  stack := rest;
                  true
                | _ -> false
              do
                ()
              done;
              let parent =
                match !stack with [] -> root | (_, a) :: _ -> a
              in
              let a = get_kid parent e.name in
              a.acount <- a.acount + 1;
              a.atotal <- Int64.add a.atotal e.dur_ns;
              stack := (e.depth, a) :: !stack
            end)
          all)
      tracks;
    let rec freeze a =
      let kids =
        List.map (fun (name, k) -> { (freeze k) with name }) (List.rev a.akids)
      in
      {
        name = "";
        count = a.acount;
        total_ns = a.atotal;
        children =
          List.sort (fun x y -> Int64.compare y.total_ns x.total_ns) kids;
      }
    in
    (freeze root).children

  let pp ppf () =
    let rec go indent n =
      Format.fprintf ppf "%s%-*s %6d x %10.3f ms@." indent
        (max 1 (36 - String.length indent))
        n.name n.count
        (Int64.to_float n.total_ns /. 1e6);
      List.iter (go (indent ^ "  ")) n.children
    in
    List.iter (go "") (tree ());
    match counters () with
    | [] -> ()
    | cs ->
      Format.fprintf ppf "counters:@.";
      List.iter (fun (n, v) -> Format.fprintf ppf "  %-34s %10d@." n v) cs
end

(* ------------------------------------------------------------------ *)
(* Chrome trace                                                        *)

module Trace = struct
  let us_of ns = Int64.to_float (Int64.sub ns !epoch) /. 1e3

  let to_string () =
    let es = events () in
    let metadata name tid label =
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "M");
          ("pid", Json.Num 0.);
          ("tid", Json.Num (float_of_int tid));
          ("args", Json.Obj [ ("name", Json.Str label) ]);
        ]
    in
    let threads =
      List.map
        (fun t -> metadata "thread_name" t (Printf.sprintf "domain-%d" t))
        (List.sort_uniq compare (List.map (fun e -> e.track) es))
    in
    let end_us = ref 0.0 in
    let spans =
      List.map
        (fun e ->
          let ts = us_of e.start_ns in
          let dur = Int64.to_float e.dur_ns /. 1e3 in
          end_us := Float.max !end_us (ts +. dur);
          Json.Obj
            ([
               ("name", Json.Str e.name);
               ("cat", Json.Str "cpr");
               ("ph", Json.Str "X");
               ("ts", Json.fixed 3 ts);
               ("dur", Json.fixed 3 dur);
               ("pid", Json.Num 0.);
               ("tid", Json.Num (float_of_int e.track));
             ]
            @
            if e.args = [] then []
            else
              [
                ( "args",
                  Json.Obj
                    (List.map (fun (k, v) -> (k, Json.Str v)) e.args) );
              ]))
        es
    in
    let sample name value =
      Json.Obj
        [
          ("name", Json.Str name);
          ("ph", Json.Str "C");
          ("ts", Json.fixed 3 !end_us);
          ("pid", Json.Num 0.);
          ("args", Json.Obj [ ("value", value) ]);
        ]
    in
    Json.to_string
      (Json.Obj
         [
           ( "traceEvents",
             Json.Arr
               ((metadata "process_name" 0 "cpr" :: threads)
               @ spans
               @ List.map
                   (fun (n, v) -> sample n (Json.Num (float_of_int v)))
                   (counters ())
               @ List.map (fun (n, v) -> sample n (Json.fixed 6 v)) (gauges ())
               ) );
         ])

  let export ~path =
    let oc = open_out path in
    output_string oc (to_string ());
    close_out oc

  type parsed_event = {
    pname : string;
    pph : string;
    ptid : int;
    pts : float;
    pdur : float;
  }

  let parse text =
    Json.decode
      (fun doc ->
        match Json.member "traceEvents" doc with
        | None -> raise (Json.Bad "no traceEvents array")
        | Some evs ->
          List.map
            (fun ev ->
              let what = "trace event" in
              let num_or_zero k =
                match Json.member k ev with
                | None -> 0.0
                | Some v -> Json.num (what ^ " " ^ k) v
              in
              {
                pname = Json.str what (Json.field what "name" ev);
                pph = Json.str what (Json.field what "ph" ev);
                ptid = int_of_float (num_or_zero "tid");
                pts = num_or_zero "ts";
                pdur = num_or_zero "dur";
              })
            (Json.arr "traceEvents" evs))
      text
end
