(* The benchmark's own tracing.  The traced run calls the compiler's
   public functions one at a time and wraps each call in a leaf span
   named after the layer it belongs to; every leaf sits under one root
   span per sample.  Layers never nest, so a leaf's self time is its
   duration, and whatever the root covers beyond its leaves is harness
   time ("untraced").  Nothing records unless [recording] is set, so the
   same replay code runs untimed during warm-up and fidelity checks. *)

module Obs = Cpr_obs.Obs

type acc = {
  mutable ns : int;
  mutable calls : int;
  mutable words : float;
}

type span = {
  id : int;
  parent : int;  (** -1 for a sample root *)
  name : string;
  sample : string;  (** program name + pass: the id all spans of a sample share *)
  start_ns : int64;
  end_ns : int64;
}

let recording = ref false
let keep_spans = ref false
let layers : (string, acc) Hashtbl.t = Hashtbl.create 32

(* Per (sample key, layer) totals, for the growth exponents. *)
let by_key : (string * string, acc) Hashtbl.t = Hashtbl.create 256

(* Per sample key: samples recorded and the input's op count. *)
let keys : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 64
let counts : (string, float ref) Hashtbl.t = Hashtbl.create 16
let spans : span list ref = ref []
let next_id = ref 0

type current = {
  key : string;
  sid : string;
  root : int;
}

let current = ref { key = ""; sid = ""; root = -1 }

let acc_of tbl k =
  match Hashtbl.find_opt tbl k with
  | Some a -> a
  | None ->
    let a = { ns = 0; calls = 0; words = 0. } in
    Hashtbl.replace tbl k a;
    a

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let keep name ~parent ~start_ns ~end_ns ~id =
  if !keep_spans then
    spans :=
      { id; parent; name; sample = !current.sid; start_ns; end_ns } :: !spans

let call layer f =
  if not !recording then f ()
  else begin
    let w0 = allocated () in
    let t0 = Obs.now_ns () in
    let finish () =
      let t1 = Obs.now_ns () in
      let dw = allocated () -. w0 in
      let dns = Int64.to_int (Int64.sub t1 t0) in
      List.iter
        (fun a ->
          a.ns <- a.ns + dns;
          a.calls <- a.calls + 1;
          a.words <- a.words +. dw)
        [ acc_of layers layer; acc_of by_key (!current.key, layer) ];
      keep layer ~parent:!current.root ~start_ns:t0 ~end_ns:t1
        ~id:(fresh_id ())
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let sample ~key ~sid f =
  if not !recording then f ()
  else begin
    let root = fresh_id () in
    let saved = !current in
    current := { key; sid; root };
    (match Hashtbl.find_opt keys key with
    | Some (n, _) -> incr n
    | None -> Hashtbl.replace keys key (ref 1, ref 0));
    let t0 = Obs.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        keep "sample" ~parent:(-1) ~start_ns:t0 ~end_ns:(Obs.now_ns ()) ~id:root;
        current := saved)
      f
  end

let set_ops n =
  if !recording then
    match Hashtbl.find_opt keys !current.key with
    | Some (_, ops) -> ops := n
    | None -> ()

let count name n =
  if !recording then
    match Hashtbl.find_opt counts name with
    | Some r -> r := !r +. float_of_int n
    | None -> Hashtbl.replace counts name (ref (float_of_int n))

let layer name = Hashtbl.find_opt layers name
let counted name = Option.fold ~none:0. ~some:( ! ) (Hashtbl.find_opt counts name)
let total_ns () = Hashtbl.fold (fun _ a s -> s + a.ns) layers 0

(* Least-squares slope of log(self time per sample) against log(input
   ops) over the sample keys where the layer ran: about 1 for a layer
   linear in program size, clearly above 1 for a superlinear one.  0 when
   fewer than two distinct sizes ran the layer. *)
let growth_exp layer =
  let pts =
    Hashtbl.fold
      (fun key (n, ops) acc ->
        match Hashtbl.find_opt by_key (key, layer) with
        | Some a when a.ns > 0 && !ops > 0 ->
          ( log (float_of_int !ops),
            log (float_of_int a.ns /. float_of_int !n) )
          :: acc
        | _ -> acc)
      keys []
  in
  let n = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun s p -> s +. f p) 0. pts /. n in
  let mx = mean fst and my = mean snd in
  let sxx = List.fold_left (fun s (x, _) -> s +. ((x -. mx) ** 2.)) 0. pts in
  let sxy =
    List.fold_left (fun s (x, y) -> s +. ((x -. mx) *. (y -. my))) 0. pts
  in
  if List.length pts < 2 || sxx = 0. then 0. else sxy /. sxx

(* Chrome trace format, readable by [Cpr_obs.Obs.Trace.parse]: one "X"
   event per span, timestamps in microseconds from the first span. *)
let write_trace path =
  let all = List.stable_sort (fun a b -> Int64.compare a.start_ns b.start_ns) (List.rev !spans) in
  let epoch =
    List.fold_left (fun m s -> min m s.start_ns) Int64.max_int all
  in
  let us t = Int64.to_float (Int64.sub t epoch) /. 1e3 in
  let esc = Cpr_pipeline.Bench_io.json_escape in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":\"%s\",\"cat\":\"cprbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":0,\"args\":{\"span\":%d,\"parent\":%d,\"id\":\"%s\"}}"
            (if i = 0 then "" else ",")
            (esc s.name) (us s.start_ns)
            (us s.end_ns -. us s.start_ns)
            s.id s.parent (esc s.sample))
        all;
      output_string oc "\n]}\n")
