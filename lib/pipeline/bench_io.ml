module Json = Cpr_obs.Json

let json_escape = Json.escape

(* [Filename.dirname "x.json"] is "." — concatenating it back would turn
   a bare --json filename into "./BENCH_latest.json", a distinct string
   that defeats the dated = latest dedup and writes the same file twice
   (historically, after just having compared it against itself). *)
let targets ~is_dir ~date path =
  if is_dir then
    ( Filename.concat path (Printf.sprintf "BENCH_%s.json" date),
      Filename.concat path "BENCH_latest.json" )
  else begin
    let dir = Filename.dirname path in
    let latest =
      if dir = Filename.current_dir_name && Filename.is_implicit path then
        "BENCH_latest.json"
      else Filename.concat dir "BENCH_latest.json"
    in
    (path, latest)
  end

let suite_seconds results =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 results in
  ( sum (fun (r : Report.result) -> r.Report.verify_s),
    sum (fun (r : Report.result) -> r.Report.total_s) )

let render ?(pqs = []) ~date ~domains ~results ~micro ~par () =
  let num_int i = Json.Num (float_of_int i) in
  let obj_of f l = Json.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  let totals =
    if results = [] then []
    else
      let verify_total, suite_total = suite_seconds results in
      [
        ("verify_total_s", Json.fixed 4 verify_total);
        ("suite_total_s", Json.fixed 4 suite_total);
      ]
  in
  (* Predicate-engine telemetry for the whole run, keyed by the full
     dotted counter name. *)
  let counters =
    if pqs = [] then []
    else [ ("pqs", obj_of num_int (List.sort compare pqs)) ]
  in
  let (s1, sn), (f1, fn) = par in
  let pair digits one requested =
    Json.Obj
      [
        ("domains_1", Json.fixed digits one);
        ("domains_requested", Json.fixed digits requested);
      ]
  in
  let benchmark (r : Report.result) =
    Json.Obj
      ([
         ("name", Json.Str r.Report.name);
         ("speedups", obj_of (Json.fixed 4) r.Report.speedups);
         ( "op_ratios",
           obj_of (Json.fixed 4)
             [
               ("s_tot", r.Report.s_tot);
               ("s_br", r.Report.s_br);
               ("d_tot", r.Report.d_tot);
               ("d_br", r.Report.d_br);
             ] );
         ("verify_s", Json.fixed 4 r.Report.verify_s);
         ("total_s", Json.fixed 4 r.Report.total_s);
         ("degraded", Json.Bool (Report.degraded r));
         ( "height",
           Json.Obj
             [
               ("bound_cycles", num_int r.Report.bound_cycles);
               ("achieved_cycles", num_int r.Report.achieved_cycles);
               ("gap", Json.fixed 4 r.Report.height_gap);
             ] );
       ]
      @ (if r.Report.pressure = [] then []
         else
           [
             ( "pressure",
               Json.Obj
                 (List.map
                    (fun (cls, v) -> (cls ^ "_maxlive", num_int v))
                    r.Report.pressure) );
           ])
      @ [
          ("baseline_cycles", obj_of num_int r.Report.baseline_cycles);
          ("reduced_cycles", obj_of num_int r.Report.reduced_cycles);
        ])
  in
  Json.to_string
    (Json.Obj
       ((("date", Json.Str date) :: totals)
       @ counters
       @ [
           ( "parallel",
             Json.Obj
               [
                 ("domains_requested", num_int domains);
                 ("suite_wall_s", pair 3 s1 sn);
                 ("fuzz_seeds_per_s", pair 1 f1 fn);
               ] );
           ("benchmarks", Json.Arr (List.map benchmark results));
           ( "micro_ns_per_run",
             obj_of
               (function Some e -> Json.fixed 1 e | None -> Json.Null)
               (List.sort compare micro) );
         ]))

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)

let read_file path =
  if not (Sys.file_exists path) then None
  else Some (In_channel.with_open_text path In_channel.input_all)

type height_entry = {
  gap : float;
  h_bound : int;
  h_achieved : int;
}

type workload = {
  name : string;
  verify_s : float;
  total_s : float;
  height : height_entry option;
  pressure : (string * int) list;
}

type baseline = {
  verify_total_s : float option;
  counters : (string * int) list;
  workloads : workload list;
  micro : (string * float) list;
}

(* Unknown members are ignored, so a baseline written by an older or
   newer harness still decodes; a member that is present must have the
   right shape. *)
let decode_workload i v =
  let what = Printf.sprintf "benchmarks[%d]" i in
  let at key = Json.field what key v in
  let name = Json.str (what ^ ".name") (at "name") in
  let what = Printf.sprintf "benchmarks[%d] (%s)" i name in
  let sub key f = Option.map f (Json.member key v) in
  let height =
    sub "height" (fun h ->
        let what = what ^ ".height" in
        {
          gap = Json.num what (Json.field what "gap" h);
          h_bound = Json.int what (Json.field what "bound_cycles" h);
          h_achieved = Json.int what (Json.field what "achieved_cycles" h);
        })
  in
  let pressure =
    sub "pressure" (fun p ->
        let what = what ^ ".pressure" in
        List.filter_map
          (fun (key, x) ->
            Option.map
              (fun cls -> (cls, Json.int what x))
              (Filename.chop_suffix_opt ~suffix:"_maxlive" key))
          (Json.obj what p))
  in
  {
    name;
    verify_s = Json.num what (at "verify_s");
    total_s = Json.num what (at "total_s");
    height;
    pressure = Option.value ~default:[] pressure;
  }

let decode contents =
  Json.decode
    (fun doc ->
      let members key =
        Option.fold ~none:[] ~some:(Json.obj key) (Json.member key doc)
      in
      {
        verify_total_s =
          Option.map (Json.num "verify_total_s")
            (Json.member "verify_total_s" doc);
        counters =
          List.map (fun (k, x) -> (k, Json.int ("pqs." ^ k) x)) (members "pqs");
        workloads =
          List.mapi decode_workload
            (Json.arr "benchmarks" (Json.field "baseline" "benchmarks" doc));
        micro =
          List.filter_map
            (function
              | _, Json.Null -> None
              | k, x -> Some (k, Json.num ("micro_ns_per_run." ^ k) x))
            (members "micro_ns_per_run");
      })
    contents

(* Warn-only regression tests for the quality metrics, shared by bench
   --check and its unit tests.

   The height gap is a ratio: on a tiny workload one cycle of schedule
   noise swings it past any percentage tolerance, so a regression must
   also grow the *absolute* cycle gap by at least
   [height_gap_floor_cycles] — the schedule-quality analogue of the 20ms
   wall-clock noise floor. *)
let height_gap_floor_cycles = 2

let height_regressed ~base ~cur =
  let abs_gap e = e.h_achieved - e.h_bound in
  cur.gap > base.gap +. 0.01
  && abs_gap cur - abs_gap base >= height_gap_floor_cycles

(* MAXLIVE counts are small integers; a couple of registers of movement
   is routine when block formation shifts. *)
let pressure_floor_regs = 2

let pressure_regressed ~base ~cur = cur - base > pressure_floor_regs

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)

type delta = {
  workload : string;
  metric : string;
  base : float;
  cur : float;
  change_pct : float;
  regressed : bool;
}

(* Shared-runner wall clocks are noisy in both relative and absolute
   terms: a regression must clear the percentage tolerance AND a 20ms
   absolute floor before the gate trips. *)
let noise_floor_s = 0.02

let delta ~tolerance ~workload ~metric ~base ~cur =
  let change_pct = if base > 0. then (cur -. base) /. base *. 100. else 0. in
  let regressed =
    base > 0.
    && cur > base *. (1. +. (tolerance /. 100.))
    && cur -. base > noise_floor_s
  in
  { workload; metric; base; cur; change_pct; regressed }

let check ~tolerance ~baseline ~current =
  let matched =
    List.filter_map
      (fun (name, cur_v, cur_t) ->
        List.find_map
          (fun w ->
            if w.name <> name then None
            else Some (name, w.verify_s, w.total_s, cur_v, cur_t))
          baseline.workloads)
      current
  in
  let per_workload =
    List.concat_map
      (fun (name, base_v, base_t, cur_v, cur_t) ->
        [
          delta ~tolerance ~workload:name ~metric:"total_s" ~base:base_t
            ~cur:cur_t;
          delta ~tolerance ~workload:name ~metric:"verify_s" ~base:base_v
            ~cur:cur_v;
        ])
      matched
  in
  (* Suite wall time over the *matched* workloads, so gating a --quick
     run against a full-suite baseline compares like with like. *)
  let suite =
    match matched with
    | [] -> []
    | _ ->
      let base =
        List.fold_left (fun a (_, _, bt, _, _) -> a +. bt) 0.0 matched
      in
      let cur =
        List.fold_left (fun a (_, _, _, _, ct) -> a +. ct) 0.0 matched
      in
      [
        delta ~tolerance ~workload:"(suite)" ~metric:"suite_total_s" ~base
          ~cur;
      ]
  in
  per_workload @ suite

let missing_from_current ~baseline ~current =
  List.filter_map
    (fun w ->
      if List.exists (fun (n, _, _) -> n = w.name) current then None
      else Some w.name)
    baseline.workloads

let regressions deltas = List.filter (fun d -> d.regressed) deltas

let pp_deltas ppf deltas =
  Format.fprintf ppf "%-14s%-14s%12s%12s%10s  %s@." "workload" "metric"
    "baseline" "current" "change" "";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-14s%-14s%11.3fs%11.3fs%9.1f%%  %s@." d.workload
        d.metric d.base d.cur d.change_pct
        (if d.regressed then "REGRESSED" else "ok"))
    deltas
