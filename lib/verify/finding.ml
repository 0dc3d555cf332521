type severity =
  | Error
  | Warning

type t = {
  check : string;
  severity : severity;
  region : string;
  op : int option;
  subject : string;
  msg : string;
}

type stats = {
  mutable proved : int;
  mutable unknown : int;
}

let new_stats () = { proved = 0; unknown = 0 }

let kinds =
  [
    (* Dataflow *)
    ("pred-undef", Error);
    ("btr-undef", Error);
    ("comp-coverage", Error);
    ("gpr-undef", Warning);
    ("dead-pbr", Warning);
    ("unreachable-guard", Warning);
    (* Schedcheck *)
    ("sched", Error);
    ("sched-waw", Error);
    (* Tv *)
    ("tv-exit", Error);
    ("tv-store", Error);
    ("tv-liveout", Error);
    ("tv-branch", Error);
    ("tv-order", Error);
    ("tv-store-guard", Error);
    (* Heightcheck and Pressurecheck, the quality lints *)
    ("height-bound", Error);
    ("sched-quality", Warning);
    ("height-missed-cpr", Warning);
    ("pressure-unallocatable", Error);
    ("pressure-growth", Warning);
  ]

let severity_of check =
  match List.assoc_opt check kinds with
  | Some s -> s
  | None -> invalid_arg ("Finding.severity_of: unknown check " ^ check)

let error_kinds =
  List.filter_map (fun (k, s) -> if s = Error then Some k else None) kinds

let make ~check ~region ?op ?(subject = "") msg =
  { check; severity = severity_of check; region; op; subject; msg }

let is_error f = f.severity = Error

let key ~resolve_op f =
  Printf.sprintf "%s|%s|%d" f.check f.subject
    (match f.op with Some id -> resolve_op id | None -> -1)

let subtract ~resolve_op ~inherited found =
  let keys = Hashtbl.create 17 in
  List.iter
    (fun f -> Hashtbl.replace keys (key ~resolve_op:(fun id -> id) f) ())
    inherited;
  List.filter (fun f -> not (Hashtbl.mem keys (key ~resolve_op f))) found

let pp ppf f =
  Format.fprintf ppf "%s %s [%s]%t: %s"
    (match f.severity with Error -> "error" | Warning -> "warning")
    f.check f.region
    (fun ppf ->
      match f.op with
      | Some id -> Format.fprintf ppf " op %d" id
      | None -> ())
    f.msg
