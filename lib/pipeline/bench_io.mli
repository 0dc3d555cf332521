(** What is left of the old bench JSON writer: the escaper that
    [cprbench/cpr_bench.ml] and [cprbench/spans.ml] call.  It stays only
    for them; [cprbench/] changes only together with the benchmark it
    defines ([BENCHMARK.json]). *)

val json_escape : string -> string
(** {!Cpr_obs.Json.escape}. *)
