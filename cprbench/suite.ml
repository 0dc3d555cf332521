(* The four workloads.  Every input the compiler sees is built here from
   the run's seed.  Compile workloads keep the profile independent of
   the seed (registry inputs are fixed; the kernel ladders never take a
   side exit), so compile work and the Table 2/3 numbers are the same
   for every seed while the data the equivalence oracle checks is not. *)

open Cpr_ir
module K = Cpr_workloads.Kernels
module Driver = Cpr_fuzz.Driver

type program = {
  name : string;
  prog : Prog.t;
  inputs : Cpr_sim.Equiv.input list;
  ops : int;
}

type fuzz = {
  check : Driver.check;
  start : int;  (** the run's first generator seed *)
  warmup_seeds : int;
  batch : int;
  corpus : program list;
      (** fixed generator seeds whose [Report.run] gmeans stand in for
          Table 2/3 on this workload *)
}

type instance =
  | Compile of program list
  | Fuzz of fuzz

type t = {
  name : string;
  why : string;
  build : seed:int -> smoke:bool -> instance;
}

let program name prog inputs =
  { name; prog; inputs; ops = Prog.static_op_count prog }

(* Deterministic per-run stream of input seeds. *)
let mix seed k = K.lcg ((seed * 7919) + (k * 104729) + 1)

(* Fisher-Yates driven by the run seed: the only use of the seed on
   paper-suite.  The kernel ladders keep a fixed order, which keeps their
   peak memory independent of the seed. *)
let shuffle seed xs =
  let a = Array.of_list xs in
  let s = ref (mix seed 0) in
  for i = Array.length a - 1 downto 1 do
    s := K.lcg !s;
    let j = !s mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let take_if smoke n xs = if smoke then List.filteri (fun i _ -> i < n) xs else xs

let cases n =
  List.init n (fun i -> { K.match_value = 3 + (7 * i); handler_work = 4 })

let stream ~seed k unroll =
  let spec =
    { K.default_stream with unroll; work = 2; store = true; counted = true }
  in
  program
    (Printf.sprintf "stream-u%d" unroll)
    (K.stream_prog spec)
    (List.init 2 (fun j ->
         K.stream_input ~spec ~len:(4 * unroll) ~exit_probability:0.
           ~seed:(mix seed ((10 * k) + j))))

let dispatch ~seed k ~ncases ~d_unroll ~cold ~len =
  let spec =
    {
      K.default_dispatch with
      cases = cases ncases;
      d_unroll;
      d_cold_regions = cold;
      d_cold_size = 10;
    }
  in
  program
    (Printf.sprintf "dispatch-c%d-u%d-cold%d" ncases d_unroll cold)
    (K.dispatch_prog spec)
    (List.init 2 (fun j ->
         K.dispatch_input ~spec ~len ~case_probability:0.
           ~seed:(mix seed ((10 * k) + j))))

let paper_suite ~seed ~smoke =
  Cpr_workloads.Registry.all
  |> take_if smoke 2
  |> List.map (fun (w : Cpr_workloads.Workload.t) ->
         program w.name (w.build ()) (w.inputs ()))
  |> shuffle seed

(* Nine programs each: with whole passes, the median and the 90th
   percentile then fall inside one program's cluster of samples (at
   4.5 and 8.1 programs) instead of on the gap between two. *)
let wide_regions ~seed ~smoke =
  let streams = List.init 7 (fun i -> 20 + (4 * i)) in
  List.mapi (fun k u -> stream ~seed k u) streams
  @ List.mapi
      (fun k d ->
        dispatch ~seed (10 + k) ~ncases:3 ~d_unroll:d ~cold:0 ~len:(4 * d))
      [ 8; 10 ]
  |> take_if smoke 2

let many_regions ~seed ~smoke =
  [
    (2, 2, 25); (3, 2, 50); (4, 3, 75); (5, 3, 100); (6, 3, 125);
    (7, 4, 150); (2, 4, 200); (5, 2, 225); (8, 3, 250);
  ]
  |> take_if smoke 2
  |> List.mapi (fun k (ncases, d_unroll, cold) ->
         dispatch ~seed k ~ncases ~d_unroll ~cold ~len:600)

(* Generator seeds are taken from [0, clean_seeds): verified fuzzing
   passes on every one of them (the first failing seed, 12945, is an
   open tv-store-guard finding on the icbm stage).  A run starts at a
   seed-dependent point and wraps around. *)
let clean_seeds = 12800

let fuzz_seed f i = (f.start + i) mod clean_seeds

let fuzz_verify ~seed ~smoke =
  let check = { Driver.default_check with verify = true } in
  let corpus =
    List.init (if smoke then 3 else 100) (fun s ->
        program
          (Printf.sprintf "seed-%d" s)
          (Cpr_workloads.Gen.prog_of_seed s)
          (Driver.inputs_for check s))
  in
  Fuzz
    {
      check;
      start = (((seed * 4099) mod clean_seeds) + clean_seeds) mod clean_seeds;
      warmup_seeds = (if smoke then 2 else 50);
      batch = (if smoke then 20 else 25);
      corpus;
    }

let all =
  [
    {
      name = "paper-suite";
      why =
        "the 24 Table 2/3 programs users regenerate; profiling and \
         equivalence interpretation dominate";
      build =
        (fun ~seed ~smoke -> Compile (paper_suite ~seed ~smoke));
    };
    {
      name = "wide-regions";
      why =
        "long unrolled hyperblocks where predicate speculation and the Pqs \
         engine dominate and simulation is cheap";
      build =
        (fun ~seed ~smoke -> Compile (wide_regions ~seed ~smoke));
    };
    {
      name = "many-regions";
      why =
        "hundreds of small cold regions where per-region scheduling, \
         pressure and verification dominate";
      build =
        (fun ~seed ~smoke -> Compile (many_regions ~seed ~smoke));
    };
    {
      name = "fuzz-verify";
      why =
        "thousands of tiny generated programs through all 8 fuzz stages \
         with the verifier and warm caches";
      build = fuzz_verify;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
