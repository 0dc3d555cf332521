open Cpr_analysis
open Helpers

let l1 = Pqs.cond_lit 1
let l2 = Pqs.cond_lit 2
let not_ = Pqs.not_
let ( &&& ) = Pqs.and_
let ( ||| ) = Pqs.or_
let checks = Alcotest.(check string)

let constants () =
  checkb "true" true (Pqs.is_const_true Pqs.tru);
  checkb "false" true (Pqs.is_const_false Pqs.fls);
  checkb "const true" true (Pqs.is_const_true (Pqs.const true));
  checkb "and with false" true (Pqs.is_const_false (l1 &&& Pqs.fls));
  checkb "or with true" true (Pqs.is_const_true (l1 ||| Pqs.tru))

let contradiction_and_negation () =
  checkb "x & ~x = false" true (Pqs.is_const_false (l1 &&& not_ l1));
  checkb "x | ~x = true" true (Pqs.is_const_true (l1 ||| not_ l1));
  checkb "~~x = x implies both ways" true
    (Pqs.implies (not_ (not_ l1)) l1 && Pqs.implies l1 (not_ (not_ l1)))

let disjointness () =
  checkb "complementary literals" true (Pqs.disjoint l1 (not_ l1));
  checkb "independent literals not disjoint" false (Pqs.disjoint l1 l2);
  checkb "conjunction extension stays disjoint" true
    (Pqs.disjoint (l1 &&& l2) (not_ l1 &&& l2));
  checkb "or distributes over disjointness" true
    (Pqs.disjoint (l1 ||| (l1 &&& l2)) (not_ l1));
  checkb "false disjoint from anything" true (Pqs.disjoint Pqs.fls l1);
  (* FRP pattern: block predicates vs the taken predicate of an earlier
     branch (the property that lets the scheduler overlap branches) *)
  let taken1 = l1 in
  let fall1 = not_ l1 in
  let taken2 = fall1 &&& l2 in
  let fall2 = fall1 &&& not_ l2 in
  checkb "taken1 # taken2" true (Pqs.disjoint taken1 taken2);
  checkb "taken1 # fall2" true (Pqs.disjoint taken1 fall2);
  checkb "taken2 # fall2" true (Pqs.disjoint taken2 fall2);
  checkb "fall1 not # taken2" false (Pqs.disjoint fall1 taken2)

let implication () =
  checkb "conj implies its part" true (Pqs.implies (l1 &&& l2) l1);
  checkb "part does not imply conj" false (Pqs.implies l1 (l1 &&& l2));
  checkb "or implies only if all branches do" false
    (Pqs.implies (l1 ||| l2) l1);
  checkb "both branches imply" true (Pqs.implies ((l1 &&& l2) ||| l1) l1);
  checkb "false implies anything" true (Pqs.implies Pqs.fls l2);
  checkb "anything implies true" true (Pqs.implies (l1 &&& not_ l2) Pqs.tru);
  (* implications no single term of the consequent covers: a syntactic
     subsumption check answers "cannot prove" to both *)
  checkb "true implies c1 | ~c1" true (Pqs.implies Pqs.tru (l1 ||| not_ l1));
  checkb "c1 implies c1&c2 | c1&~c2" true
    (Pqs.implies l1 ((l1 &&& l2) ||| (l1 &&& not_ l2)))

let entry_literals () =
  let p = Pqs.entry_lit (Cpr_ir.Reg.pred 4) in
  checkb "p # ~p" true (Pqs.disjoint p (not_ p));
  checkb "entry and cond literals independent" false (Pqs.disjoint p l1)

let printing () =
  let show e = Format.asprintf "%a" Pqs.pp e in
  let l3 = Pqs.cond_lit 3 and p = Pqs.entry_lit (Cpr_ir.Reg.pred 2) in
  checks "constants" "true false" (show Pqs.tru ^ " " ^ show Pqs.fls);
  checks "terms and literals in key order" "c1 | c2" (show (l2 ||| l1));
  checks "redundant terms dropped" "c1"
    (show ((l1 &&& l2) ||| (l1 &&& not_ l2)));
  checks "negation and entry literals" "c1&~c3 | p2@entry"
    (show (p ||| (not_ l3 &&& l1)))

(* --- property tests: answers are exact w.r.t. brute force --- *)

module R = Pqs_reference

(* Random expression trees over 4 condition literals, built through
   either engine.  Small trees with mostly literal leaves: large random
   trees over 4 literals nearly always collapse to a constant. *)
type ast =
  | T
  | F
  | L of int
  | And of ast * ast
  | Or of ast * ast
  | Not of ast

let gen_ast =
  QCheck2.Gen.(
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           if n = 0 then
             frequency
               [
                 (1, return T);
                 (1, return F);
                 (6, map (fun i -> L i) (int_bound 3));
               ]
           else
             oneof
               [
                 map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
                 map (fun a -> Not a) (self (n - 1));
               ]))

let rec build_bdd = function
  | T -> Pqs.tru
  | F -> Pqs.fls
  | L i -> Pqs.cond_lit i
  | And (a, b) -> Pqs.and_ (build_bdd a) (build_bdd b)
  | Or (a, b) -> Pqs.or_ (build_bdd a) (build_bdd b)
  | Not a -> Pqs.not_ (build_bdd a)

let gen_expr = QCheck2.Gen.map build_bdd gen_ast

let rec build_ref = function
  | T -> R.tru
  | F -> R.fls
  | L i -> R.cond_lit i
  | And (a, b) -> R.and_ (build_ref a) (build_ref b)
  | Or (a, b) -> R.or_ (build_ref a) (build_ref b)
  | Not a -> R.not_ (build_ref a)

let all_assignments keys =
  let keys = List.sort_uniq compare keys in
  let rec go = function
    | [] -> [ (fun _ -> false) ]
    | k :: rest ->
      List.concat_map
        (fun f -> [ (fun q -> if q = k then false else f q);
                    (fun q -> if q = k then true else f q) ])
        (go rest)
  in
  go keys

let semantically f a b =
  List.for_all
    (fun assign -> f (Pqs.eval assign a) (Pqs.eval assign b))
    (all_assignments (Pqs.keys a @ Pqs.keys b))

let prop_disjoint_exact =
  QCheck2.Test.make ~name:"disjoint answers are exact" ~count:300
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (a, b) ->
      Pqs.disjoint a b = semantically (fun va vb -> not (va && vb)) a b)

let prop_implies_exact =
  QCheck2.Test.make ~name:"implies answers are exact" ~count:300
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (a, b) ->
      Pqs.implies a b = semantically (fun va vb -> (not va) || vb) a b)

let prop_eval_homomorphic =
  QCheck2.Test.make ~name:"and/or/not evaluate pointwise" ~count:300
    QCheck2.Gen.(pair gen_expr gen_expr)
    (fun (a, b) ->
      List.for_all
        (fun assign ->
          let va = Pqs.eval assign a and vb = Pqs.eval assign b in
          Pqs.eval assign (Pqs.and_ a b) = (va && vb)
          && Pqs.eval assign (Pqs.or_ a b) = (va || vb)
          && Pqs.eval assign (Pqs.not_ a) = not va)
        (all_assignments (Pqs.keys a @ Pqs.keys b)))

(* [subst f t] evaluates like [t] under [k -> eval s (f k)].  [t] reads
   [Cond 0..2] and [Entry 3]; the image of literal [i] ranges over
   [Cond (4 + i) .. Cond (7 + i)], so brute force covers at most 11
   literals.  Substituting every literal by itself gives back [t]. *)
let rec shift off = function
  | L i -> L (i + off)
  | (T | F) as c -> c
  | And (a, b) -> And (shift off a, shift off b)
  | Or (a, b) -> Or (shift off a, shift off b)
  | Not a -> Not (shift off a)

let rec build_with_entry = function
  | L 3 -> Pqs.entry_lit (Cpr_ir.Reg.pred 3)
  | L i -> Pqs.cond_lit i
  | T -> Pqs.tru
  | F -> Pqs.fls
  | And (a, b) -> Pqs.and_ (build_with_entry a) (build_with_entry b)
  | Or (a, b) -> Pqs.or_ (build_with_entry a) (build_with_entry b)
  | Not a -> Pqs.not_ (build_with_entry a)

let lit_of = function
  | Pqs.Cond i -> Pqs.cond_lit i
  | Pqs.Entry r -> Pqs.entry_lit (Cpr_ir.Reg.pred r)

let prop_subst_pointwise =
  QCheck2.Test.make ~name:"subst evaluates pointwise" ~count:300
    QCheck2.Gen.(pair gen_ast (array_repeat 4 gen_ast))
    (fun (x, ys) ->
      let t = build_with_entry x in
      let images = Array.mapi (fun i y -> build_bdd (shift (4 + i) y)) ys in
      let f = function Pqs.Cond i -> images.(i) | Pqs.Entry r -> images.(r) in
      let s = Pqs.subst f t in
      let keys = List.concat_map Pqs.keys (Array.to_list images) in
      List.length (List.sort_uniq compare keys) <= 12
      && Pqs.subst lit_of t == t
      && List.for_all
           (fun assign ->
             Pqs.eval assign s
             = Pqs.eval (fun k -> Pqs.eval assign (f k)) t)
           (all_assignments keys))

(* --- the reference DNF engine, replayed on identical constructions --- *)

module RefEnv = Cpr_analysis.Pred_env.Make (Pqs_reference)
module W = Cpr_workloads

(* Oracle by semantics, not structure: where the reference knows the
   value, both engines denote the same function (brute force over at
   most 12 literals), answer [disjoint] identically (DNF disjointness is
   exact), and every implication the reference proves holds in the BDD
   (DNF subsumption is incomplete, so the converse may fail). *)
let max_enum_keys = 12

let same_function p r =
  R.is_unknown r
  ||
  let keys = List.sort_uniq compare (Pqs.keys p @ R.keys r) in
  List.length keys > max_enum_keys
  || List.for_all
       (fun assign -> R.eval assign r = Some (Pqs.eval assign p))
       (all_assignments keys)

let queries_agree (a, ra) (b, rb) =
  R.is_unknown ra || R.is_unknown rb
  || (Pqs.disjoint a b = R.disjoint ra rb
     && ((not (R.implies ra rb)) || Pqs.implies a b))

let prop_engines_agree =
  QCheck2.Test.make ~name:"hash-consed engine agrees with reference"
    ~count:500
    QCheck2.Gen.(pair gen_ast gen_ast)
    (fun (x, y) ->
      let a = build_bdd x and b = build_bdd y in
      let ra = build_ref x and rb = build_ref y in
      same_function a ra && same_function b rb
      && queries_agree (a, ra) (b, rb))

(* --- hash consing within an epoch, exact answers across epochs --- *)

let hash_consing () =
  Pqs.invalidate ();
  checkb "same construction is one node" true ((l1 &&& l2) == (l1 &&& l2));
  checkb "self-implication" true (Pqs.implies (l1 ||| l2) (l1 ||| l2));
  checkb "satisfiable node not self-disjoint" false
    (Pqs.disjoint (l1 &&& l2) (l1 &&& l2));
  (* Values built before an invalidation are no longer shared with
     values built after it, but a constant result is always a global
     terminal, so [disjoint] and [implies] between the two epochs stay
     exact. *)
  let pairs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 21 |]) ~n:300
      QCheck2.Gen.(pair gen_ast gen_ast)
  in
  let before = List.map (fun (x, _) -> build_bdd x) pairs in
  Pqs.invalidate ();
  List.iter2
    (fun a (x, y) ->
      let b = build_bdd y in
      checkb "disjoint across epochs"
        (semantically (fun va vb -> not (va && vb)) a b)
        (Pqs.disjoint a b);
      checkb "implies across epochs"
        (semantically (fun va vb -> (not va) || vb) a b)
        (Pqs.implies a b);
      checkb "rebuilt value implies both ways" true
        (Pqs.implies a (build_bdd x) && Pqs.implies (build_bdd x) a))
    before pairs

(* Real programs: run [Pred_env] under both engines over every workload
   and a batch of fuzz programs (raw and ICBM-transformed), and require
   the same guard and path-condition functions and agreeing query
   answers. *)
let oracle_region name (r : Cpr_ir.Region.t) =
  let ep = Cpr_analysis.Pred_env.analyze r in
  let er = RefEnv.analyze r in
  let n = Array.length (Cpr_analysis.Pred_env.ops ep) in
  let gp = Array.init n (Cpr_analysis.Pred_env.guard_expr ep) in
  let gr = Array.init n (RefEnv.guard_expr er) in
  let fail what i =
    Alcotest.failf "%s/%s op %d: %s diverged" name r.Cpr_ir.Region.label i
      what
  in
  for i = 0 to n - 1 do
    if not (same_function gp.(i) gr.(i)) then fail "guard" i
  done;
  let pr = RefEnv.path_conds er in
  Array.iteri
    (fun i p -> if not (same_function p pr.(i)) then fail "path condition" i)
    (Cpr_analysis.Pred_env.path_conds ep);
  (* pairwise queries over a sliding window — the locality the scheduler
     and depgraph builder actually exercise *)
  for i = 0 to n - 1 do
    for j = i + 1 to min (n - 1) (i + 20) do
      if not (queries_agree (gp.(i), gr.(i)) (gp.(j), gr.(j))) then
        fail (Printf.sprintf "query with op %d" j) i
    done
  done

let oracle_prog name prog =
  List.iter (oracle_region name) (Cpr_ir.Prog.regions prog)

let engines_agree_on_programs () =
  List.iter
    (fun (w : W.Workload.t) ->
      oracle_prog w.W.Workload.name (w.W.Workload.build ()))
    W.Registry.all;
  (* transformed code is where predicates abound (FRP columns, guarded
     compensation): oracle the ICBM pipeline output of the quick set *)
  List.iter
    (fun name ->
      let w = Option.get (W.Registry.find name) in
      let compiled =
        Cpr_pipeline.Passes.height_reduce ~verify:false
          (w.W.Workload.build ()) (w.W.Workload.inputs ())
      in
      oracle_prog (name ^ "-icbm") compiled.Cpr_pipeline.Passes.prog)
    [ "strcpy"; "grep"; "099.go" ];
  let stage = Option.get (Cpr_fuzz.Stage.find "icbm") in
  for seed = 0 to 59 do
    let name = Printf.sprintf "fuzz-%d" seed in
    oracle_prog name (W.Gen.prog_of_seed seed);
    if seed < 20 then
      oracle_prog (name ^ "-icbm")
        (stage.Cpr_fuzz.Stage.apply (W.Gen.prog_of_seed seed)
           (W.Gen.inputs_of_seed seed))
  done

let suite =
  ( "pqs",
    [
      case "constants" constants;
      case "contradiction and negation" contradiction_and_negation;
      case "disjointness" disjointness;
      case "implication" implication;
      case "entry literals" entry_literals;
      case "printing" printing;
      case "hash-consing" hash_consing;
      case "engines agree on programs" engines_agree_on_programs;
      QCheck_alcotest.to_alcotest prop_disjoint_exact;
      QCheck_alcotest.to_alcotest prop_implies_exact;
      QCheck_alcotest.to_alcotest prop_eval_homomorphic;
      QCheck_alcotest.to_alcotest prop_subst_pointwise;
      QCheck_alcotest.to_alcotest prop_engines_agree;
    ] )
