(* Packed bitsets over a dense [0, n) universe: one int array, Sys.int_size
   bits per word.  The dataflow fixpoints (Liveness, Cpr_verify.Dataflow)
   run their transfer functions over these and convert to Reg.Set only at
   the API boundary, so the inner loops do word-wide boolean algebra with
   zero allocation instead of rebalancing polymorphic set trees. *)

type t = int array

let bpw = Sys.int_size
let create n = Array.make ((n + bpw - 1) / bpw) 0
let copy = Array.copy
let[@inline] mem (t : t) i = t.(i / bpw) land (1 lsl (i mod bpw)) <> 0

let[@inline] set (t : t) i =
  let w = i / bpw in
  t.(w) <- t.(w) lor (1 lsl (i mod bpw))

let[@inline] unset (t : t) i =
  let w = i / bpw in
  t.(w) <- t.(w) land lnot (1 lsl (i mod bpw))

let union_into ~into (src : t) =
  let changed = ref false in
  for w = 0 to Array.length src - 1 do
    let u = into.(w) lor src.(w) in
    if u <> into.(w) then begin
      into.(w) <- u;
      changed := true
    end
  done;
  !changed

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go w = w >= n || (a.(w) = b.(w) && go (w + 1)) in
  go 0

let is_empty (t : t) = Array.for_all (fun w -> w = 0) t

(* Members of a word, a byte at a time ([lsr] shifts zeros in, so the
   sign bit is counted too). *)
let byte_pop =
  Array.init 256 (fun b ->
      let rec go b = if b = 0 then 0 else (b land 1) + go (b lsr 1) in
      go b)

let popcount w =
  let rec go w acc =
    if w = 0 then acc else go (w lsr 8) (acc + byte_pop.(w land 255))
  in
  go w 0

let count_range (t : t) lo hi =
  let acc = ref 0 and i = ref lo in
  while !i < hi do
    let b = !i mod bpw in
    let take = min (bpw - b) (hi - !i) in
    let w = t.(!i / bpw) lsr b in
    acc := !acc + popcount (if take = bpw then w else w land ((1 lsl take) - 1));
    i := !i + take
  done;
  !acc

let inter (a : t) (b : t) : t = Array.mapi (fun w x -> x land b.(w)) a
let diff (a : t) (b : t) : t = Array.mapi (fun w x -> x land lnot b.(w)) a

let fold f (t : t) init =
  let acc = ref init in
  Array.iteri
    (fun w bits ->
      let bits = ref bits in
      while !bits <> 0 do
        let low = !bits land - !bits in
        (* count trailing zeros via the de-facto log2 of the isolated bit *)
        let rec tz i v = if v = 1 then i else tz (i + 1) (v lsr 1) in
        acc := f ((w * bpw) + tz 0 low) !acc;
        bits := !bits land lnot low
      done)
    t;
  !acc
