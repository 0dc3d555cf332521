(* The representation of [State.t], private to this library: the
   executors ([Interp], [Vliw]) index the register files directly, and
   everyone else reads and writes through [State]. *)

open Cpr_ir

(* Memory keyed by address with an identity hash: addresses are small
   and mostly consecutive. *)
module Mem = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = a land max_int
end)

type t = {
  code : Code.t;  (* whose numbering indexes the files *)
  gprs : int array;
  preds : bool array;
  btrs : int array;  (* label index held, -1 when unset *)
  mutable other_gprs : int Reg.Map.t;  (* registers the program never names *)
  mutable other_preds : bool Reg.Map.t;
  memory : int Mem.t;
  mutable stores : (int * int) list;  (* newest first *)
}
