open Cpr_ir
open Machine

type t = Machine.t

let create (code : Code.t) ~memory =
  (* sized for the initial cells, so loading them never resizes *)
  let mem = Mem.create (max 64 (List.length memory)) in
  List.iter (fun (a, v) -> Mem.replace mem a v) memory;
  {
    code;
    gprs = Array.make (Reg.Tbl.length code.Code.gprs) 0;
    preds = Array.make (Reg.Tbl.length code.Code.preds) false;
    btrs = Array.make (Reg.Tbl.length code.Code.btrs) (-1);
    other_gprs = Reg.Map.empty;
    other_preds = Reg.Map.empty;
    memory = mem;
    stores = [];
  }

let read_gpr t r =
  match Reg.Tbl.find_opt t.code.Code.gprs r with
  | Some i -> t.gprs.(i)
  | None -> Option.value ~default:0 (Reg.Map.find_opt r t.other_gprs)

let read_pred t r =
  match Reg.Tbl.find_opt t.code.Code.preds r with
  | Some i -> t.preds.(i)
  | None -> Option.value ~default:false (Reg.Map.find_opt r t.other_preds)

let write_gpr t r v =
  match Reg.Tbl.find_opt t.code.Code.gprs r with
  | Some i -> t.gprs.(i) <- v
  | None -> t.other_gprs <- Reg.Map.add r v t.other_gprs

let write_pred t r v =
  match Reg.Tbl.find_opt t.code.Code.preds r with
  | Some i -> t.preds.(i) <- v
  | None -> t.other_preds <- Reg.Map.add r v t.other_preds

let read_mem t a = match Mem.find_opt t.memory a with Some v -> v | None -> 0

let write_mem t a v =
  Mem.replace t.memory a v;
  t.stores <- (a, v) :: t.stores

let store_trace t = List.rev t.stores

let memory_snapshot t =
  Mem.fold (fun a v acc -> (a, v) :: acc) t.memory []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
