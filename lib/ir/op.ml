type operand =
  | Reg of Reg.t
  | Imm of int
  | Lab of string

type guard =
  | True
  | If of Reg.t

type cond =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type action =
  | Un
  | Uc
  | On
  | Oc
  | An
  | Ac

type alu =
  | Add
  | Sub
  | Mul
  | Div
  | And_
  | Or_
  | Xor
  | Shl
  | Shr
  | Mov

type falu =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type opcode =
  | Alu of alu
  | Falu of falu
  | Load
  | Store
  | Cmpp of cond * action * action option
  | Pbr
  | Branch
  | Pred_init of bool list

type t = {
  id : int;
  opcode : opcode;
  dests : Reg.t list;
  srcs : operand list;
  guard : guard;
  orig : int option;
}

let make ~id ?(guard = True) ?orig opcode dests srcs =
  { id; opcode; dests; srcs; guard; orig }

let guard_reg op = match op.guard with True -> None | If p -> Some p
let is_branch op = op.opcode = Branch
let is_store op = op.opcode = Store
let is_load op = op.opcode = Load
let is_pbr op = op.opcode = Pbr
let is_cmpp op = match op.opcode with Cmpp _ -> true | _ -> false
let is_mem op = is_store op || is_load op

let is_speculatable op =
  match op.opcode with
  | Store | Branch -> false
  | Alu _ | Falu _ | Load | Cmpp _ | Pbr | Pred_init _ -> true

let actions op =
  match op.opcode with
  | Cmpp (_, a1, a2) -> (
    match a2 with Some a2 -> [ a1; a2 ] | None -> [ a1 ])
  | Alu _ | Falu _ | Load | Store | Pbr | Branch | Pred_init _ -> []

let writes_when_guard_false op =
  match op.opcode with
  | Cmpp _ ->
    List.filter_map
      (fun (a, d) -> match a with Un | Uc -> Some d | On | Oc | An | Ac -> None)
      (List.combine (actions op) op.dests)
  | Alu _ | Falu _ | Load | Store | Pbr | Branch | Pred_init _ -> []

let accumulator_dests op =
  match op.opcode with
  | Cmpp _ ->
    List.filter_map
      (fun (a, d) -> match a with On | Oc | An | Ac -> Some d | Un | Uc -> None)
      (List.combine (actions op) op.dests)
  | Alu _ | Falu _ | Load | Store | Pbr | Branch | Pred_init _ -> []

let uses op =
  let of_srcs =
    List.filter_map (function Reg r -> Some r | Imm _ | Lab _ -> None) op.srcs
  in
  let of_guard = match op.guard with True -> [] | If p -> [ p ] in
  of_srcs @ of_guard @ accumulator_dests op

let defs op = op.dests

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let eval_alu a x y =
  match a with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then 0 else x / y
  | And_ -> x land y
  | Or_ -> x lor y
  | Xor -> x lxor y
  | Shl -> x lsl (abs y mod 63)
  | Shr -> x asr (abs y mod 63)
  | Mov -> y

let eval_falu f x y =
  match f with
  | Fadd -> x + y
  | Fsub -> x - y
  | Fmul -> x * y
  | Fdiv -> if y = 0 then 0 else x / y

(* Table 1 of the paper.  [None] means the destination is left untouched. *)
let cmpp_dest_update action ~guard ~cond =
  match action with
  | Un -> Some (guard && cond)
  | Uc -> Some (guard && not cond)
  | On -> if guard && cond then Some true else None
  | Oc -> if guard && not cond then Some true else None
  | An -> if guard && not cond then Some false else None
  | Ac -> if guard && cond then Some false else None

let action_name = function
  | Un -> "un"
  | Uc -> "uc"
  | On -> "on"
  | Oc -> "oc"
  | An -> "an"
  | Ac -> "ac"

let cond_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | And_ -> "and"
  | Or_ -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Mov -> "mov"

let falu_name = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm i -> Format.pp_print_int ppf i
  | Lab l -> Format.pp_print_string ppf l

let pp_guard ppf = function
  | True -> Format.pp_print_string ppf "if T"
  | If p -> Format.fprintf ppf "if %a" Reg.pp p

let pp_opcode_name ppf = function
  | Alu a -> Format.pp_print_string ppf (alu_name a)
  | Falu f -> Format.pp_print_string ppf (falu_name f)
  | Load -> Format.pp_print_string ppf "load"
  | Store -> Format.pp_print_string ppf "store"
  | Cmpp (c, a1, a2) ->
    Format.fprintf ppf "cmpp.%s%s %s" (action_name a1)
      (match a2 with Some a2 -> "." ^ action_name a2 | None -> "")
      (cond_name c)
  | Pbr -> Format.pp_print_string ppf "pbr"
  | Branch -> Format.pp_print_string ppf "branch"
  | Pred_init bs ->
    Format.fprintf ppf "pinit(%s)"
      (String.concat "," (List.map (fun b -> if b then "1" else "0") bs))

let pp_list pp_elt ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_elt ppf xs

let pp ppf op =
  let pp_dests ppf = function
    | [] -> ()
    | ds -> Format.fprintf ppf "%a = " (pp_list Reg.pp) ds
  in
  Format.fprintf ppf "%4d. %a%a (%a) %a" op.id pp_dests op.dests pp_opcode_name
    op.opcode (pp_list pp_operand) op.srcs pp_guard op.guard

let to_string op = Format.asprintf "%a" pp op
