type t = {
  label : string;
  mutable ops : Op.t list;
  mutable fallthrough : string option;
  mutable entry_count : int;
  taken : (int, int) Hashtbl.t;
}

let make ?fallthrough label ops =
  { label; ops; fallthrough; entry_count = 0; taken = Hashtbl.create 7 }

let branches t = List.filter Op.is_branch t.ops

let taken_count t id = Option.value ~default:0 (Hashtbl.find_opt t.taken id)
let add_entries t n = t.entry_count <- t.entry_count + n
let add_taken t id n = Hashtbl.replace t.taken id (taken_count t id + n)

let clear_profile t =
  t.entry_count <- 0;
  Hashtbl.reset t.taken

let reaching_pbr t (br : Op.t) =
  let btr =
    List.find_map
      (function Op.Reg r when r.Reg.cls = Reg.Btr -> Some r | _ -> None)
      br.Op.srcs
  in
  match btr with
  | None -> None
  | Some btr ->
    let rec scan best = function
      | [] -> best
      | (op : Op.t) :: rest ->
        if op.Op.id = br.Op.id then best
        else if Op.is_pbr op && List.exists (Reg.equal btr) op.Op.dests then
          scan (Some op) rest
        else scan best rest
    in
    scan None t.ops

(* One forward pass: the label of the last [pbr] seen per btr register
   is the target of a branch reading that btr.  [f] gets each branch's
   op index, the branch and its target. *)
let iter_branch_targets f t =
  let prepared = Reg.Tbl.create 4 in
  List.iteri
    (fun i (op : Op.t) ->
      if Op.is_pbr op then begin
        let lab =
          List.find_map
            (function Op.Lab l -> Some l | Op.Reg _ | Op.Imm _ -> None)
            op.Op.srcs
        in
        List.iter (fun d -> Reg.Tbl.replace prepared d lab) op.Op.dests
      end
      else if Op.is_branch op then
        let target =
          List.find_map
            (function
              | Op.Reg r when r.Reg.cls = Reg.Btr ->
                Some (Option.join (Reg.Tbl.find_opt prepared r))
              | _ -> None)
            op.Op.srcs
        in
        f i op (Option.join target))
    t.ops

let branch_targets t =
  let acc = ref [] in
  iter_branch_targets (fun _ op target -> acc := (op, target) :: !acc) t;
  List.rev !acc

let targets_by_index t =
  let at = Array.make (List.length t.ops) None in
  iter_branch_targets (fun i _ target -> at.(i) <- target) t;
  at

let successors t =
  let targets = List.filter_map snd (branch_targets t) in
  let all = targets @ Option.to_list t.fallthrough in
  List.fold_left (fun acc l -> if List.mem l acc then acc else acc @ [ l ]) [] all

let find_op t id = List.find_opt (fun (op : Op.t) -> op.Op.id = id) t.ops

let op_index t id =
  let rec go i = function
    | [] -> raise Not_found
    | (op : Op.t) :: rest -> if op.Op.id = id then i else go (i + 1) rest
  in
  go 0 t.ops

let static_op_count t = List.length t.ops

let copy t =
  {
    label = t.label;
    ops = t.ops;
    fallthrough = t.fallthrough;
    entry_count = t.entry_count;
    taken = Hashtbl.copy t.taken;
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>%s:  (entry %d, fallthrough %s)@,%a@]" t.label
    t.entry_count
    (Option.value ~default:"<exit>" t.fallthrough)
    (Format.pp_print_list Op.pp)
    t.ops
