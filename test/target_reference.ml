open Cpr_ir
module Liveness = Cpr_analysis.Liveness

let branch_target (r : Region.t) (br : Op.t) =
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
          let lab =
            List.find_map
              (function Op.Lab l -> Some l | Op.Reg _ | Op.Imm _ -> None)
              op.Op.srcs
          in
          scan lab rest
        else scan best rest
    in
    scan None r.Region.ops

(* A region without a fallthrough ends the program, so its live-out set
   is the program's [live_out]. *)
let live_at_target liveness r br =
  match branch_target r br with
  | Some target -> Liveness.live_in liveness target
  | None -> Liveness.live_out_region liveness (Region.make "<exit>" [])
