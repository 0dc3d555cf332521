module Obs = Cpr_obs.Obs

type failure = {
  stage : string;
  reason : string;
  findings : Cpr_verify.Finding.t list;
  retries : int;
  bundle : string option;
}

type 'a protected = Committed of 'a | Fell_back of 'a * failure

let c_fallbacks = Obs.counter "recover.fallbacks"
let c_retries = Obs.counter "recover.retries"
let value = function Committed v | Fell_back (v, _) -> v
let failure = function Committed _ -> None | Fell_back (_, f) -> Some f
let degraded p = failure p <> None

let pp_failure ppf f =
  Format.fprintf ppf "stage %s degraded: %s" f.stage f.reason;
  if f.retries > 0 then Format.fprintf ppf " (after %d retry)" f.retries;
  (match f.bundle with
  | Some dir -> Format.fprintf ppf " [bundle %s]" dir
  | None -> ());
  List.iter (fun fi -> Format.fprintf ppf "@,  %a" Cpr_verify.Finding.pp fi)
    f.findings

let reason_of = function
  | Cpr_verify.Verify.Verify_error fs ->
    Format.asprintf "verification rejected the output (%d error finding(s)): %a"
      (List.length fs)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         Cpr_verify.Finding.pp)
      fs
  | e -> Printexc.to_string e

let findings_of = function
  | Cpr_verify.Verify.Verify_error fs -> fs
  | _ -> []

(* A verifier rejection is a pure function of the IR: re-running the
   stage reproduces it exactly, so retrying only doubles the cost.
   Everything else — a pass exception, an injected chaos fault — may
   be once-only, and one retry is cheap next to losing the optimization
   level. *)
let transient = function Cpr_verify.Verify.Verify_error _ -> false | _ -> true

let protect ?on_failure ~stage ~fallback f =
  let rec attempt n =
    match f () with
    | v -> Committed v
    | exception e ->
      if n = 0 && transient e then begin
        Obs.incr c_retries;
        attempt (n + 1)
      end
      else begin
        Obs.incr c_fallbacks;
        let fail =
          {
            stage;
            reason = reason_of e;
            findings = findings_of e;
            retries = n;
            bundle = None;
          }
        in
        let bundle =
          match on_failure with
          | None -> None
          | Some g -> ( try g fail with _ -> None)
        in
        Fell_back (fallback (), { fail with bundle })
      end
  in
  attempt 0

let bundle_to ?dir ?(inputs = []) prog fail =
  match
    Bundle.write ?dir ~findings:fail.findings
      ~inputs ~stage:fail.stage ~reason:fail.reason ~prog ()
  with
  | Ok path -> Some path
  | Error _ -> None
