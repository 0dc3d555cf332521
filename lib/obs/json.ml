type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fixed digits x =
  let scale = 10. ** float_of_int digits in
  Num (Float.round (x *. scale) /. scale)

(* The shortest of %.15g/%.16g/%.17g that reads back as the same float,
   so integers print without a fraction and rounded decimals as written. *)
let number x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s
    else
      let s = Printf.sprintf "%.16g" x in
      if float_of_string s = x then s else Printf.sprintf "%.17g" x

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

(* Containers of scalars stay on one line; a container holding another
   container puts each member on its own line, indented two spaces. *)
let to_string v =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  let rec value indent = function
    | Null -> add "null"
    | Bool v -> add (string_of_bool v)
    | Num x -> add (number x)
    | Str s ->
      add "\"";
      add (escape s);
      add "\""
    | Arr [] -> add "[]"
    | Obj [] -> add "{}"
    | Arr items ->
      container indent "[" "]" (List.map (fun x -> (None, x)) items)
    | Obj members ->
      container indent "{" "}" (List.map (fun (k, x) -> (Some k, x)) members)
  and container indent op cl entries =
    let inline = List.for_all (fun (_, x) -> is_scalar x) entries in
    let inner = indent ^ "  " in
    let gap i = if inline then add " " else add ("\n" ^ i) in
    add op;
    List.iteri
      (fun n (key, x) ->
        if n > 0 then add ",";
        gap inner;
        Option.iter
          (fun k ->
            value inner (Str k);
            add ": ")
          key;
        value inner x)
      entries;
    gap indent;
    add cl
  in
  value "" v;
  add "\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Bad of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = pos := !pos + 1 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let utf8 b code =
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        let unescaped c =
          advance ();
          Buffer.add_char b c;
          go ()
        in
        match peek () with
        | Some (('"' | '\\' | '/') as c) -> unescaped c
        | Some 'n' -> unescaped '\n'
        | Some 't' -> unescaped '\t'
        | Some 'r' -> unescaped '\r'
        | Some 'b' -> unescaped '\b'
        | Some 'f' -> unescaped '\012'
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> utf8 b code
          | None -> fail "bad \\u escape");
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c -> is_num_char c | None -> false do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when !pos > start -> f
    | _ ->
      pos := start;
      fail "bad number"
  in
  (* [items close item] parses [item (, item)* close] after the opener. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then begin
      advance ();
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          more acc
        | Some c when c = close ->
          advance ();
          List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      more []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (string_lit ())
    | Some '{' ->
      advance ();
      Obj
        (items '}' (fun () ->
             skip_ws ();
             let k = string_lit () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | Some '[' ->
      advance ();
      Arr (items ']' value)
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with v -> Ok v | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Typed access                                                        *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let decode_error fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let field what key v =
  match member key v with
  | Some x -> x
  | None -> decode_error "%s: missing %S" what key

let num what = function
  | Num x -> x
  | _ -> decode_error "%s: expected a number" what

let int what v =
  let x = num what v in
  if Float.is_integer x then int_of_float x
  else decode_error "%s: expected an integer" what

let str what = function
  | Str s -> s
  | _ -> decode_error "%s: expected a string" what

let arr what = function
  | Arr l -> l
  | _ -> decode_error "%s: expected an array" what

let obj what = function
  | Obj l -> l
  | _ -> decode_error "%s: expected an object" what

let decode f s =
  match f (parse_exn s) with v -> Ok v | exception Bad msg -> Error msg
