type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string

let malformed msg ofs =
  raise (Malformed (Printf.sprintf "%s at offset %d" msg ofs))

(* ---- reader ------------------------------------------------------------ *)

(* Exactly four hex digits at [i], or -1 (a bare [int_of_string] would
   also take '_' separators). *)
let hex4 s i =
  let is_hex c = String.contains "0123456789abcdefABCDEF" c in
  let digits = if i + 4 <= String.length s then String.sub s i 4 else "" in
  if digits <> "" && String.for_all is_hex digits then
    int_of_string ("0x" ^ digits)
  else -1

(* Decode a string body from [i], one past the opening quote, to the
   closing quote: the contents and the index past that quote. A [\u]
   escape names a UTF-16 code unit, so a high surrogate must be followed
   by an escaped low one and the pair decodes to one code point. *)
let decode_string s i =
  let n = String.length s in
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then malformed "unterminated string" n
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> (
        let j = i + 1 in
        let simple c =
          Buffer.add_char buf c;
          go (j + 1)
        in
        if j >= n then malformed "bad escape" j
        else
          match s.[j] with
          | '"' -> simple '"'
          | '\\' -> simple '\\'
          | '/' -> simple '/'
          | 'n' -> simple '\n'
          | 't' -> simple '\t'
          | 'r' -> simple '\r'
          | 'b' -> simple '\b'
          | 'f' -> simple '\012'
          | 'u' ->
            let d = j + 1 in
            if d + 4 > n then malformed "truncated \\u escape" d;
            let code = hex4 s d in
            if code < 0 then malformed "bad \\u escape" d;
            let code, next =
              if code >= 0xd800 && code <= 0xdbff then
                let low =
                  if d + 10 <= n && s.[d + 4] = '\\' && s.[d + 5] = 'u' then
                    hex4 s (d + 6)
                  else -1
                in
                if low < 0xdc00 || low > 0xdfff then
                  malformed "unpaired surrogate in \\u escape" d;
                (0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00), d + 10)
              else if code >= 0xdc00 && code <= 0xdfff then
                malformed "unpaired surrogate in \\u escape" d
              else (code, d + 4)
            in
            Buffer.add_utf_8_uchar buf (Uchar.of_int code);
            go next
          | _ -> malformed "bad escape" j)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  let next = go i in
  (Buffer.contents buf, next)

let string_token s i =
  if i < String.length s && s.[i] = '"' then decode_string s (i + 1)
  else malformed "expected '\"'" i

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = malformed msg !pos in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      value)
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_body () =
    expect '"';
    let contents, next = decode_string s !pos in
    pos := next;
    contents
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number")
  in
  (* The items of an array or object, after its opening bracket. *)
  let items close item =
    skip_ws ();
    if peek () = Some close then (
      advance ();
      [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          go acc
        | Some c when c = close ->
          advance ();
          List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      Obj (items '}' member)
    | Some '[' ->
      advance ();
      Arr (items ']' value)
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
  and member () =
    skip_ws ();
    let key = string_body () in
    skip_ws ();
    expect ':';
    (key, value ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

(* ---- printer ----------------------------------------------------------- *)

let add_string b s =
  Buffer.add_char b '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Printf.bprintf b "\\u%04x" (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (String.length s - !start);
  Buffer.add_char b '"'

(* %.15g round-trips every float whose shortest form has at most 15
   significant digits, and then prints exactly that form; the rest need
   16 or 17. *)
let float_repr f =
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p = 17 || float_of_string s = f then s else shortest (p + 1)
  in
  let s = shortest 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let seq b ~op ~cl add xs =
  Buffer.add_char b op;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add b x)
    xs;
  Buffer.add_char b cl

let member_into add b (k, v) =
  add_string b k;
  Buffer.add_string b ": ";
  add b v

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
  | Str s -> add_string b s
  | Arr vs -> seq b ~op:'[' ~cl:']' to_buffer vs
  | Obj kvs -> seq b ~op:'{' ~cl:'}' (member_into to_buffer) kvs

(* ---- joiners ----------------------------------------------------------- *)

type writer = Buffer.t -> unit

let value v b = to_buffer b v
let raw s b = Buffer.add_string b s
let fixed d x b = Printf.bprintf b "%.*f" d x
let obj members b = seq b ~op:'{' ~cl:'}' (member_into (fun b w -> w b)) members

let render w =
  let b = Buffer.create 256 in
  w b;
  Buffer.contents b

let to_string v = render (value v)
