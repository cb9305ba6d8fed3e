(* Timers, order statistics, host facts and the JSON printer the
   benchmark reports through. Values are [Protocol.json], the tree's one
   parsed-JSON type, so responses read from the daemon and metrics
   written by the benchmark share a representation. *)

module J = Srfa_server.Protocol

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time f] is [(f (), seconds)]. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quartiles by Python's default statistics.quantiles method
   ("exclusive": rank p(n+1), clamped to the sample). *)
let quantile xs p =
  match sorted xs with
  | [||] -> nan
  | [| x |] -> x
  | a ->
    let n = Array.length a in
    let h = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (floor h))) in
    let delta = h -. float_of_int j in
    a.(j - 1) +. (delta *. (a.(j) -. a.(j - 1)))

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The fastest of repeated timings of the same deterministic work: the
   repetition the host disturbed least. *)
let best xs = List.fold_left Float.min infinity xs

(* Interquartile range as a share of the median: the spread every
   ledger row carries. *)
let spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else (quantile xs 0.75 -. quantile xs 0.25) /. m

(* Nearest-rank percentile over a latency sample; [beyond] is how many
   samples lie strictly above the rank, which must be at least ten for
   the percentile to be reported as supported. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
    (a.(rank - 1), n - rank)

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* Peak resident set of a process, from /proc/<pid>/status, in kB. *)
let vmhwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Domain.recommended_domain_count ()
  | ic ->
    let rec count n =
      match input_line ic with
      | exception End_of_file -> n
      | l when String.length l >= 9 && String.sub l 0 9 = "processor" ->
        count (n + 1)
      | _ -> count n
    in
    let n = count 0 in
    close_in ic;
    max 1 n

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* ---- JSON out --------------------------------------------------------- *)

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

(* Floats print with all their digits (%.17g round-trips); non-finite
   values have no JSON spelling and become null. *)
let rec to_string = function
  | J.Null -> "null"
  | J.Bool b -> string_of_bool b
  | J.Int i -> string_of_int i
  | J.Float f when Float.is_finite f ->
    let s = Printf.sprintf "%.17g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | J.Float _ -> "null"
  | J.Str s -> "\"" ^ escape s ^ "\""
  | J.Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | J.Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
    ^ "}"
