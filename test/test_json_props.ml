(* Srfa_util.Json on its own: the \u decoder (surrogate pairs, exactly
   four hex digits, unpaired surrogates rejected — shared by the request
   reader and Protocol.recover_id), the printer's number and escape
   spellings, and seeded QCheck properties: print-then-parse is the
   identity on trees, and no input — arbitrary bytes or mutated
   requests — makes the reader raise anything but Malformed. *)

module Json = Srfa_util.Json
module Protocol = Srfa_server.Protocol
module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace

let grinning = "\xf0\x9f\x98\x80" (* U+1F600 in UTF-8 *)

let parses_to what s v =
  Alcotest.(check bool) what true (Json.parse s = v)

let malformed what s =
  Alcotest.(check bool)
    what true
    (match Json.parse s with exception Json.Malformed _ -> true | _ -> false)

(* ---- decoder ------------------------------------------------------------ *)

let test_surrogate_pairs () =
  parses_to "pair decodes to 4-byte UTF-8" {|"\ud83d\ude00"|} (Str grinning);
  parses_to "upper-case hex" {|"\uD83D\uDE00"|} (Str grinning);
  parses_to "last code point" {|"\udbff\udfff"|} (Str "\xf4\x8f\xbf\xbf");
  parses_to "pair between text" {|"a\ud83d\ude00b"|}
    (Str ("a" ^ grinning ^ "b"));
  parses_to "BMP escapes unchanged" {|"\u00e9\u20ac\u0000"|}
    (Str "\xc3\xa9\xe2\x82\xac\x00")

let test_hex_digits () =
  malformed "underscore in the digits" {|"\u0_1f"|};
  malformed "non-hex digit" {|"\u01fg"|};
  malformed "sign in the digits" {|"\u+01f"|};
  malformed "three digits then the quote" {|"\u01f"|};
  malformed "truncated at end of input" {|"\u01|}

let test_lone_surrogates () =
  malformed "high surrogate before the quote" {|"\ud83d"|};
  malformed "high surrogate at end of input" {|"\ud83d|};
  malformed "high surrogate then text" {|"\ud83dx"|};
  malformed "high surrogate then a BMP escape" {|"\ud83dA"|};
  malformed "two high surrogates" {|"\ud83d\ud83d"|};
  malformed "low surrogate alone" {|"\ude00"|};
  match Json.parse {|"\ude00"|} with
  | exception Json.Malformed msg ->
    Alcotest.(check bool)
      "message names the surrogate" true
      (Srfa_test_helpers.Helpers.contains_substring msg "surrogate")
  | _ -> Alcotest.fail "lone low surrogate accepted"

let test_request_ids () =
  (match Protocol.parse_request {|{"id": "\ud83d\ude00", "op": "stats"}|} with
  | Ok r ->
    Alcotest.(check (option string)) "id decoded" (Some grinning) r.Protocol.id;
    Alcotest.(check string)
      "echoed as valid UTF-8"
      ({|{"id": "|} ^ grinning ^ {|", "status": "error", "diagnostics": []}|})
      (Protocol.response_error ?id:r.Protocol.id [])
  | Error d -> Alcotest.failf "rejected: %s" (Diag.to_json d));
  (match Protocol.parse_request {|{"id": "\ud83d", "op": "stats"}|} with
  | Error d -> Alcotest.(check string) "lone surrogate" "E-PROTO-001" d.Diag.code
  | Ok _ -> Alcotest.fail "lone surrogate id accepted");
  (* recover_id reads tokens with the same decoder. *)
  let rid = Protocol.recover_id in
  Alcotest.(check (option string))
    "recover_id: pair" (Some grinning)
    (rid {|{"id": "\ud83d\ude00", "budget": }|});
  Alcotest.(check (option string))
    "recover_id: four hex digits" None
    (rid {|{"id": "\u0_1f", "budget": }|});
  Alcotest.(check (option string))
    "recover_id: lone surrogate" None
    (rid {|{"id": "\ude00", "budget": }|})

let test_string_token () =
  Alcotest.(check (pair string int))
    "contents and next index" ("a\"b", 8)
    (Json.string_token {|x "a\"b" y|} 2);
  Alcotest.(check bool)
    "no quote at the index" true
    (match Json.string_token "abc" 1 with
    | exception Json.Malformed _ -> true
    | _ -> false)

(* ---- printer ------------------------------------------------------------ *)

let test_numbers () =
  let p v = Json.to_string v in
  Alcotest.(check string) "1.5" "1.5" (p (Float 1.5));
  Alcotest.(check string) "integral float keeps .0" "3.0" (p (Float 3.0));
  Alcotest.(check string) "negative zero" "-0.0" (p (Float (-0.)));
  Alcotest.(check string) "0.1" "0.1" (p (Float 0.1));
  Alcotest.(check string) "a third" "0.3333333333333333" (p (Float (1. /. 3.)));
  Alcotest.(check string) "exponent" "1e+22" (p (Float 1e22));
  Alcotest.(check string) "nan" "null" (p (Float nan));
  Alcotest.(check string) "infinity" "[null]" (p (Arr [ Float infinity ]));
  Alcotest.(check string) "int" "-42" (p (Int (-42)));
  Alcotest.(check string)
    "fixed joiner" {|{"a": 1.500, "b": [1], "c": {}}|}
    (Json.render
       (Json.obj
          [
            ("a", Json.fixed 3 1.5);
            ("b", Json.raw "[1]");
            ("c", Json.value (Obj []));
          ]))

let test_escapes () =
  Alcotest.(check string)
    "escaper"
    "\"q\\\" b\\\\ n\\n t\\t cr\\u000d nul\\u0000 del\x7f \xc3\xa9\""
    (Json.to_string (Str "q\" b\\ n\n t\t cr\r nul\x00 del\x7f \xc3\xa9"));
  (* Trace events print through the same escaper: CR is \u000d. *)
  Alcotest.(check string)
    "trace event" {|{"event": "e", "s": "a\u000db", "l": [1, true]}|}
    (Trace.to_json
       (Trace.event "e"
          [ ("s", Trace.String "a\rb"); ("l", Trace.List [ Int 1; Bool true ]) ]))

(* ---- properties --------------------------------------------------------- *)

let gen_string =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, map (String.make 1) (char_range 'a' 'z'));
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_range 0 0x1f));
        (1, oneofl [ "\""; "\\"; "/"; " "; "\x7f" ]);
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xce\xbb"; grinning ]);
      ]
  in
  map (String.concat "") (list_size (int_bound 10) piece)

let gen_float =
  let open QCheck.Gen in
  frequency
    [
      (3, map float_of_int (int_range (-100_000) 100_000));
      (3, map (fun f -> if Float.is_finite f then f else 0.5) float);
      ( 1,
        oneofl
          [ 0.1; 1e300; -1e-300; 5e-324; max_float; min_float; 1e15; 1e16;
            123456789012345678.; -0. ] );
    ]

let gen_tree =
  let open QCheck.Gen in
  let leaf : Json.t t =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) int);
        (3, map (fun f -> Json.Float f) gen_float);
        (3, map (fun s -> Json.Str s) gen_string);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.Arr l)
                   (list_size (int_bound 4) (self (n / 3))) );
               ( 1,
                 map (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair gen_string (self (n / 3))))
               );
             ])

let prop_roundtrip =
  QCheck.Test.make ~name:"print then parse is the identity" ~count:1000
    (QCheck.make ~print:Json.to_string gen_tree)
    (fun v -> Json.parse (Json.to_string v) = v)

(* The reader's contract on hostile input: a value or Malformed from
   Json.parse; Ok or an E-PROTO-* diagnostic from parse_request;
   recover_id answers. Any other exception fails the property. *)
let total line =
  (match Json.parse line with _ -> () | exception Json.Malformed _ -> ());
  ignore (Protocol.recover_id line);
  match Protocol.parse_request line with
  | Ok _ -> true
  | Error d -> String.starts_with ~prefix:"E-PROTO-" d.Diag.code

let gen_jsonish =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (2, map (String.make 1) char);
        ( 3,
          oneofl
            [ "{"; "}"; "["; "]"; "\""; "\\"; ":"; ","; " "; "\\u"; "d83d";
              "\\ude00"; "00e9"; "0_1f"; "1"; "-"; "."; "e"; "true"; "null";
              "\"id\""; "\"kernel\""; "\"fir\"" ] );
      ]
  in
  map (String.concat "") (list_size (int_bound 24) piece)

let prop_bytes =
  QCheck.Test.make ~name:"arbitrary bytes: value, Ok or Malformed only"
    ~count:2000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(oneof [ string; gen_jsonish ]))
    total

let valid_requests =
  [
    {|{"kernel": "fir", "budget": 16}|};
    {|{"id": "r1", "op": "rebudget", "kernel": "mat", "budget": 24, "stream": "s"}|};
    {|{"op": "explore", "kernel": "example", "orders": "all", "tiles": "2,4", "budgets": "8,16", "certify": true}|};
    {|{"id": "\ud83d\ude00 \u00e9", "kernel": "pat", "device": "xc2v6000", "deadline_ms": 50, "cut_work_limit": 9}|};
    {|{"op": "stats", "id": "s\"1"}|};
  ]

let gen_mutated =
  let open QCheck.Gen in
  let mutate s =
    let n = String.length s in
    let* i = int_bound (max 0 (n - 1)) in
    let* c = char in
    oneofl
      [
        String.sub s 0 i;
        String.sub s 0 i ^ String.sub s (min n (i + 1)) (n - min n (i + 1));
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.mapi (fun k x -> if k = i then c else x) s;
        String.sub s 0 i ^ String.sub s (i / 2) (n - (i / 2));
      ]
  in
  let* base = oneofl valid_requests in
  let* rounds = int_range 1 4 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go rounds base

let prop_mutations =
  QCheck.Test.make ~name:"mutated requests: Ok or E-PROTO-* only" ~count:2000
    (QCheck.make ~print:String.escaped gen_mutated)
    total

let () =
  let rand () = Random.State.make [| 42 |] in
  Alcotest.run "json"
    [
      ( "decoder",
        [
          Alcotest.test_case "surrogate pairs" `Quick test_surrogate_pairs;
          Alcotest.test_case "four hex digits" `Quick test_hex_digits;
          Alcotest.test_case "lone surrogates" `Quick test_lone_surrogates;
          Alcotest.test_case "request ids" `Quick test_request_ids;
          Alcotest.test_case "string_token" `Quick test_string_token;
        ] );
      ( "printer",
        [
          Alcotest.test_case "numbers and joiners" `Quick test_numbers;
          Alcotest.test_case "escapes" `Quick test_escapes;
        ] );
      ( "qcheck",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest ~rand:(rand ()) t)
          [ prop_roundtrip; prop_bytes; prop_mutations ] );
    ]
