(* The serving layer: content-address goldens, the wire protocol, and
   the two-tier cache's behavioural contract.

   The digest goldens are the canary for the whole key scheme — they
   pin hash(scheme version, device name, canonical source) for every
   built-in kernel, so any drift in Parser.canonical_source, in the
   scheme version, or in device naming fails here by name instead of
   silently cold-starting every deployed cache. When a change to the
   canonical rendering is *intentional*, bump Cache.scheme_version and
   re-pin. *)

module Protocol = Srfa_server.Protocol
module Cache = Srfa_server.Cache
module Kernels = Srfa_kernels.Kernels
module Parser = Srfa_frontend.Parser
module Device = Srfa_hw.Device
module Trace = Srfa_util.Trace
module Diag = Srfa_util.Diag

(* ---- golden digests ---------------------------------------------------- *)

let golden_digests =
  [
    ("example", "6416c81cf187f60ec66c3438e7b2b827");
    ("fir", "58ae9f54c0f9e1d0ef29c8421f286934");
    ("dec-fir", "9080bf02051a2f97e9df5d6976ed5d74");
    ("imi", "bc5fffca83a4f77feb66bdd70753b3b7");
    ("mat", "13c783479aaa3759f70a49855f75a7de");
    ("pat", "c7ea5f6dee49929081e86f3e325ba9db");
    ("bic", "6723dee16facf5c14ddc200d9b992397");
  ]

let test_golden_digests () =
  let nests = ("example", Kernels.example ()) :: Kernels.all () in
  Alcotest.(check int)
    "every kernel has a pinned digest" (List.length nests)
    (List.length golden_digests);
  List.iter
    (fun (name, nest) ->
      let source = Parser.canonical_source nest in
      let key = Cache.tier1_key ~device:Device.xcv1000 source in
      Alcotest.(check string)
        (Printf.sprintf "tier-1 digest of %s" name)
        (List.assoc name golden_digests)
        key)
    nests

let test_key_sensitivity () =
  let source = Parser.canonical_source (Kernels.example ()) in
  let k1 = Cache.tier1_key ~device:Device.xcv1000 source in
  let k2 = Cache.tier1_key ~device:Device.xc2v6000 source in
  Alcotest.(check bool) "device is key material" false (k1 = k2);
  let t2 a b cwl =
    Cache.tier2_key ~tier1:k1 ~algorithm:a ~budget:b ~cut_work_limit:cwl
  in
  let base = t2 Srfa_core.Allocator.Cpa_ra 64 None in
  Alcotest.(check bool)
    "algorithm is key material" false
    (base = t2 Srfa_core.Allocator.Fr_ra 64 None);
  Alcotest.(check bool)
    "budget is key material" false
    (base = t2 Srfa_core.Allocator.Cpa_ra 32 None);
  Alcotest.(check bool)
    "guard override is key material" false
    (base = t2 Srfa_core.Allocator.Cpa_ra 64 (Some 1));
  Alcotest.(check string)
    "keys are deterministic" base
    (t2 Srfa_core.Allocator.Cpa_ra 64 None)

(* Formatting must never fragment the cache: a re-rendered kernel hashes
   to the same address as the original. *)
let test_canonical_stability () =
  List.iter
    (fun (name, nest) ->
      let once = Parser.canonical_source nest in
      match Parser.parse_result once with
      | Error _ -> Alcotest.failf "%s: canonical source does not re-parse" name
      | Ok reparsed ->
        Alcotest.(check string)
          (Printf.sprintf "%s round-trips" name)
          once
          (Parser.canonical_source reparsed))
    (("example", Kernels.example ()) :: Kernels.all ())

(* ---- protocol ---------------------------------------------------------- *)

let test_parse_request () =
  (match
     Protocol.parse_request
       {|{"id": "r1", "kernel": "fir", "budget": 32, "algorithm": "cpa-ra+", "device": "xc2v6000", "cut_work_limit": 9}|}
   with
  | Ok r ->
    Alcotest.(check (option string)) "id" (Some "r1") r.Protocol.id;
    Alcotest.(check bool) "op" true (r.Protocol.op = Protocol.Allocate);
    Alcotest.(check bool)
      "kernel" true
      (r.Protocol.kernel = Some (Protocol.Named "fir"));
    Alcotest.(check (option int)) "budget" (Some 32) r.Protocol.budget;
    Alcotest.(check (option string))
      "algorithm" (Some "cpa-ra+") r.Protocol.algorithm;
    Alcotest.(check (option int)) "cwl" (Some 9) r.Protocol.cut_work_limit
  | Error d -> Alcotest.failf "unexpected error: %s" (Diag.to_json d));
  let code line =
    match Protocol.parse_request line with
    | Error d -> d.Diag.code
    | Ok _ -> "(ok)"
  in
  Alcotest.(check string) "malformed JSON" "E-PROTO-001" (code "{nope");
  Alcotest.(check string) "non-object" "E-PROTO-001" (code "[1, 2]");
  Alcotest.(check string)
    "bad field type" "E-PROTO-002"
    (code {|{"kernel": 3}|});
  Alcotest.(check string)
    "unknown op" "E-PROTO-002"
    (code {|{"op": "dance"}|});
  Alcotest.(check string)
    "kernel and source" "E-PROTO-002"
    (code {|{"kernel": "fir", "source": "x"}|});
  Alcotest.(check string)
    "allocate without kernel" "E-PROTO-002"
    (code {|{"budget": 8}|});
  (match Protocol.parse_request {|{"op": "stats"}|} with
  | Ok r -> Alcotest.(check bool) "stats op" true (r.Protocol.op = Protocol.Stats)
  | Error _ -> Alcotest.fail "stats request rejected");
  (match
     Protocol.parse_request
       {|{"op": "rebudget", "kernel": "fir", "budget": 24, "stream": "s1"}|}
   with
  | Ok r ->
    Alcotest.(check bool) "rebudget op" true (r.Protocol.op = Protocol.Rebudget);
    Alcotest.(check (option int)) "rebudget target" (Some 24) r.Protocol.budget;
    Alcotest.(check (option string)) "stream" (Some "s1") r.Protocol.stream
  | Error d -> Alcotest.failf "rebudget request rejected: %s" (Diag.to_json d));
  (* A rebudget request is an event against a live stream: both the
     kernel identity and the budget target are mandatory at parse time. *)
  Alcotest.(check string)
    "rebudget without budget" "E-PROTO-002"
    (code {|{"op": "rebudget", "kernel": "fir"}|});
  Alcotest.(check string)
    "rebudget without kernel" "E-PROTO-002"
    (code {|{"op": "rebudget", "budget": 8}|})

let test_recover_id () =
  let rid = Protocol.recover_id in
  Alcotest.(check (option string))
    "well-formed line" (Some "r1")
    (rid {|{"id": "r1", "kernel": "fir"}|});
  Alcotest.(check (option string))
    "truncated after id" (Some "r2")
    (rid {|{"id": "r2", "kernel": "fi|});
  Alcotest.(check (option string))
    "malformed value field" (Some "r3")
    (rid {|{"id": "r3", "budget": }|});
  Alcotest.(check (option string))
    "id later in the line" (Some "r4")
    (rid {|{"kernel": "fir", "id": "r4"|});
  Alcotest.(check (option string))
    "escaped quote inside id" (Some {|a"b|})
    (rid {|{"id": "a\"b", ...|});
  Alcotest.(check (option string)) "no id" None (rid {|{"kernel": "fir"}|});
  Alcotest.(check (option string)) "not json at all" None (rid "hello world");
  Alcotest.(check (option string))
    "id cut before the value" None (rid {|{"id": |});
  (* The scanner reads complete string tokens, so a string *value*
     spelling "id" cannot shadow the real key later in the line... *)
  Alcotest.(check (option string))
    "value spelling id does not shadow the key" (Some "r5")
    (rid {|{"note": "id", "id": "r5", "budget": }|});
  (* ...and neither can an escaped-quote value that merely contains a
     quoted "id" in its decoded spelling. *)
  Alcotest.(check (option string))
    "escaped fake key inside a value" (Some "r6")
    (rid {|{"x": "\"id\":", "id": "r6", oops|});
  (* Full escape decoding, \u included (U+00E9 as UTF-8). *)
  Alcotest.(check (option string))
    "unicode escapes decode" (Some "caf\xc3\xa9")
    (rid {|{"id": "caf\u00e9", "budget": }|});
  Alcotest.(check (option string))
    "non-string id value" None
    (rid {|{"id": 7, "kernel": "fir"|});
  Alcotest.(check (option string))
    "id truncated mid-value" None (rid {|{"id": "ab|})

let test_deadline_field () =
  (match Protocol.parse_request {|{"kernel": "fir", "deadline_ms": 250}|} with
  | Ok r -> Alcotest.(check (option int)) "deadline" (Some 250) r.Protocol.deadline_ms
  | Error _ -> Alcotest.fail "deadline_ms rejected");
  match Protocol.parse_request {|{"kernel": "fir", "deadline_ms": "soon"}|} with
  | Error d -> Alcotest.(check string) "typed" "E-PROTO-002" d.Diag.code
  | Ok _ -> Alcotest.fail "non-integer deadline accepted"

let test_resilience_diags () =
  Alcotest.(check string)
    "abuse code" "E-PROTO-003"
    (Protocol.abuse_error "too big").Diag.code;
  let d = Protocol.deadline_error ~deadline_ms:10 ~elapsed_ms:25 in
  Alcotest.(check string) "deadline code" "E-DEADLINE" d.Diag.code;
  Alcotest.(check (option string))
    "deadline context" (Some "10")
    (List.assoc_opt "deadline_ms" d.Diag.context);
  let o = Protocol.overload_error ~retry_after_ms:50 in
  Alcotest.(check string) "overload code" "E-OVERLOAD" o.Diag.code;
  Alcotest.(check (option string))
    "retry hint" (Some "50")
    (List.assoc_opt "retry_after_ms" o.Diag.context)

(* ---- fault registry ----------------------------------------------------- *)

module Fault = Srfa_util.Fault

let test_fault_registry () =
  Alcotest.(check bool) "off is disabled" false (Fault.enabled Fault.off);
  Alcotest.(check bool) "off never fires" true
    (Fault.check Fault.off "io.read" = None);
  Alcotest.(check bool) "empty plan is off" true
    (match Fault.parse "" with Ok f -> not (Fault.enabled f) | Error _ -> false);
  (match Fault.parse ~seed:7 "io.read:short-read@0.5,pool.job:delay:3@1" with
  | Error msg -> Alcotest.failf "plan rejected: %s" msg
  | Ok f ->
    Alcotest.(check bool) "plan enables" true (Fault.enabled f);
    Alcotest.(check bool)
      "delay fires every time" true
      (Fault.check f "pool.job" = Some (Fault.Delay 3));
    Alcotest.(check bool)
      "unknown site never fires" true
      (Fault.check f "cache.insert" = None);
    (* Determinism: the same plan + seed replays the same fire/skip
       sequence, whatever happened on other sites in between. *)
    let draw g = List.init 64 (fun _ -> Fault.check g "io.read" <> None) in
    let a = draw f in
    let same =
      match Fault.parse ~seed:7 "io.read:short-read@0.5,pool.job:delay:3@1" with
      | Ok g -> draw g
      | Error _ -> []
    in
    Alcotest.(check bool) "seeded stream replays" true (a = same);
    Alcotest.(check bool) "some draws fire" true (List.mem true a);
    Alcotest.(check bool) "some draws skip" true (List.mem false a);
    Alcotest.(check bool) "fires were counted" true (Fault.injected f > 0));
  let rejected plan =
    match Fault.parse plan with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "unknown site rejected" true (rejected "disk.spin:error@0.5");
  Alcotest.(check bool) "bad rate rejected" true (rejected "io.read:error@1.5");
  Alcotest.(check bool) "missing rate rejected" true (rejected "io.read:error");
  Alcotest.(check bool) "bad action rejected" true (rejected "io.read:explode@0.5")

let test_json_reader () =
  let open Protocol in
  Alcotest.(check bool)
    "nested values" true
    (parse_json {|{"a": [1, -2.5, true, null], "b": {"c": "d\ne"}}|}
    = Obj
        [
          ("a", Arr [ Int 1; Float (-2.5); Bool true; Null ]);
          ("b", Obj [ ("c", Str "d\ne") ]);
        ]);
  Alcotest.(check bool)
    "unicode escape" true
    (parse_json "\"\\u00e9\"" = Str "\xc3\xa9");
  let malformed s =
    match parse_json s with exception Malformed _ -> true | _ -> false
  in
  Alcotest.(check bool) "trailing garbage" true (malformed {|{} {}|});
  Alcotest.(check bool) "bare word" true (malformed "hello");
  Alcotest.(check bool) "unterminated" true (malformed {|{"a": "b|})

(* ---- cache ------------------------------------------------------------- *)

let resolve_exn line =
  match Protocol.parse_request line with
  | Error d -> Alcotest.failf "request: %s" (Diag.to_json d)
  | Ok req -> (
    match Cache.resolve req with
    | Ok r -> r
    | Error ds ->
      Alcotest.failf "resolve: %s" (String.concat "; " (List.map Diag.to_json ds)))

let respond_exn cache r =
  match Cache.respond cache r with
  | Ok v -> v
  | Error ds ->
    Alcotest.failf "respond: %s" (String.concat "; " (List.map Diag.to_json ds))

(* A cache whose every insert is faulted still answers correctly — it
   just recomputes. Injection must never change an answer, only cost. *)
let test_fault_cache_insert () =
  let faults =
    match Fault.parse "cache.insert:error@1" with
    | Ok f -> f
    | Error msg -> Alcotest.failf "plan: %s" msg
  in
  let trace, events = Trace.collector () in
  let cache = Cache.create ~faults ~trace () in
  let r = resolve_exn {|{"kernel": "fir", "budget": 64}|} in
  let report1, _, s1 = respond_exn cache r in
  let report2, _, s2 = respond_exn cache r in
  Alcotest.(check bool) "inserts all fail" true (s1 = `Miss && s2 = `Miss);
  Alcotest.(check string)
    "recomputed report identical"
    (Protocol.json_of_report report1)
    (Protocol.json_of_report report2);
  let stats = Cache.stats cache in
  Alcotest.(check int) "nothing resident" 0
    (List.assoc "tier1_entries" stats + List.assoc "tier2_entries" stats);
  (* Each skipped insert is traced with its tier and key. *)
  let t1 = Cache.tier1_key ~device:r.Cache.device r.Cache.source in
  Alcotest.(check (option string))
    "fault.cache.insert fields"
    (Some
       ({|{"event": "fault.cache.insert", "tier": 1, "key": "|} ^ t1 ^ {|"}|}))
    (Option.map Trace.to_json
       (List.find_opt
          (fun (e : Trace.event) -> e.Trace.name = "fault.cache.insert")
          (events ())))

(* The IO-shell seam: reports are plain values the shell renders without
   mutating, so a repeated request is answered with the physically same
   report — no copy, no re-render, no per-request state. *)
let test_physical_hit () =
  let cache = Cache.create () in
  let r = resolve_exn {|{"kernel": "fir", "budget": 64}|} in
  let report1, _, status1 = respond_exn cache r in
  let report2, _, status2 = respond_exn cache r in
  Alcotest.(check bool) "first is a miss" true (status1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (status2 = `Hit);
  Alcotest.(check bool)
    "hit is physically the cached report" true (report1 == report2)

let test_analysis_reuse () =
  let cache = Cache.create () in
  let point budget =
    resolve_exn (Printf.sprintf {|{"kernel": "mat", "budget": %d}|} budget)
  in
  let _, _, s1 = respond_exn cache (point 64) in
  let _, _, s2 = respond_exn cache (point 32) in
  let _, _, s3 = respond_exn cache (point 16) in
  Alcotest.(check bool) "first budget is cold" true (s1 = `Miss);
  Alcotest.(check bool)
    "budget ladder reuses the analysis" true
    (s2 = `Analysis && s3 = `Analysis);
  let stats = Cache.stats cache in
  (* The stats schema: every key, in order. *)
  let tier name =
    List.map (( ^ ) name)
      [ "_entries"; "_bytes"; "_hits"; "_misses"; "_evictions" ]
  in
  Alcotest.(check (list string))
    "stats keys"
    (("served" :: tier "tier1") @ tier "tier2"
    @ [ "sessions"; "session_hits"; "session_misses"; "session_evictions" ]
    @ tier "explore")
    (List.map fst stats);
  Alcotest.(check int) "one tier-1 build" 1 (List.assoc "tier1_entries" stats);
  Alcotest.(check int) "three reports" 3 (List.assoc "tier2_entries" stats)

let test_guard_warning_passthrough () =
  let cache = Cache.create () in
  let r = resolve_exn {|{"kernel": "bic", "cut_work_limit": 1}|} in
  let _, warnings, _ = respond_exn cache r in
  Alcotest.(check bool)
    "starved cut guard surfaces W-GUARD-CUT" true
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "W-GUARD-CUT") warnings);
  (* ... and the warnings ride the cache with the report. *)
  let _, warnings2, status2 = respond_exn cache r in
  Alcotest.(check bool) "warned report still cached" true (status2 = `Hit);
  Alcotest.(check bool)
    "warnings physically cached too" true (warnings == warnings2)

let test_errors_not_cached () =
  let cache = Cache.create () in
  let r = resolve_exn {|{"kernel": "fir", "budget": 1}|} in
  (match Cache.respond cache r with
  | Ok _ -> Alcotest.fail "budget 1 should be infeasible"
  | Error ds ->
    Alcotest.(check bool)
      "coded E-BUDGET-001" true
      (List.exists (fun (d : Diag.t) -> d.Diag.code = "E-BUDGET-001") ds));
  let stats = Cache.stats cache in
  Alcotest.(check int) "no report cached" 0 (List.assoc "tier2_entries" stats);
  (* The analysis *is* budget-independent, so tier 1 keeps its entry and
     a feasible retry pays only for allocation. *)
  let _, _, status = respond_exn cache (resolve_exn {|{"kernel": "fir"}|}) in
  Alcotest.(check bool) "analysis survives the error" true (status = `Analysis)

let test_eviction_events () =
  let point budget =
    resolve_exn (Printf.sprintf {|{"kernel": "fir", "budget": %d}|} budget)
  in
  (* Calibrate: measure what one cached report actually costs, then
     budget tier 2 for one and a half of them — every further insert
     must evict its predecessor. *)
  let probe = Cache.create () in
  ignore (respond_exn probe (point 64));
  let one_report = List.assoc "tier2_bytes" (Cache.stats probe) in
  Alcotest.(check bool) "probe cost is positive" true (one_report > 0);
  let sink, events = Trace.collector () in
  let cache = Cache.create ~tier2_bytes:(one_report * 3 / 2) ~trace:sink () in
  List.iter (fun b -> ignore (respond_exn cache (point b))) [ 8; 16; 32; 64 ];
  let named name =
    List.filter (fun (e : Trace.event) -> e.Trace.name = name) (events ())
  in
  Alcotest.(check bool)
    "evictions were announced" true
    (List.length (named "cache.evict") >= 3);
  Alcotest.(check int) "four tier-2 misses" 4
    (List.length
       (List.filter
          (fun (e : Trace.event) ->
            List.assoc_opt "tier" e.Trace.fields = Some (Trace.Int 2))
          (named "cache.miss")));
  Alcotest.(check bool)
    "evict events carry tier and key" true
    (List.for_all
       (fun (e : Trace.event) ->
         List.mem_assoc "tier" e.Trace.fields
         && List.mem_assoc "key" e.Trace.fields)
       (named "cache.evict"));
  Alcotest.(check int)
    "tier 2 stayed within budget, keeping at most the newest" 1
    (List.assoc "tier2_entries" (Cache.stats cache))

let test_resolve_errors () =
  let code line =
    match Cache.resolve (Result.get_ok (Protocol.parse_request line)) with
    | Error ((d : Diag.t) :: _) -> d.Diag.code
    | Error [] -> "(empty)"
    | Ok _ -> "(ok)"
  in
  Alcotest.(check string)
    "unknown kernel" "E-PROTO-002"
    (code {|{"kernel": "quux"}|});
  Alcotest.(check string)
    "unknown device" "E-PROTO-002"
    (code {|{"kernel": "fir", "device": "asic"}|});
  Alcotest.(check string)
    "unknown algorithm" "E-PROTO-002"
    (code {|{"kernel": "fir", "algorithm": "magic"}|});
  Alcotest.(check string)
    "source parse error" "E-PARSE-001"
    (code {|{"source": "kernel oops {"}|});
  (* Inline source and the named kernel content-address identically. *)
  let named = resolve_exn {|{"kernel": "example"}|} in
  let inline =
    resolve_exn
      (Printf.sprintf {|{"source": "%s"}|}
         (String.concat "\\n"
            (String.split_on_char '\n'
               (Parser.canonical_source (Kernels.example ())))))
  in
  Alcotest.(check string)
    "inline source hashes like the named kernel"
    (Cache.tier1_key ~device:named.Cache.device named.Cache.source)
    (Cache.tier1_key ~device:inline.Cache.device inline.Cache.source)

(* The session store's behavioural contract (DESIGN.md §16): first touch
   is a cold bootstrap, later events hit the live session, a revisited
   budget is served from the session memo, and distinct streams get
   distinct sessions over the shared tier-1 analysis. *)
let test_rebudget_sessions () =
  let module F = Srfa_core.Flow.Core in
  let cache = Cache.create () in
  let step ?(stream = "s") budget =
    let r =
      resolve_exn
        (Printf.sprintf {|{"op": "rebudget", "kernel": "fir", "budget": %d}|}
           budget)
    in
    match Cache.rebudget cache r ~stream with
    | Ok (step, status) -> (step, status)
    | Error ds ->
      Alcotest.failf "rebudget: %s" (String.concat "; " (List.map Diag.to_json ds))
  in
  let s1, st1 = step 32 in
  Alcotest.(check bool) "cold bootstrap is a miss" true (st1 = `Miss);
  Alcotest.(check bool) "bootstrap is not memoized" false s1.F.memoized;
  let s2, st2 = step 8 in
  Alcotest.(check bool) "second event hits the session" true (st2 = `Hit);
  Alcotest.(check bool) "shrink reclaims registers" true (s2.F.freed > 0);
  let s3, st3 = step 32 in
  Alcotest.(check bool) "revisit still hits" true (st3 = `Hit);
  Alcotest.(check bool) "revisit is memoized" true s3.F.memoized;
  Alcotest.(check bool)
    "memo serves the physically same report" true (s1.F.report == s3.F.report);
  let _, st4 = step ~stream:"other" 16 in
  Alcotest.(check bool)
    "a new stream reuses only the analysis" true (st4 = `Analysis);
  let stats = Cache.stats cache in
  Alcotest.(check int) "two live sessions" 2 (List.assoc "sessions" stats);
  Alcotest.(check bool)
    "session hits counted" true (List.assoc "session_hits" stats >= 2);
  (* Sessions never leak into the allocate report tier. *)
  Alcotest.(check int) "tier 2 untouched" 0 (List.assoc "tier2_entries" stats)

(* ---- live daemon ------------------------------------------------------- *)

(* The two resilience paths the self-test cannot probe in isolation:
   a client that vanishes mid-batch must not cost anyone else their
   answer, and an oversized line must be answered (E-PROTO-003, id
   recovered) before the drop — in both cases with the daemon provably
   alive afterwards. *)

module Harness = Srfa_test_helpers.Serve_harness
module Client = Harness.Client

let str_member = Harness.str_member
let rpc c line = Srfa_util.Json.parse (Client.rpc c line)

let test_disconnect_mid_batch () =
  Harness.with_daemon "disc" (fun socket ->
      (* A sends a cold request and hangs up before the answer exists. *)
      let a = Client.connect socket in
      Client.send a {|{"id": "gone", "kernel": "mat", "budget": 24}|};
      Client.close a;
      (* B, on its own connection, is served normally regardless. *)
      let b = Client.connect socket in
      let rb = rpc b {|{"id": "b1", "kernel": "fir", "budget": 64}|} in
      Alcotest.(check (option string))
        "b answered ok" (Some "ok") (str_member "status" rb);
      Alcotest.(check (option string))
        "b correlated" (Some "b1") (str_member "id" rb);
      Client.close b;
      (* Replaying the abandoned request still yields a full answer —
         the daemon neither crashed on the dead fd nor poisoned the
         cache entry A never read. *)
      let c = Client.connect socket in
      let rc = rpc c {|{"id": "r", "kernel": "mat", "budget": 24}|} in
      Alcotest.(check (option string))
        "abandoned request replays clean" (Some "ok") (str_member "status" rc);
      Client.close c)

let test_oversized_request () =
  Harness.with_daemon ~max_buffer:256 ~read_timeout_ms:5_000 "big"
    (fun socket ->
      let c = Client.connect socket in
      let junk = {|{"id": "big", "pad": "|} ^ String.make 1024 'x' in
      let n = Unix.write_substring c.Client.fd junk 0 (String.length junk) in
      Alcotest.(check int) "junk fully written" (String.length junk) n;
      (match Client.recv_opt c with
      | Some line ->
        let r = Srfa_util.Json.parse line in
        Alcotest.(check (option string))
          "abuse is an error response" (Some "error") (str_member "status" r);
        Alcotest.(check bool) "coded E-PROTO-003" true
          (Harness.has_code "E-PROTO-003" r);
        Alcotest.(check (option string))
          "id recovered from the junk" (Some "big") (str_member "id" r)
      | None -> Alcotest.fail "dropped without the E-PROTO-003 response");
      Alcotest.(check (option string))
        "then the connection is dropped" None (Client.recv_opt c);
      Client.close c;
      (* The daemon is unharmed: a well-formed client still gets served. *)
      let d = Client.connect socket in
      let rd = rpc d {|{"kernel": "fir", "budget": 64}|} in
      Alcotest.(check (option string))
        "daemon survives the abuse" (Some "ok") (str_member "status" rd);
      Client.close d)

let () =
  Alcotest.run "serve"
    [
      ( "goldens",
        [
          Alcotest.test_case "kernel digests" `Quick test_golden_digests;
          Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
          Alcotest.test_case "canonical stability" `Quick
            test_canonical_stability;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse_request" `Quick test_parse_request;
          Alcotest.test_case "json reader" `Quick test_json_reader;
          Alcotest.test_case "recover_id" `Quick test_recover_id;
          Alcotest.test_case "deadline field" `Quick test_deadline_field;
          Alcotest.test_case "resilience diags" `Quick test_resilience_diags;
        ] );
      ( "faults",
        [
          Alcotest.test_case "registry" `Quick test_fault_registry;
          Alcotest.test_case "cache insert faulted" `Quick
            test_fault_cache_insert;
        ] );
      ( "cache",
        [
          Alcotest.test_case "physical hit" `Quick test_physical_hit;
          Alcotest.test_case "analysis reuse" `Quick test_analysis_reuse;
          Alcotest.test_case "guard warning passthrough" `Quick
            test_guard_warning_passthrough;
          Alcotest.test_case "errors not cached" `Quick test_errors_not_cached;
          Alcotest.test_case "eviction events" `Quick test_eviction_events;
          Alcotest.test_case "resolve errors" `Quick test_resolve_errors;
          Alcotest.test_case "rebudget sessions" `Quick test_rebudget_sessions;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "disconnect mid-batch" `Quick
            test_disconnect_mid_batch;
          Alcotest.test_case "oversized request" `Quick test_oversized_request;
        ] );
    ]
