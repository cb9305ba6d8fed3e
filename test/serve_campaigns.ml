(* The serve daemon's two end-to-end campaigns, each run against private
   daemons spawned in this process:

     serve_campaigns.exe --self-test
     serve_campaigns.exe --chaos [--seed N]

   Both print their progress and exit 0 iff every check held, 1
   otherwise. They are wired into `dune runtest` as @serve-smoke and
   @chaos-smoke (test/dune). *)

open Srfa_test_helpers.Serve_harness
module Fault = Srfa_util.Fault
module Prng = Srfa_util.Prng

(* ---- self-test ---------------------------------------------------------

   A scripted request mix covering the cold / analysis-reuse / hit paths,
   an inline parse error, a guard trip (W-GUARD-CUT via a cut_work_limit
   override), an infeasible budget, rebudget sessions, explore frontiers
   and the protocol error codes, with every response checked. Three
   further private daemons check the resilience layer: abuse caps /
   overload / deadlines, worker isolation under a 100% pool.job fault
   plan, and SIGTERM drain. *)

let self_test () =
  let failures = ref [] in
  let check name ok =
    print_endline
      (Printf.sprintf "self-test: %-32s %s" name (if ok then "ok" else "FAIL"));
    if not ok then failures := name :: !failures
  in
  let warning_code code json = List.mem code (codes "warnings" json) in
  with_daemon "serve" (fun socket ->
      let client = Client.connect socket in
      let response line = Json.parse (Client.rpc client line) in
      (* 1. cold allocate of a named kernel *)
      let r1 = response {|{"id": "c1", "kernel": "fir", "budget": 64}|} in
      check "fir cold is a miss"
        (str_member "status" r1 = Some "ok"
        && str_member "cache" r1 = Some "miss"
        && str_member "id" r1 = Some "c1");
      (* 2. identical request: tier-2 hit with the identical report *)
      let r2 = response {|{"id": "c2", "kernel": "fir", "budget": 64}|} in
      check "fir repeat is a hit" (str_member "cache" r2 = Some "hit");
      check "hit serves the same report"
        (Json.member "report" r1 = Json.member "report" r2);
      (* 3. same kernel, new budget: analysis tier reused *)
      let r3 = response {|{"kernel": "fir", "budget": 32}|} in
      check "budget ladder reuses analysis"
        (str_member "cache" r3 = Some "analysis");
      (* 4. inline source allocates like the named kernel *)
      let source =
        Srfa_frontend.Parser.canonical_source (Srfa_kernels.Kernels.example ())
      in
      let r4 =
        response
          (Printf.sprintf {|{"source": "%s", "algorithm": "cpa-ra+"}|}
             (String.concat "\\n" (String.split_on_char '\n' source)))
      in
      check "inline source allocates" (str_member "status" r4 = Some "ok");
      (* 5. a parse error comes back as an inline coded diagnostic *)
      let r5 = response {|{"id": "bad", "source": "kernel oops {"}|} in
      check "parse error is E-PARSE-001"
        (str_member "status" r5 = Some "error" && has_code "E-PARSE-001" r5);
      (* 6. unknown kernel name: protocol field error *)
      let r6 = response {|{"kernel": "no-such-kernel"}|} in
      check "unknown kernel is E-PROTO-002" (has_code "E-PROTO-002" r6);
      (* 7. malformed JSON: protocol error, id recovered from the wreckage *)
      let r7 = response "this is not json" in
      check "malformed line is E-PROTO-001" (has_code "E-PROTO-001" r7);
      let r7b = response {|{"id": "e1", "budget": }|} in
      check "recovered id is echoed"
        (has_code "E-PROTO-001" r7b && str_member "id" r7b = Some "e1");
      (* 8. guard trip: a starved cut budget degrades CPA-RA with
         W-GUARD-CUT *)
      let r8 = response {|{"kernel": "bic", "cut_work_limit": 1}|} in
      check "starved cut guard warns W-GUARD-CUT"
        (str_member "status" r8 = Some "ok" && warning_code "W-GUARD-CUT" r8);
      (* 9. infeasible budget: coded error, not a crash *)
      let r9 = response {|{"kernel": "fir", "budget": 1}|} in
      check "infeasible budget is E-BUDGET-001" (has_code "E-BUDGET-001" r9);
      (* 9b. rebudget: a live budget-event stream over the resident
         kernel. The bootstrap rides the tier-1 entry allocate already
         cached (analysis), later events answer incrementally from the
         session (hit), revisited budgets come from the session memo, and
         a starved target clamps with W-GUARD-REBUDGET instead of the
         E-BUDGET-001 an allocate gets. *)
      let rb_member key json =
        Option.bind (Json.member "rebudget" json) (Json.member key)
      in
      let r20 =
        response
          {|{"id": "rb1", "op": "rebudget", "kernel": "fir", "budget": 32}|}
      in
      check "rebudget bootstrap reuses the analysis"
        (str_member "status" r20 = Some "ok"
        && str_member "cache" r20 = Some "analysis"
        && str_member "id" r20 = Some "rb1"
        && rb_member "memoized" r20 = Some (Json.Bool false));
      let r21 = response {|{"op": "rebudget", "kernel": "fir", "budget": 8}|} in
      check "rebudget shrink answers incrementally"
        (str_member "cache" r21 = Some "hit"
        &&
        match rb_member "freed" r21 with
        | Some (Json.Int n) -> n > 0
        | _ -> false);
      let r22 = response {|{"op": "rebudget", "kernel": "fir", "budget": 32}|} in
      check "rebudget revisit is memoized"
        (str_member "cache" r22 = Some "hit"
        && rb_member "memoized" r22 = Some (Json.Bool true));
      let r23 = response {|{"op": "rebudget", "kernel": "fir", "budget": 1}|} in
      check "starved rebudget clamps with W-GUARD-REBUDGET"
        (str_member "status" r23 = Some "ok"
        && rb_member "clamped" r23 = Some (Json.Bool true)
        && warning_code "W-GUARD-REBUDGET" r23);
      let r24 =
        response
          {|{"op": "rebudget", "kernel": "fir", "budget": 16, "stream": "b"}|}
      in
      check "distinct stream opens its own session"
        (str_member "cache" r24 = Some "analysis");
      let r25 = response {|{"op": "rebudget", "kernel": "fir"}|} in
      check "rebudget without budget is E-PROTO-002"
        (has_code "E-PROTO-002" r25);
      (* 9c. explore: a design-space frontier, cold then from the frontier
         tier. The frontier member embeds real points; a repeat with
         differently formatted but canonically equal space fields must
         hit the same key. *)
      let frontier_points json =
        match
          Option.bind (Json.member "frontier" json) (Json.member "points")
        with
        | Some (Json.Arr ps) -> List.length ps
        | _ -> -1
      in
      let r26 =
        response
          {|{"id": "x1", "op": "explore", "kernel": "fir", "budgets": "8,16"}|}
      in
      check "explore cold is a miss with a frontier"
        (str_member "status" r26 = Some "ok"
        && str_member "cache" r26 = Some "miss"
        && str_member "id" r26 = Some "x1"
        && frontier_points r26 > 0);
      let r27 =
        response {|{"op": "explore", "kernel": "fir", "budgets": " 8 , 16 "}|}
      in
      check "canonically equal explore spec hits the frontier tier"
        (str_member "cache" r27 = Some "hit" && frontier_points r27 > 0);
      let r28 =
        response {|{"op": "explore", "kernel": "fir", "budgets": "8,16,32"}|}
      in
      check "different explore spec is its own entry"
        (str_member "cache" r28 = Some "miss");
      let r29 =
        response {|{"op": "explore", "kernel": "fir", "orders": "bogus"}|}
      in
      check "bad explore orders is E-PROTO-002" (has_code "E-PROTO-002" r29);
      (* 10. pipelined batch: two requests in one write, answered in
         order *)
      Client.send client {|{"id": "b1", "kernel": "mat", "budget": 16}|};
      Client.send client
        {|{"id": "b2", "kernel": "mat", "budget": 16, "algorithm": "fr-ra"}|};
      let rb1 = Json.parse (Client.recv client) in
      let rb2 = Json.parse (Client.recv client) in
      check "batched responses keep order"
        (str_member "id" rb1 = Some "b1" && str_member "id" rb2 = Some "b2");
      check "batched same-kernel requests share the analysis"
        (str_member "cache" rb1 = Some "miss"
        && str_member "cache" rb2 = Some "analysis");
      (* 11. stats reflect the mix *)
      let rs = response {|{"op": "stats"}|} in
      let stat key =
        match Option.bind (Json.member "stats" rs) (Json.member key) with
        | Some (Json.Int i) -> i
        | _ -> -1
      in
      check "stats count the hits"
        (stat "tier2_hits" >= 1 && stat "served" >= 8);
      check "stats expose the session store"
        (stat "sessions" >= 2 && stat "session_hits" >= 2);
      (* 12. shutdown *)
      let bye = response {|{"op": "shutdown"}|} in
      check "shutdown answers bye"
        (Json.member "bye" bye = Some (Json.Bool true));
      Client.close client);
  (* 13. abuse caps, overload shedding and deadlines, on a daemon with
     tight limits. *)
  with_daemon ~max_buffer:4096 ~max_inflight:2 ~read_timeout_ms:300
    "serve-limits" (fun socket ->
      (* c2 idles, empty-buffered, through 13b's 300 ms read timeout: a
         quiet connection is never reaped. It floods in 13c. *)
      let c2 = Client.connect socket in
      (* 13a. an endless unterminated line trips the buffer cap (written
         raw: no newline must ever arrive) *)
      let c3 = Client.connect socket in
      send_raw c3 ({|{"id": "big", "source": "|} ^ String.make 8192 'x');
      let r13 = Json.parse (Client.recv c3) in
      check "oversized line is E-PROTO-003"
        (has_code "E-PROTO-003" r13 && str_member "id" r13 = Some "big");
      check "abused connection is dropped" (Client.recv_opt c3 = None);
      Client.close c3;
      (* 13b. a half-written line times out *)
      let c4 = Client.connect socket in
      send_raw c4 {|{"id": "slow"|};
      let r14 = Json.parse (Client.recv c4) in
      check "half-written line is E-PROTO-003"
        (has_code "E-PROTO-003" r14 && str_member "id" r14 = Some "slow");
      Client.close c4;
      (* 13c. a pipelined flood of cold requests beyond the in-flight
         bound is shed with E-OVERLOAD, in order, one response per
         request. One write syscall so the whole flood lands in one
         select round. *)
      let flood = [ 17; 18; 19; 20; 21; 22 ] in
      send_raw c2
        (String.concat ""
           (List.map
              (fun b ->
                Printf.sprintf {|{"id": "f%d", "kernel": "fir", "budget": %d}|}
                  b b
                ^ "\n")
              flood));
      let flood_rs = List.map (fun _ -> Json.parse (Client.recv c2)) flood in
      let oks, sheds =
        List.partition (fun r -> str_member "status" r = Some "ok") flood_rs
      in
      check "flood answers every request"
        (List.length flood_rs = 6
        && List.map (str_member "id") flood_rs
           = List.map (fun b -> Some (Printf.sprintf "f%d" b)) flood);
      check "overload sheds beyond the bound"
        (List.length oks = 2
        && List.length sheds = 4
        && List.for_all (has_code "E-OVERLOAD") sheds);
      let retry_hint r =
        match Json.member "diagnostics" r with
        | Some (Json.Arr (d :: _)) -> (
          match Json.member "context" d with
          | Some ctx -> str_member "retry_after_ms" ctx <> None
          | None -> false)
        | _ -> false
      in
      check "shed responses carry retry_after_ms"
        (List.for_all retry_hint sheds);
      (* 13d. an impossible deadline trips E-DEADLINE and is never
         cached *)
      let rpc2 line = Json.parse (Client.rpc c2 line) in
      let r15 = rpc2 {|{"kernel": "pat", "budget": 48, "deadline_ms": 0}|} in
      check "deadline trip is E-DEADLINE" (has_code "E-DEADLINE" r15);
      let r16 = rpc2 {|{"kernel": "pat", "budget": 48}|} in
      check "tripped requests are never cached"
        (str_member "status" r16 = Some "ok"
        && str_member "cache" r16 <> Some "hit");
      Client.close c2);
  (* 14. worker isolation: with a 100% pool.job fault plan every cold
     compute fails as E-INTERNAL-* but the daemon and its stats stay
     live. *)
  let faults =
    match Fault.parse ~seed:42 "pool.job:raise@1,cache.insert:error@1" with
    | Ok f -> f
    | Error msg -> failwith msg
  in
  with_daemon ~faults "serve-faults" (fun socket ->
      let c5 = Client.connect socket in
      let rpc3 line = Json.parse (Client.rpc c5 line) in
      let r17 = rpc3 {|{"id": "w1", "kernel": "fir"}|} in
      check "raising worker is E-INTERNAL"
        (str_member "status" r17 = Some "error"
        && has_code "E-INTERNAL-002" r17
        && str_member "id" r17 = Some "w1");
      let r18 = rpc3 {|{"op": "stats"}|} in
      check "daemon survives worker faults"
        (str_member "status" r18 = Some "ok");
      Client.close c5);
  (* 15. graceful drain: SIGTERM stops the daemon after the in-flight
     work is answered, the socket file is removed, the domain joins. *)
  let drained = ref None in
  with_daemon ~signals:true ~log:(fun m -> drained := Some m) "serve-drain"
    (fun socket ->
      let c6 = Client.connect socket in
      let r19 = Json.parse (Client.rpc c6 {|{"kernel": "fir"}|}) in
      check "pre-drain request is served" (str_member "status" r19 = Some "ok");
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* The drain ends by removing the socket file; allow it 10 s. *)
      let rec gone n =
        (not (Sys.file_exists socket))
        || (n > 0 && (Unix.sleepf 0.01; gone (n - 1)))
      in
      check "SIGTERM drains and exits" (gone 1000);
      Client.close c6);
  check "drain flushes the stats"
    (match !drained with
    | Some m -> Srfa_test_helpers.Helpers.contains_substring m "served="
    | None -> false);
  match !failures with
  | [] ->
    print_endline "self-test: ok";
    true
  | names ->
    print_endline
      (Printf.sprintf "self-test: FAILED (%s)"
         (String.concat ", " (List.rev names)));
    false

(* ---- chaos campaign ----------------------------------------------------

   Fully seeded, in three phases. Phase one runs a deterministic request
   mix against a clean daemon and records every distinct request's exact
   outcome (report for successes, diagnostics for deterministic errors).
   Phase two replays the mix against a daemon under an injected fault
   plan through hostile clients, and phase three re-verifies every
   distinct request against the baseline while the faults stay armed —
   so a fault that poisoned the cache cannot hide.

   The campaign's receive is deliberately paranoid: its own line
   reassembly over the client's fd and a select-based timeout, because
   the daemon under test is being encouraged to cut connections
   mid-line. *)

type conn = {
  client : Client.t;
  buf : Buffer.t;  (* bytes of a response line not yet complete *)
  mutable pending : string list;  (* complete lines not yet returned *)
}

let connect socket =
  match Client.connect socket with
  | client -> Some { client; buf = Buffer.create 256; pending = [] }
  | exception Unix.Unix_error _ -> None

let close conn = Client.close conn.client

(* [`Line l] the next complete response; [`Eof] the daemon dropped us (a
   half-received line is discarded — disconnect mid-response);
   [`Timeout] nothing arrived in [timeout] seconds (a swallowed request:
   always a violation). *)
let recv conn ~timeout =
  let fd = conn.client.Client.fd in
  let deadline = Unix.gettimeofday () +. timeout in
  let b = Bytes.create 4096 in
  let rec go () =
    match conn.pending with
    | line :: rest ->
      conn.pending <- rest;
      `Line line
    | [] -> (
      let remain = deadline -. Unix.gettimeofday () in
      if remain <= 0.0 then `Timeout
      else
        match Unix.select [ fd ] [] [] remain with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> `Timeout
        | _ -> (
          match Unix.read fd b 0 (Bytes.length b) with
          | exception Unix.Unix_error _ -> `Eof
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes conn.buf b 0 n;
            let data = Buffer.contents conn.buf in
            (match String.rindex_opt data '\n' with
            | None -> ()
            | Some nl ->
              Buffer.clear conn.buf;
              Buffer.add_string conn.buf
                (String.sub data (nl + 1) (String.length data - nl - 1));
              conn.pending <-
                List.filter
                  (fun l -> String.trim l <> "")
                  (String.split_on_char '\n' (String.sub data 0 nl)));
            go ()))
  in
  go ()

let chaos ~seed =
  let requests = 600 in
  let log = print_endline in
  let kernels = [ "example"; "fir"; "dec-fir"; "imi"; "mat"; "pat"; "bic" ] in
  let algorithms = [ "cpa-ra"; "fr-ra"; "pr-ra"; "cpa-ra+" ] in
  let budgets = [ 8; 16; 32; 64; 128 ] in
  let root = Prng.create ~seed in
  let combos =
    Array.init requests (fun i ->
        let g = Prng.split root i in
        (Prng.pick g kernels, Prng.pick g algorithms, Prng.pick g budgets))
  in
  let request_line ?deadline_ms ~id (k, a, b) =
    Printf.sprintf
      {|{"id": "%s", "kernel": "%s", "algorithm": "%s", "budget": %d%s}|} id k
      a b
      (match deadline_ms with
      | None -> ""
      | Some d -> Printf.sprintf {|, "deadline_ms": %d|} d)
  in
  let send conn ?deadline_ms ~id combo =
    Client.send conn.client (request_line ?deadline_ms ~id combo)
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf
      (fun msg ->
        if List.length !violations < 20 then violations := msg :: !violations)
      fmt
  in
  let diag_codes = codes "diagnostics" in
  (* A daemon that died or could not be stopped is a violation. *)
  let guarded what f =
    try f () with
    | Daemon_unreachable -> violate "%s daemon unreachable for shutdown" what
    | exn -> violate "%s daemon died: %s" what (Printexc.to_string exn)
  in
  (* ---- phase one: fault-free baseline --------------------------------- *)
  let baseline = Hashtbl.create 64 in
  guarded "baseline" (fun () ->
      with_daemon "chaos-base" (fun socket ->
          match connect socket with
          | None -> violate "baseline daemon unreachable"
          | Some ca ->
            Array.iter
              (fun combo ->
                if not (Hashtbl.mem baseline combo) then begin
                  send ca ~id:"base" combo;
                  match recv ca ~timeout:30.0 with
                  | `Line l -> (
                    match Json.parse l with
                    | resp -> Hashtbl.add baseline combo resp
                    | exception Json.Malformed _ ->
                      violate "baseline response unparseable")
                  | `Eof | `Timeout -> violate "baseline request unanswered"
                end)
              combos;
            close ca));
  let baseline_report combo =
    Option.bind (Hashtbl.find_opt baseline combo) (fun resp ->
        if str_member "status" resp = Some "ok" then Json.member "report" resp
        else None)
  in
  let baseline_diags combo =
    Option.bind (Hashtbl.find_opt baseline combo) (Json.member "diagnostics")
  in
  log
    (Printf.sprintf "chaos: baseline recorded (%d distinct requests)"
       (Hashtbl.length baseline));
  (* ---- phase two: the same mix under faults, via hostile clients ------ *)
  let plan =
    "io.read:short-read@0.08,io.read:delay:1@0.04,io.write:error@0.03,\
     pool.job:raise@0.05,pool.job:delay:2@0.05,cache.insert:error@0.25"
  in
  let faults =
    match Fault.parse ~seed plan with
    | Ok f -> f
    | Error msg -> failwith ("chaos: bad fault plan: " ^ msg)
  in
  let sent = ref 0 in
  let ok_matched = ref 0 in
  let allowed_errors = ref 0 in
  let disconnects = ref 0 in
  let hostile = ref 0 in
  let reverified = ref 0 in
  let injected = ref 0 in
  let injected_codes =
    [ "E-INTERNAL-002"; "E-INTERNAL-003"; "E-DEADLINE"; "E-OVERLOAD" ]
  in
  let only_injected codes =
    codes <> [] && List.for_all (fun c -> List.mem c injected_codes) codes
  in
  let validate combo line =
    match Json.parse line with
    | exception Json.Malformed _ ->
      violate "unparseable chaos response: %s" line
    | resp -> (
      match str_member "status" resp with
      | Some "ok" -> (
        match baseline_report combo with
        | Some report when Json.member "report" resp = Some report ->
          incr ok_matched
        | Some _ -> violate "report mismatch vs fault-free baseline"
        | None -> violate "ok response for a combo the baseline rejected")
      | Some "error" ->
        let codes = diag_codes resp in
        if only_injected codes then incr allowed_errors
        else if
          match baseline_diags combo with
          | Some d -> Json.member "diagnostics" resp = Some d
          | None -> false
        then incr allowed_errors
        else violate "unexpected error codes: %s" (String.concat "," codes)
      | _ -> violate "response without a status")
  in
  let campaign socket =
    let behaviour = Prng.split root (requests + 7919) in
    let i = ref 0 in
    (* One client connection; an unreachable daemon ends the mix. *)
    let client what f =
      match connect socket with
      | None ->
        violate "daemon unreachable (%s)" what;
        i := requests
      | Some c ->
        f c;
        close c
    in
    (* Send the next combo and judge its one response; [true] iff one
       arrived. *)
    let single ?deadline_ms ~id ~what c =
      let combo = combos.(!i) in
      send c ?deadline_ms ~id combo;
      incr i;
      incr sent;
      match recv c ~timeout:15.0 with
      | `Line l ->
        validate combo l;
        true
      | `Eof ->
        incr disconnects;
        false
      | `Timeout ->
        violate "%s swallowed" what;
        false
    in
    while !i < requests do
      let style = Prng.int behaviour 100 in
      let remaining = requests - !i in
      if style < 55 || remaining < 4 then
        (* well-behaved client: 1-4 sequential request/response rounds,
           until the daemon drops the conversation *)
        client "normal client" (fun c ->
            let k = min remaining (1 + Prng.int behaviour 4) in
            let rec go j =
              if
                j < k
                && single ~id:(Printf.sprintf "n%d" !i)
                     ~what:(Printf.sprintf "request %d" !i) c
              then go (j + 1)
            in
            go 0)
      else if style < 75 then
        (* pipelined flood: one write, many requests; sheds expected *)
        client "flood client" (fun c ->
            let k = min remaining (10 + Prng.int behaviour 21) in
            let batch = Array.init k (fun j -> combos.(!i + j)) in
            Client.send c.client
              (String.concat "\n"
                 (Array.to_list
                    (Array.mapi
                       (fun j combo ->
                         request_line ~id:(Printf.sprintf "p%d" (!i + j)) combo)
                       batch)));
            sent := !sent + k;
            i := !i + k;
            let rec collect j =
              if j < k then
                match recv c ~timeout:15.0 with
                | `Line l ->
                  validate batch.(j) l;
                  collect (j + 1)
                | `Eof ->
                  (* dropped mid-flood: the rest are clean disconnects *)
                  disconnects := !disconnects + (k - j)
                | `Timeout -> violate "flood response %d swallowed" j
            in
            collect 0)
      else if style < 85 then
        (* deaf client: sends, never reads, hangs up immediately *)
        client "deaf client" (fun c ->
            send c ~id:"deaf" combos.(!i);
            incr i;
            incr sent;
            incr disconnects;
            incr hostile)
      else if style < 93 then begin
        (* truncated JSON then disconnect, plus one real request so the
           loop always consumes a combo *)
        Option.iter
          (fun c ->
            send_raw c.client {|{"id": "trunc", "kernel": "fi|};
            incr hostile;
            close c)
          (connect socket);
        client "after truncation" (fun c ->
            ignore (single ~id:"t" ~what:"post-truncation request" c))
      end
      else
        (* deadline race: a 1 ms deadline may trip or may be met *)
        client "deadline client" (fun c ->
            incr hostile;
            ignore
              (single ~deadline_ms:1 ~id:(Printf.sprintf "d%d" !i)
                 ~what:"deadline request" c))
    done;
    (* ---- phase three: cache integrity re-verified under live faults --- *)
    (* One probe on a fresh connection. A dropped connection, or [judge]
       answering [`Retry] (an injected fault hit the probe), tries again,
       at most 10 times in all. *)
    let rec probe ?(n = 0) line judge =
      if n >= 10 then violate "probe %s exhausted retries" line
      else
        match connect socket with
        | None -> violate "daemon unreachable (probe %s)" line
        | Some c -> (
          Client.send c.client line;
          let outcome = recv c ~timeout:15.0 in
          close c;
          match outcome with
          | `Eof -> probe ~n:(n + 1) line judge
          | `Timeout -> violate "probe %s swallowed" line
          | `Line l -> (
            match Json.parse l with
            | exception Json.Malformed _ ->
              violate "unparseable probe response: %s" l
            | resp -> if judge resp = `Retry then probe ~n:(n + 1) line judge))
    in
    Hashtbl.iter
      (fun combo _ ->
        probe (request_line ~id:"v" combo) (fun resp ->
            match (str_member "status" resp, baseline_report combo) with
            | Some "ok", Some report
              when Json.member "report" resp = Some report ->
              incr reverified;
              `Done
            | Some "ok", Some _ ->
              violate "re-verified report differs from fault-free baseline";
              `Done
            | Some "error", None
              when Json.member "diagnostics" resp = baseline_diags combo ->
              incr reverified;
              `Done
            | Some "error", _ when only_injected (diag_codes resp) -> `Retry
            | _ ->
              violate "re-verification outcome diverged";
              `Done))
      baseline;
    (* ---- stats and injection rate, before the harness shuts down ----- *)
    injected := Fault.injected faults;
    probe {|{"op": "stats"}|} (fun resp ->
        if str_member "status" resp <> Some "ok" then
          violate "stats rpc failed after campaign";
        `Done)
  in
  guarded "chaos" (fun () ->
      with_daemon ~faults ~max_inflight:8 ~max_buffer:65536
        ~read_timeout_ms:2000 "chaos" campaign);
  let rate = float_of_int !injected /. float_of_int (max 1 !sent) in
  if rate < 0.10 then
    violate "injected fault rate %.1f%% below the 10%% floor" (100. *. rate);
  log
    (Printf.sprintf
       "chaos: %d requests sent (%d hostile actions): %d ok+matched, %d \
        allowed errors, %d clean disconnects; %d faults injected (%.1f%%); \
        %d/%d distinct requests re-verified byte-identical"
       !sent !hostile !ok_matched !allowed_errors !disconnects !injected
       (100. *. rate) !reverified (Hashtbl.length baseline));
  match !violations with
  | [] ->
    log
      (Printf.sprintf "chaos: ok (%d requests, 0 crashes, 0 violations)" !sent);
    true
  | vs ->
    List.iter (fun v -> log ("chaos: VIOLATION " ^ v)) (List.rev vs);
    log (Printf.sprintf "chaos: FAILED (%d violations)" (List.length vs));
    false

let () =
  let mode = ref None and seed = ref 42 in
  let usage = "serve_campaigns.exe --self-test | --chaos [--seed N]" in
  Arg.parse
    [
      ("--self-test", Arg.Unit (fun () -> mode := Some `Self_test),
       " run the scripted request mix");
      ("--chaos", Arg.Unit (fun () -> mode := Some `Chaos),
       " run the seeded chaos campaign");
      ("--seed", Arg.Set_int seed, "N chaos seed (default 42)");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  (* A write to a connection the daemon dropped must fail, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ok =
    match !mode with
    | Some `Self_test -> self_test ()
    | Some `Chaos -> chaos ~seed:!seed
    | None ->
      prerr_endline usage;
      exit 2
  in
  exit (if ok then 0 else 1)
