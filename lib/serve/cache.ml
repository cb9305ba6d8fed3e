module Flow = Srfa_core.Flow
module Allocator = Srfa_core.Allocator
module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace
module Lru = Srfa_util.Lru
module Fault = Srfa_util.Fault

(* Bump on any change to the key material layout or to the canonical
   source rendering's meaning; the test_serve goldens pin the resulting
   digests so an accidental change fails loudly instead of silently
   cold-starting every deployed cache. *)
let scheme_version = "srfa-cache-v1"

let tier1_key ~(device : Srfa_hw.Device.t) source =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ scheme_version; device.Srfa_hw.Device.name; source ]))

(* Rebudget sessions live in their own key namespace (the "rebudget"
   component): a session must never collide with — or be inserted into —
   the allocate tiers, whose entries the chaos campaign re-verifies
   byte-identical against a fault-free baseline. *)
let session_key ~tier1 ~stream =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ scheme_version; tier1; "rebudget"; stream ]))

(* The frontier tier's namespace: one kernel's whole design-space answer,
   keyed on the canonical space spec (DESIGN.md §17). Like sessions,
   disjoint from the allocate tiers by the literal component. *)
let explore_key ~tier1 ~spec =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" [ scheme_version; tier1; "explore"; spec ]))

let tier2_key ~tier1 ~algorithm ~budget ~cut_work_limit =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          [
            scheme_version;
            tier1;
            Allocator.name algorithm;
            string_of_int budget;
            (match cut_work_limit with
            | None -> "guard-default"
            | Some n -> string_of_int n);
          ]))

(* ---- resolved requests ------------------------------------------------- *)

type resolved = {
  nest : Srfa_ir.Nest.t;
  source : string;
  device : Srfa_hw.Device.t;
  algorithm : Allocator.algorithm;
  budget : int;
  cut_work_limit : int option;
}

let device_of_name = function
  | "xcv1000" -> Some Srfa_hw.Device.xcv1000
  | "xc2v6000" -> Some Srfa_hw.Device.xc2v6000
  | _ -> None

let resolve (r : Protocol.request) =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let* nest =
    match r.Protocol.kernel with
    | None -> Error [ Protocol.field_error "allocate request without a kernel" ]
    | Some (Protocol.Named name) -> (
      match Srfa_kernels.Kernels.find name with
      | Some nest -> Ok nest
      | None ->
        Error
          [
            Protocol.field_error
              (Printf.sprintf "unknown kernel %S (try: %s)" name
                 (String.concat ", " Srfa_kernels.Kernels.names));
          ])
    | Some (Protocol.Source text) -> Srfa_frontend.Parser.parse_result text
  in
  let* device =
    match r.Protocol.device with
    | None -> Ok Srfa_hw.Device.xcv1000
    | Some name -> (
      match device_of_name name with
      | Some d -> Ok d
      | None ->
        Error
          [
            Protocol.field_error
              (Printf.sprintf "unknown device %S (xcv1000, xc2v6000)" name);
          ])
  in
  let* algorithm =
    match r.Protocol.algorithm with
    | None -> Ok Allocator.Cpa_ra
    | Some name -> (
      match Allocator.of_name name with
      | Some a -> Ok a
      | None ->
        Error
          [
            Protocol.field_error
              (Printf.sprintf "unknown algorithm %S" name);
          ])
  in
  (* The content address hashes the canonical rendering, never the raw
     request text, so formatting and comments never fragment the cache. *)
  Ok
    {
      nest;
      source = Srfa_frontend.Parser.canonical_source nest;
      device;
      algorithm;
      budget = Option.value r.Protocol.budget ~default:64;
      cut_work_limit = r.Protocol.cut_work_limit;
    }

let config_for r =
  {
    Flow.default_config with
    Flow.budget = r.budget;
    sim = { Flow.default_config.Flow.sim with device = r.device };
    guards =
      (match r.cut_work_limit with
      | None -> Flow.default_guards
      | Some n -> { Flow.default_guards with cut_work_limit = Some n });
  }

(* ---- tiers ------------------------------------------------------------- *)

type entry = {
  t1 : string;
  prepared : Flow.Core.prepared;
  scratch : Srfa_sched.Simulator.scratch;
  device : Srfa_hw.Device.t;
}
(** One tier-1 resident: every budget-independent product of one
    (kernel, device) pair. The scratch rides along so warm requests are
    allocation-free, which makes the entry single-owner at any instant —
    the server guarantees that by batching same-key requests onto one
    domain. *)

type report_value = {
  report : Srfa_estimate.Report.t;
  warnings : Diag.t list;
}

type explore_value = {
  frontier : string;  (* Flow.Core.frontier_json ~compact:true *)
  explore_stats : (string * int) list;
  explore_warnings : Diag.t list;
}

(* One store and the number its cache.* trace events carry. *)
type 'v tier = { lru : 'v Lru.t; tier : int }

type t = {
  tier1 : entry tier;
  tier2 : report_value tier;
  sessions : Flow.Core.rebudget_session tier;
      (* live rebudget streams (DESIGN.md §16), keyed by (tier-1,
         stream name). Mutable single-owner values: every step runs on
         the accept thread, never on a pool domain, so they share the
         tier-1 scratch without racing it. Eviction just cold-starts
         the stream on its next event. *)
  explores : explore_value tier;
      (* finished design-space frontiers keyed by (tier-1, space spec).
         Immutable rendered strings, safe to serve any number of
         times — the explore analogue of tier 2. *)
  trace : Trace.sink;
  faults : Fault.t;
}

let create ?(tier1_bytes = 48 * 1024 * 1024) ?(tier2_bytes = 16 * 1024 * 1024)
    ?(session_bytes = 16 * 1024 * 1024)
    ?(explore_bytes = 16 * 1024 * 1024) ?(trace = Trace.null)
    ?(faults = Fault.off) () =
  {
    tier1 = { lru = Lru.create ~capacity:tier1_bytes; tier = 1 };
    tier2 = { lru = Lru.create ~capacity:tier2_bytes; tier = 2 };
    sessions = { lru = Lru.create ~capacity:session_bytes; tier = 3 };
    explores = { lru = Lru.create ~capacity:explore_bytes; tier = 4 };
    trace;
    faults;
  }

let word_bytes = Sys.word_size / 8

let cost_of v = (1 + Obj.reachable_words (Obj.repr v)) * word_bytes

let emit_lookup t ~tier ~key hit =
  Trace.emit t.trace (fun () ->
      Trace.event
        (if hit then "cache.hit" else "cache.miss")
        [ ("tier", Trace.Int tier); ("key", Trace.String key) ])

let emit_evicted t ~tier evicted =
  List.iter
    (fun (key, _) ->
      Trace.emit t.trace (fun () ->
          Trace.event "cache.evict"
            [ ("tier", Trace.Int tier); ("key", Trace.String key) ]))
    evicted

let build_entry r ~t1 =
  let prepared = Flow.Core.prepare r.nest in
  {
    t1;
    prepared;
    scratch = Flow.Core.scratch ~config:(config_for r) prepared;
    device = r.device;
  }

let find t tier key =
  let hit = Lru.find tier.lru key in
  emit_lookup t ~tier:tier.tier ~key (hit <> None);
  hit

(* The cache.insert fault site: an injected failure means the store did
   not happen (a full disk, an allocation failure). Whatever the action,
   the contract is "skip the insert and stay correct" — the value is
   recomputed on the next miss; the daemon must never die here because
   inserts run on the accept thread. *)
let insert t tier key v =
  match Fault.check t.faults "cache.insert" with
  | None ->
    emit_evicted t ~tier:tier.tier (Lru.add tier.lru key ~cost:(cost_of v) v)
  | Some _ ->
    Trace.emit t.trace (fun () ->
        Trace.event "fault.cache.insert"
          [ ("tier", Trace.Int tier.tier); ("key", Trace.String key) ])

let find_report t key = find t t.tier2 key
let find_entry t key = find t t.tier1 key
let insert_entry t (e : entry) = insert t t.tier1 e.t1 e
let insert_report t key (v : report_value) = insert t t.tier2 key v

(* The resident tier-1 entry, or a freshly built and inserted one.
   Preparation can fail too (semantic validation, dependency cycles);
   the boundary matches Flow.Core.checked's. *)
let entry_for t r ~t1 =
  match find_entry t t1 with
  | Some e -> Ok (e, `Analysis)
  | None -> (
    match build_entry r ~t1 with
    | e ->
      insert_entry t e;
      Ok (e, `Miss)
    | exception exn -> Error [ Diag.of_exn exn ])

(* Allocate-and-report against a resident (or freshly built) tier-1
   entry. Pure apart from the entry's scratch: callers on worker domains
   must own the entry exclusively for the duration. *)
let compute r (entry : entry) =
  Flow.Core.checked_prepared ~sim_scratch:entry.scratch (config_for r)
    r.algorithm entry.prepared

type status = [ `Hit | `Analysis | `Miss ]

(* ---- rebudget sessions (DESIGN.md §16) --------------------------------

   One budget event against a live stream. [`Hit] = the session existed
   and the event was answered incrementally; [`Analysis] = no session
   yet but the tier-1 entry was resident, so only the bootstrap
   portfolio point was paid; [`Miss] = fully cold. Accept-thread only:
   sessions mutate in place and share the tier-1 scratch. *)

let rebudget t (r : resolved) ~stream =
  let t1 = tier1_key ~device:r.device r.source in
  let skey = session_key ~tier1:t1 ~stream in
  match find t t.sessions skey with
  | Some session -> (
    match Flow.Core.rebudget_step session ~budget:r.budget with
    | step -> Ok (step, `Hit)
    | exception exn -> Error [ Diag.of_exn exn ])
  | None -> (
    match entry_for t r ~t1 with
    | Error diags -> Error diags
    | Ok (entry, status) -> (
      match
        Flow.Core.rebudget_start ~sim_scratch:entry.scratch (config_for r)
          entry.prepared ~budget:r.budget
      with
      | session, step ->
        insert t t.sessions skey session;
        Ok (step, status)
      | exception exn -> Error [ Diag.of_exn exn ]))

(* ---- design-space frontiers (DESIGN.md §17) ---------------------------

   One kernel's whole frontier under a canonical space spec. The explorer
   prepares per variant internally, so no tier-1 entry is borrowed; the
   tier-1 key only anchors the namespace. Accept-thread only (like
   rebudget): the explorer's own per-variant scratch is private, but the
   store mutates. *)

(* Canonicalise the request's space fields: the parsed values are
   re-rendered, so formatting differences ("8, 16" vs "8,16") never
   fragment the frontier tier. *)
let space_of_request (req : Protocol.request) =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let ints what s =
    match
      List.map
        (fun x -> int_of_string (String.trim x))
        (String.split_on_char ',' s)
    with
    | ns -> Ok ns
    | exception Failure _ ->
      Error
        [
          Protocol.field_error
            (Printf.sprintf "field %S must be a comma-separated integer list"
               what);
        ]
  in
  let* orders =
    match req.Protocol.orders with
    | None -> Ok Flow.Core.All_orders
    | Some s -> (
      match Flow.Core.parse_orders s with
      | Ok orders -> Ok orders
      | Error why ->
        Error [ Protocol.field_error ("field \"orders\" " ^ why) ])
  in
  let* tile_factors =
    match req.Protocol.tiles with None -> Ok [] | Some s -> ints "tiles" s
  in
  let* space_budgets =
    match req.Protocol.budgets with
    | None -> Ok Flow.Core.default_budgets
    | Some s -> ints "budgets" s
  in
  let* space_algorithms =
    match req.Protocol.algorithms with
    | None -> Ok [ Allocator.Cpa_ra ]
    | Some s ->
      List.fold_right
        (fun name acc ->
          let* acc = acc in
          match Allocator.of_name (String.trim name) with
          | Some a -> Ok (a :: acc)
          | None ->
            Error
              [
                Protocol.field_error
                  (Printf.sprintf "unknown algorithm %S" (String.trim name));
              ])
        (String.split_on_char ',' s)
        (Ok [])
  in
  let space =
    {
      Flow.Core.orders;
      tile_factors;
      space_budgets;
      space_algorithms;
      certify = req.Protocol.certify;
      prune = true;
      naive = false;
    }
  in
  let join ns = String.concat "," (List.map string_of_int ns) in
  let spec =
    Printf.sprintf "orders=%s;tiles=%s;budgets=%s;algorithms=%s;certify=%b"
      (match orders with
      | Flow.Core.All_orders -> "all"
      | Flow.Core.Identity_order -> "identity"
      | Flow.Core.Orders os -> String.concat "|" (List.map join os))
      (join tile_factors) (join space_budgets)
      (String.concat "," (List.map Allocator.name space_algorithms))
      req.Protocol.certify
  in
  Ok (space, spec)

let explore t (r : resolved) ~space ~spec =
  let t1 = tier1_key ~device:r.device r.source in
  let key = explore_key ~tier1:t1 ~spec in
  match find t t.explores key with
  | Some v -> Ok (v, `Hit)
  | None -> (
    match Flow.Core.explore ~space (config_for r) r.nest with
    | f ->
      let s = f.Flow.Core.frontier_stats in
      let v =
        {
          frontier = Flow.Core.frontier_json ~compact:true f;
          explore_stats =
            [
              ("variants_enumerated", s.Flow.Core.variants_enumerated);
              ("variants_unique", s.Flow.Core.variants_unique);
              ("variants_pruned", s.Flow.Core.variants_pruned);
              ("points_pruned", s.Flow.Core.points_pruned);
              ("points_evaluated", s.Flow.Core.points_evaluated);
              ("sim_memo_hits", s.Flow.Core.sim_memo_hits);
              ("duplicate_variants", s.Flow.Core.duplicate_variants);
              ("orders_skipped", s.Flow.Core.orders_skipped);
              ("budgets_skipped", s.Flow.Core.budgets_skipped);
            ];
          explore_warnings = f.Flow.Core.frontier_warnings;
        }
      in
      insert t t.explores key v;
      Ok (v, `Miss)
    | exception exn -> Error [ Diag.of_exn exn ])

(* The single-threaded fast path (tests, jobs=1 servers): look up, build
   what is missing, cache what was computed. Errors are never cached —
   they are cheap to recompute and usually the caller's fault. *)
let respond t (r : resolved) =
  let t1 = tier1_key ~device:r.device r.source in
  let t2 =
    tier2_key ~tier1:t1 ~algorithm:r.algorithm ~budget:r.budget
      ~cut_work_limit:r.cut_work_limit
  in
  match find_report t t2 with
  | Some v -> Ok (v.report, v.warnings, `Hit)
  | None -> (
    match entry_for t r ~t1 with
    | Error diags -> Error diags
    | Ok (entry, status) -> (
      match compute r entry with
      | Ok (report, warnings) ->
        insert_report t t2 { report; warnings };
        Ok (report, warnings, status)
      | Error diags -> Error diags))

(* Every request performs exactly one tier-2 lookup, so the served count
   is the tier-2 hit + miss total. *)
let stats t =
  let tier name { lru; _ } =
    [
      (name ^ "_entries", Lru.length lru);
      (name ^ "_bytes", Lru.used lru);
      (name ^ "_hits", Lru.hits lru);
      (name ^ "_misses", Lru.misses lru);
      (name ^ "_evictions", Lru.evictions lru);
    ]
  in
  (("served", Lru.hits t.tier2.lru + Lru.misses t.tier2.lru)
  :: tier "tier1" t.tier1)
  @ tier "tier2" t.tier2
  @ [
      ("sessions", Lru.length t.sessions.lru);
      ("session_hits", Lru.hits t.sessions.lru);
      ("session_misses", Lru.misses t.sessions.lru);
      ("session_evictions", Lru.evictions t.sessions.lru);
    ]
  @ tier "explore" t.explores
