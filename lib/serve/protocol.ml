module Diag = Srfa_util.Diag

module Json = Srfa_util.Json

type json = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Malformed = Json.Malformed

let parse_json = Json.parse
let member = Json.member

(* ---- requests ---------------------------------------------------------- *)

type op = Allocate | Rebudget | Explore | Stats | Shutdown

type kernel_spec = Named of string | Source of string

type request = {
  id : string option;
  op : op;
  kernel : kernel_spec option;
  device : string option;
  algorithm : string option;
  budget : int option;
  cut_work_limit : int option;
  deadline_ms : int option;
  stream : string option;
  orders : string option;
  tiles : string option;
  budgets : string option;
  algorithms : string option;
  certify : bool;
}

let proto_error msg = Diag.make ~code:"E-PROTO-001" msg

let field_error msg = Diag.make ~code:"E-PROTO-002" msg

let abuse_error msg = Diag.make ~code:"E-PROTO-003" msg

let deadline_error ~deadline_ms ~elapsed_ms =
  Diag.make ~code:"E-DEADLINE"
    (Printf.sprintf "request exceeded its %d ms deadline (%d ms elapsed)"
       deadline_ms elapsed_ms)
    ~context:
      [
        ("deadline_ms", string_of_int deadline_ms);
        ("elapsed_ms", string_of_int elapsed_ms);
      ]

let overload_error ~retry_after_ms =
  Diag.make ~code:"E-OVERLOAD"
    (Printf.sprintf "server at capacity; retry in %d ms" retry_after_ms)
    ~context:[ ("retry_after_ms", string_of_int retry_after_ms) ]

(* Best-effort id recovery from a line that failed to decode, so
   pipelining clients can still correlate the error response. The scan
   is string-aware: it walks the line reading complete JSON string
   tokens with [parse_json]'s own decoder and accepts the first "id"
   token that is actually a key — followed by ':' and a string value. A
   string value that merely contains or equals "id" is stepped over as
   one token, so its characters can neither shadow the real key nor end
   the scan; a token that is truncated or malformed ends it, since
   nothing past it is trustworthy. A wrong [None] only costs the client
   its correlation. *)
let recover_id line =
  let n = String.length line in
  let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false in
  let rec skip_ws i = if i < n && is_ws line.[i] then skip_ws (i + 1) else i in
  let read_string i =
    match Json.string_token line i with
    | token -> Some token
    | exception Malformed _ -> None
  in
  let rec scan i =
    if i >= n then None
    else if line.[i] <> '"' then scan (i + 1)
    else
      match read_string i with
      | None -> None
      | Some (tok, after) ->
        if tok <> "id" then scan after
        else
          let j = skip_ws after in
          if j >= n || line.[j] <> ':' then
            (* a string value spelling "id", not the key — keep looking *)
            scan after
          else
            let j = skip_ws (j + 1) in
            if j < n && line.[j] = '"' then Option.map fst (read_string j)
            else None (* the id is not a string; correlation is impossible *)
  in
  scan 0

let parse_request line =
  match parse_json line with
  | exception Malformed msg ->
    Error (proto_error (Printf.sprintf "malformed request JSON: %s" msg))
  | Obj _ as json -> (
    let str key =
      match member key json with
      | None -> Ok None
      | Some (Str s) -> Ok (Some s)
      | Some _ -> Error (Printf.sprintf "field %S must be a string" key)
    in
    let int key =
      match member key json with
      | None -> Ok None
      | Some (Int i) -> Ok (Some i)
      | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)
    in
    let bool_field key =
      match member key json with
      | None -> Ok false
      | Some (Bool b) -> Ok b
      | Some _ -> Error (Printf.sprintf "field %S must be a boolean" key)
    in
    let ( let* ) r f =
      match r with Ok v -> f v | Error msg -> Error (field_error msg)
    in
    let* id = str "id" in
    let* opname = str "op" in
    let* kernel = str "kernel" in
    let* source = str "source" in
    let* device = str "device" in
    let* algorithm = str "algorithm" in
    let* budget = int "budget" in
    let* cut_work_limit = int "cut_work_limit" in
    let* deadline_ms = int "deadline_ms" in
    let* stream = str "stream" in
    let* orders = str "orders" in
    let* tiles = str "tiles" in
    let* budgets = str "budgets" in
    let* algorithms = str "algorithms" in
    let* certify = bool_field "certify" in
    let* op =
      match opname with
      | None | Some "allocate" -> Ok Allocate
      | Some "rebudget" -> Ok Rebudget
      | Some "explore" -> Ok Explore
      | Some "stats" -> Ok Stats
      | Some "shutdown" -> Ok Shutdown
      | Some other ->
        Error
          (Printf.sprintf
             "unknown op %S (allocate, rebudget, explore, stats, shutdown)"
             other)
    in
    let* kernel =
      match (kernel, source) with
      | Some _, Some _ -> Error "give either \"kernel\" or \"source\", not both"
      | Some name, None -> Ok (Some (Named name))
      | None, Some text -> Ok (Some (Source text))
      | None, None ->
        if op = Allocate then
          Error
            "an allocate request needs a \"kernel\" name or a \"source\" text"
        else if op = Rebudget then
          Error
            "a rebudget request needs a \"kernel\" name or a \"source\" text"
        else if op = Explore then
          Error
            "an explore request needs a \"kernel\" name or a \"source\" text"
        else Ok None
    in
    let* () =
      if op = Rebudget && budget = None then
        Error "a rebudget request needs a \"budget\" event target"
      else Ok ()
    in
    Ok
      {
        id; op; kernel; device; algorithm; budget; cut_work_limit;
        deadline_ms; stream; orders; tiles; budgets; algorithms; certify;
      })
  | _ -> Error (proto_error "request must be a JSON object")

(* ---- responses ---------------------------------------------------------

   Every response is one object rendered into one buffer; the fields
   with a fixed layout (the report's %.1f/%.3f/%.4f figures, a
   pre-rendered frontier) go through Json's joiners. *)

let str s = Json.value (Str s)
let int i = Json.value (Int i)

let cache_status_name = function
  | `Hit -> "hit"
  | `Analysis -> "analysis"
  | `Miss -> "miss"

let response id members =
  Json.render
    (Json.obj
       (match id with Some id -> ("id", str id) :: members | None -> members))

let diagnostics ds = Json.value (Arr (List.map Diag.json ds))

let warnings_member = function
  | [] -> []
  | ws -> [ ("warnings", diagnostics ws) ]

let counters kvs = Json.value (Obj (List.map (fun (k, v) -> (k, Int v)) kvs))

let report_writer (r : Srfa_estimate.Report.t) =
  Json.obj
    ([
       ("kernel", str r.kernel);
       ("version", str r.version);
       ("algorithm", str r.algorithm);
       ("registers", int r.total_registers);
       ("cycles", int r.cycles);
       ("memory_cycles", int r.memory_cycles);
       ("ram_accesses", int r.ram_accesses);
       ("clock_ns", Json.fixed 1 r.clock_ns);
       ("exec_time_us", Json.fixed 3 r.exec_time_us);
       ("slices", int r.slices);
       ("slice_utilization", Json.fixed 4 r.slice_utilization);
       ("rams", int r.rams);
       ("required", counters r.required);
       ("allocated", counters r.allocated);
     ]
    @ match r.trace_summary with Some s -> [ ("trace", str s) ] | None -> [])

let json_of_report r = Json.render (report_writer r)

type rebudget_info = {
  rb_requested : int;
  rb_effective : int;
  rb_clamped : bool;
  rb_freed : int;
  rb_respent : int;
  rb_memoized : bool;
}

let json_of_rebudget rb =
  Obj
    [
      ("requested", Int rb.rb_requested);
      ("effective", Int rb.rb_effective);
      ("clamped", Bool rb.rb_clamped);
      ("freed", Int rb.rb_freed);
      ("respent", Int rb.rb_respent);
      ("memoized", Bool rb.rb_memoized);
    ]

let response_ok ?id ?rebudget ~cache ~warnings report =
  response id
    ([
       ("status", str "ok");
       ("cache", str (cache_status_name cache));
       ("report", report_writer report);
     ]
    @ (match rebudget with
      | Some rb -> [ ("rebudget", Json.value (json_of_rebudget rb)) ]
      | None -> [])
    @ warnings_member warnings)

(* An explore response embeds the frontier exactly as
   [Flow.Core.frontier_json ~compact:true] rendered it — the same bytes
   the CLI's --json mode pretty-prints — plus the (schedule-dependent,
   never byte-compared) explore counters as a sub-object. *)
let response_explore ?id ~cache ~warnings ~stats frontier =
  response id
    ([
       ("status", str "ok");
       ("cache", str (cache_status_name cache));
       ("frontier", Json.raw frontier);
       ("explore", counters stats);
     ]
    @ warnings_member warnings)

let response_error ?id diags =
  response id [ ("status", str "error"); ("diagnostics", diagnostics diags) ]

let response_stats ?id kvs =
  response id [ ("status", str "ok"); ("stats", counters kvs) ]

let response_bye ?id () =
  response id [ ("status", str "ok"); ("bye", Json.value (Bool true)) ]
