(* Wire-format goldens: the exact bytes of the JSON a client or a file
   reader sees — a diagnostic with every escaped character class, every
   serve response shape with and without an id, the Fig. 2 report under
   CPA-RA, and one `srfa sweep --json` point line. A change to the JSON
   layer that moves a byte fails here by name. *)

module Protocol = Srfa_server.Protocol
module Diag = Srfa_util.Diag
module Flow = Srfa_core.Flow

(* A span plus a context value holding a quote, a newline, a tab, a
   \x01 control byte and a UTF-8 e-acute (bytes >= 0x80 pass through). *)
let diag =
  Diag.make ~code:"E-PARSE-001"
    ~span:{ Diag.line = 3; col = 14 }
    ~context:
      [ ("near", "say \"hi\"\n\tthen\x01 caf\xc3\xa9"); ("budget", "64") ]
    "unexpected token"

let warning =
  Diag.warning ~code:"W-GUARD-CUT" "cut work limit exceeded"
    ~context:[ ("work_limit", "1") ]

let fig2_report () =
  Flow.evaluate Srfa_core.Allocator.Cpa_ra (Srfa_kernels.Kernels.example ())

let rebudget =
  {
    Protocol.rb_requested = 16;
    rb_effective = 20;
    rb_clamped = true;
    rb_freed = 44;
    rb_respent = 0;
    rb_memoized = false;
  }

let frontier = {|{"kernel": "k", "points": []}|}

let explore_stats = [ ("variants_enumerated", 6); ("points_pruned", 2) ]

let id = "r\"1\n"

let report_golden =
  {|{"kernel": "example", "version": "v3", "algorithm": "cpa-ra", "registers": 64, "cycles": 2384, "memory_cycles": 1184, "ram_accesses": 2034, "clock_ns": 46.4, "exec_time_us": 110.665, "slices": 842, "slice_utilization": 0.0685, "rams": 9, "required": {"a[k]": 30, "b[k][j]": 600, "d[i][k]": 30, "c[j]": 20, "e[i][j][k]": 1}, "allocated": {"a[k]": 16, "b[k][j]": 16, "d[i][k]": 30, "c[j]": 1, "e[i][j][k]": 1}, "trace": "9 events: 1 engine.init, 2 cut.flow, 1 assign.full, 2 round, 2 assign.partial, 1 engine.finalize"}|}

let diag_golden =
  {|{"code": "E-PARSE-001", "severity": "error", "message": "unexpected token", "line": 3, "column": 14, "context": {"near": "say \"hi\"\n\tthen\u0001 café", "budget": "64"}}|}

let warning_golden =
  {|{"code": "W-GUARD-CUT", "severity": "warning", "message": "cut work limit exceeded", "context": {"work_limit": "1"}}|}

let with_id body = {|{"id": "r\"1\n", |} ^ body
let without_id body = "{" ^ body

let test_diag () =
  Alcotest.(check string) "Diag.to_json" diag_golden (Diag.to_json diag);
  Alcotest.(check string) "warning" warning_golden (Diag.to_json warning)

let test_report () =
  Alcotest.(check string)
    "json_of_report (Fig. 2, CPA-RA)" report_golden
    (Protocol.json_of_report (fig2_report ()))

let test_response_ok () =
  let report = fig2_report () in
  let plain =
    Printf.sprintf {|"status": "ok", "cache": "miss", "report": %s}|}
      report_golden
  in
  Alcotest.(check string)
    "ok, no id" (without_id plain)
    (Protocol.response_ok ~cache:`Miss ~warnings:[] report);
  Alcotest.(check string)
    "ok, id" (with_id plain)
    (Protocol.response_ok ~id ~cache:`Miss ~warnings:[] report);
  let full =
    Printf.sprintf
      {|"status": "ok", "cache": "hit", "report": %s, "rebudget": {"requested": 16, "effective": 20, "clamped": true, "freed": 44, "respent": 0, "memoized": false}, "warnings": [%s, %s]}|}
      report_golden warning_golden diag_golden
  in
  Alcotest.(check string)
    "ok + rebudget + warnings, no id" (without_id full)
    (Protocol.response_ok ~rebudget ~cache:`Hit ~warnings:[ warning; diag ]
       report);
  Alcotest.(check string)
    "ok + rebudget + warnings, id" (with_id full)
    (Protocol.response_ok ~id ~rebudget ~cache:`Hit
       ~warnings:[ warning; diag ] report);
  let analysis =
    Printf.sprintf {|"status": "ok", "cache": "analysis", "report": %s}|}
      report_golden
  in
  Alcotest.(check string)
    "analysis" (without_id analysis)
    (Protocol.response_ok ~cache:`Analysis ~warnings:[] report)

let test_response_explore () =
  let body =
    {|"status": "ok", "cache": "miss", "frontier": {"kernel": "k", "points": []}, "explore": {"variants_enumerated": 6, "points_pruned": 2}, "warnings": [|}
    ^ warning_golden ^ "]}"
  in
  Alcotest.(check string)
    "explore, no id" (without_id body)
    (Protocol.response_explore ~cache:`Miss ~warnings:[ warning ]
       ~stats:explore_stats frontier);
  Alcotest.(check string)
    "explore, id" (with_id body)
    (Protocol.response_explore ~id ~cache:`Miss ~warnings:[ warning ]
       ~stats:explore_stats frontier);
  Alcotest.(check string)
    "explore, bare"
    {|{"status": "ok", "cache": "hit", "frontier": {"kernel": "k", "points": []}, "explore": {}}|}
    (Protocol.response_explore ~cache:`Hit ~warnings:[] ~stats:[] frontier)

let test_response_error () =
  let body = Printf.sprintf {|"status": "error", "diagnostics": [%s, %s]}|}
      diag_golden warning_golden
  in
  Alcotest.(check string)
    "error, no id" (without_id body)
    (Protocol.response_error [ diag; warning ]);
  Alcotest.(check string)
    "error, id" (with_id body)
    (Protocol.response_error ~id [ diag; warning ]);
  Alcotest.(check string)
    "error, empty" {|{"status": "error", "diagnostics": []}|}
    (Protocol.response_error [])

let test_response_stats () =
  let body = {|"status": "ok", "stats": {"served": 3, "tier1_hits": 0}}|} in
  let stats = [ ("served", 3); ("tier1_hits", 0) ] in
  Alcotest.(check string)
    "stats, no id" (without_id body)
    (Protocol.response_stats stats);
  Alcotest.(check string)
    "stats, id" (with_id body)
    (Protocol.response_stats ~id stats);
  Alcotest.(check string)
    "stats, empty" {|{"status": "ok", "stats": {}}|}
    (Protocol.response_stats [])

let test_response_bye () =
  let body = {|"status": "ok", "bye": true}|} in
  Alcotest.(check string) "bye, no id" (without_id body)
    (Protocol.response_bye ());
  Alcotest.(check string) "bye, id" (with_id body)
    (Protocol.response_bye ~id ())

(* The CLI renders sweep points itself, so the golden drives the built
   executable (a dependency of this stanza in test/dune). *)
let test_sweep_point () =
  let ic =
    Unix.open_process_in
      "../bin/srfa_cli.exe sweep example --budgets 64 --algorithms cpa-ra \
       --json"
  in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  Alcotest.(check string)
    "srfa sweep --json"
    {|[
  {"kernel": "example", "algorithm": "cpa-ra", "version": "v3", "budget": 64, "registers": 64, "cycles": 2384, "memory_cycles": 1184, "ram_accesses": 2034, "exec_time_us": 110.665}
]
|}
    out

let () =
  Alcotest.run "json-wire"
    [
      ( "goldens",
        [
          Alcotest.test_case "diagnostic" `Quick test_diag;
          Alcotest.test_case "report" `Quick test_report;
          Alcotest.test_case "response_ok" `Quick test_response_ok;
          Alcotest.test_case "response_explore" `Quick test_response_explore;
          Alcotest.test_case "response_error" `Quick test_response_error;
          Alcotest.test_case "response_stats" `Quick test_response_stats;
          Alcotest.test_case "response_bye" `Quick test_response_bye;
          Alcotest.test_case "sweep point line" `Quick test_sweep_point;
        ] );
    ]
