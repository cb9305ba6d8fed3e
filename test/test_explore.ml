(* The design-space explorer's contract (DESIGN.md §17): the frontier
   Flow.Core.explore returns is byte-identical whether the dominance
   cuts are on or off, whether the memoised or the naive evaluation
   path runs, and whether the variants fan out over a pool or run
   serially. On top of the differential checks, a golden pins the
   frontier JSON of the paper's running example, the entries memo is
   shown to actually fire on a saturating ladder, non-permutable nests
   degrade to the identity with W-GUARD-EXPLORE instead of raising,
   and certification composes (every real point carries an outcome). *)

open Srfa_ir
open Srfa_test_helpers
module Core = Srfa_core.Flow.Core
module Allocator = Srfa_core.Allocator
module Pool = Srfa_util.Pool

let json ?pool space nest =
  Core.frontier_json (Core.explore ?pool ~space Core.default_config nest)

(* A space with several variants so the pool and the pruner both have
   real work: all 6 orders of the running example plus one strip-mine
   factor, two algorithms. *)
let example_space =
  {
    Core.default_space with
    Core.orders = Core.All_orders;
    tile_factors = [ 2 ];
    space_budgets = [ 4; 8; 16 ];
    space_algorithms = [ Allocator.Cpa_ra; Allocator.Fr_ra ];
  }

(* Non-associative reduction: acc[i] -= x[j] is not reorderable, so
   All_orders must degrade to the identity (same fixture as
   test_permute's rejection tests). *)
let subred () =
  let open Builder in
  let x = input "x" [ 4 ] and acc = output "acc" [ 4 ] in
  let i = idx "i" and j = idx "j" in
  nest "subred" ~loops:[ ("i", 4); ("j", 4) ]
    [ at acc [ i ] <-- (acc.%[ [ i ] ] - x.%[ [ j ] ]) ]

let test_pruned_equals_exhaustive () =
  List.iter
    (fun (name, nest) ->
      let space = { example_space with Core.orders = Core.All_orders } in
      let pruned = json space nest in
      let exhaustive = json { space with Core.prune = false } nest in
      Alcotest.(check string) (name ^ ": pruned == exhaustive") exhaustive
        pruned)
    [ ("example", Helpers.example ()); ("subred", subred ()) ]

let test_memoised_equals_naive () =
  let nest = Helpers.example () in
  let memoised = json example_space nest in
  let naive =
    json { example_space with Core.naive = true; Core.prune = false } nest
  in
  Alcotest.(check string) "memoised == naive" naive memoised

let test_parallel_equals_serial () =
  let nest = Helpers.example () in
  let serial = json example_space nest in
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check string) "jobs=4 == jobs=1" serial
        (json ~pool example_space nest))

let test_memo_fires_on_saturating_ladder () =
  (* Budgets at and beyond full replacement produce identical entries,
     so one simulation must serve the whole tail of the ladder. *)
  let nest = Helpers.example () in
  let full =
    Srfa_reuse.Analysis.total_registers_full (Srfa_core.Flow.analyze nest)
  in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ full; full + 16; full + 32 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  let f = Core.explore ~space Core.default_config nest in
  Alcotest.(check bool) "memo hits >= 2" true
    (f.Core.frontier_stats.Core.sim_memo_hits >= 2)

let test_nonpermutable_degrades_with_warning () =
  let nest = subred () in
  let space = { Core.default_space with Core.orders = Core.All_orders } in
  let f = Core.explore ~space Core.default_config nest in
  Alcotest.(check bool) "frontier non-empty" true (f.Core.points <> []);
  List.iter
    (fun (p : Core.explore_point) ->
      Alcotest.(check (list int)) "identity order only" [ 0; 1 ] p.Core.order)
    f.Core.points;
  Alcotest.(check bool) "W-GUARD-EXPLORE emitted" true
    (List.exists
       (fun (d : Srfa_util.Diag.t) -> d.Srfa_util.Diag.code = "W-GUARD-EXPLORE")
       f.Core.frontier_warnings)

let test_explicit_illegal_orders_skipped () =
  let nest = subred () in
  let space =
    { Core.default_space with Core.orders = Core.Orders [ [ 1; 0 ] ] }
  in
  let f = Core.explore ~space Core.default_config nest in
  Alcotest.(check int) "illegal order skipped" 1
    f.Core.frontier_stats.Core.orders_skipped;
  Alcotest.(check bool) "identity still evaluated" true (f.Core.points <> [])

let test_order_explorer_degrades () =
  let candidates, warnings =
    Srfa_core.Order_explorer.explore Allocator.Cpa_ra (subred ())
  in
  Alcotest.(check int) "identity candidate only" 1 (List.length candidates);
  Alcotest.(check bool) "W-GUARD-EXPLORE emitted" true
    (List.exists
       (fun (d : Srfa_util.Diag.t) -> d.Srfa_util.Diag.code = "W-GUARD-EXPLORE")
       warnings)

let test_certify_composes () =
  let nest = Helpers.example () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8 ];
      Core.certify = true;
    }
  in
  let f = Core.explore ~space Core.default_config nest in
  List.iter
    (fun (p : Core.explore_point) ->
      if p.Core.floor then
        Alcotest.(check bool)
          "floor points carry no certification" true
          (p.Core.point_cert = None)
      else
        Alcotest.(check bool)
          (Printf.sprintf "point %s@%d certified" p.Core.point_algorithm
             p.Core.point_budget)
          true
          (p.Core.point_cert <> None))
    f.Core.points;
  (* Certification does not break the pruning differential. *)
  let exhaustive =
    Core.explore ~space:{ space with Core.prune = false } Core.default_config
      nest
  in
  Alcotest.(check string) "certified: pruned == exhaustive"
    (Core.frontier_json exhaustive)
    (Core.frontier_json f)

(* Budget 4 sits below the example's feasibility minimum (5), so the
   ladder keeps budget 8 plus the unconditional floor point at the
   minimum itself. Any intentional model change must update this pin
   consciously, like test_goldens. *)
let golden =
  {|{
  "kernel": "example",
  "points": [
    {"label": "untiled | i j k", "order": [0, 1, 2], "loop_vars": ["i", "j", "k"], "budget": 8, "algorithm": "cpa-ra", "floor": false, "cycles": 2919, "registers": 8, "slices": 414, "clock_ns": 45.340, "exec_time_us": 132.347},
    {"label": "untiled | i j k", "order": [0, 1, 2], "loop_vars": ["i", "j", "k"], "budget": 5, "algorithm": "floor", "floor": true, "cycles": 3000, "registers": 5, "slices": 310, "clock_ns": 41.350, "exec_time_us": 124.050}
  ]
}|}

let test_frontier_json_golden () =
  let nest = Helpers.example () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  Alcotest.(check string) "frontier JSON pinned" golden
    (json space nest)

let test_csv_shape () =
  let nest = Helpers.example () in
  let space =
    {
      Core.default_space with
      Core.orders = Core.Identity_order;
      space_budgets = [ 4; 8 ];
      space_algorithms = [ Allocator.Cpa_ra ];
    }
  in
  let f = Core.explore ~space Core.default_config nest in
  let lines =
    String.split_on_char '\n' (String.trim (Core.frontier_csv f))
  in
  Alcotest.(check string) "csv header"
    "kernel,label,order,budget,algorithm,floor,cycles,registers,slices,clock_ns,exec_time_us"
    (List.hd lines);
  Alcotest.(check int) "one row per frontier point"
    (List.length f.Core.points)
    (List.length lines - 1)

let test_compact_json_single_line () =
  let nest = Helpers.example () in
  let f =
    Core.explore
      ~space:{ example_space with Core.orders = Core.Identity_order }
      Core.default_config nest
  in
  let compact = Core.frontier_json ~compact:true f in
  Alcotest.(check bool) "no newlines" false (String.contains compact '\n')

(* The one order-spec reader behind `srfa explore --orders` and the
   daemon's explore op: every spelling either front end accepted parses
   to the value it had, so frontier-tier keys do not move. *)
let test_parse_orders () =
  let parsed =
    Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<spec>") ( = )
  in
  List.iter
    (fun (spec, want) ->
      Alcotest.(check (result parsed string))
        spec (Ok want) (Core.parse_orders spec))
    [
      ("all", Core.All_orders);
      ("ALL", Core.All_orders);
      ("identity", Core.Identity_order);
      ("id", Core.Identity_order);
      ("Id", Core.Identity_order);
      ("0,2,1;2,0,1", Core.Orders [ [ 0; 2; 1 ]; [ 2; 0; 1 ] ]);
      (" 1 , 0 ", Core.Orders [ [ 1; 0 ] ]);
    ];
  List.iter
    (fun spec ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" spec)
        true
        (Result.is_error (Core.parse_orders spec)))
    [ "0,x"; "bogus"; ""; "0,1;"; " all" ]

let () =
  Alcotest.run "explore"
    [
      ( "differential",
        [
          Alcotest.test_case "pruned == exhaustive" `Quick
            test_pruned_equals_exhaustive;
          Alcotest.test_case "memoised == naive" `Quick
            test_memoised_equals_naive;
          Alcotest.test_case "jobs=4 == jobs=1" `Quick
            test_parallel_equals_serial;
        ] );
      ( "perf layers",
        [
          Alcotest.test_case "memo fires when the ladder saturates" `Quick
            test_memo_fires_on_saturating_ladder;
        ] );
      ( "guards",
        [
          Alcotest.test_case "non-permutable degrades with W-GUARD-EXPLORE"
            `Quick test_nonpermutable_degrades_with_warning;
          Alcotest.test_case "explicit illegal orders skipped" `Quick
            test_explicit_illegal_orders_skipped;
          Alcotest.test_case "Order_explorer degrades without raising" `Quick
            test_order_explorer_degrades;
        ] );
      ( "composition",
        [
          Alcotest.test_case "certify composes" `Quick test_certify_composes;
          Alcotest.test_case "frontier JSON golden" `Quick
            test_frontier_json_golden;
          Alcotest.test_case "CSV shape" `Quick test_csv_shape;
          Alcotest.test_case "compact JSON is one line" `Quick
            test_compact_json_single_line;
          Alcotest.test_case "order-spec parser" `Quick test_parse_orders;
        ] );
    ]
