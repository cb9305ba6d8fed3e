open Srfa_reuse
open Srfa_test_helpers

let analysis () = Helpers.analyze (Helpers.example ())

let check_info name ~nu ~accesses ~distinct ~saved ~level =
  let i = Helpers.info_named (analysis ()) name in
  Alcotest.(check int) (name ^ " nu") nu i.Analysis.nu;
  Alcotest.(check int) (name ^ " accesses") accesses i.Analysis.accesses;
  Alcotest.(check int) (name ^ " distinct") distinct i.Analysis.distinct;
  Alcotest.(check int) (name ^ " saved") saved i.Analysis.saved_full;
  Alcotest.(check int) (name ^ " window level") level i.Analysis.window_level

(* The recovered Fig. 1/Fig. 2 quantities (DESIGN.md §4). *)
let test_example_a () = check_info "a[k]" ~nu:30 ~accesses:600 ~distinct:30 ~saved:570 ~level:1
let test_example_b () = check_info "b[k][j]" ~nu:600 ~accesses:600 ~distinct:600 ~saved:0 ~level:1
let test_example_c () = check_info "c[j]" ~nu:20 ~accesses:600 ~distinct:20 ~saved:580 ~level:1
let test_example_d () = check_info "d[i][k]" ~nu:30 ~accesses:600 ~distinct:30 ~saved:570 ~level:2

let test_example_e () =
  let i = Helpers.info_named (analysis ()) "e[i][j][k]" in
  Alcotest.(check bool) "no reuse" false i.Analysis.has_reuse;
  Alcotest.(check int) "nu 1" 1 i.Analysis.nu;
  Alcotest.(check int) "saved 0" 0 i.Analysis.saved_full

let test_benefit_cost () =
  let an = analysis () in
  let bc name = (Helpers.info_named an name).Analysis.benefit_cost in
  Alcotest.(check (float 0.001)) "c" 29.0 (bc "c[j]");
  Alcotest.(check (float 0.001)) "a" 19.0 (bc "a[k]");
  Alcotest.(check (float 0.001)) "d" 19.0 (bc "d[i][k]");
  Alcotest.(check (float 0.001)) "b" 0.0 (bc "b[k][j]")

let test_total_full () =
  Alcotest.(check int) "sum of nu" (30 + 600 + 20 + 30 + 1)
    (Analysis.total_registers_full (analysis ()))

let test_fir_windows () =
  let an = Helpers.analyze (Srfa_kernels.Kernels.fir ~taps:8 ~samples:32 ()) in
  let x = Helpers.info_named an "x[i+j]" in
  Alcotest.(check int) "x window = taps" 8 x.Analysis.nu;
  Alcotest.(check int) "x carried by i" 1 x.Analysis.window_level;
  let y = Helpers.info_named an "y[i]" in
  Alcotest.(check int) "accumulator nu" 1 y.Analysis.nu;
  Alcotest.(check bool) "accumulator has reuse" true y.Analysis.has_reuse

let test_element_index () =
  let an = analysis () in
  let b = Helpers.info_named an "b[k][j]" in
  (* b[k][j] linearises to 20*k + j. *)
  Alcotest.(check int) "b element" ((20 * 7) + 3)
    (Analysis.element_index b [| 0; 3; 7 |])

let test_rank_affine_simple () =
  let an = analysis () in
  let check name expected =
    match Analysis.rank_affine an (Helpers.info_named an name) with
    | Some coeffs -> Alcotest.(check (array int)) name expected coeffs
    | None -> Alcotest.failf "%s: expected affine rank" name
  in
  check "a[k]" [| 0; 0; 1 |];
  check "c[j]" [| 0; 1; 0 |];
  check "d[i][k]" [| 0; 0; 1 |];
  check "b[k][j]" [| 0; 30; 1 |]

let test_rank_affine_none_for_bic_image () =
  let an = Helpers.analyze (Helpers.small_bic ()) in
  let im = Helpers.info_named an "im[r+u][c+v]" in
  Alcotest.(check bool)
    "coupled 2-D window is not affine-ranked" true
    (Analysis.rank_affine an im = None);
  let t = Helpers.info_named an "t[u][v]" in
  Alcotest.(check bool)
    "template window is affine-ranked" true
    (Analysis.rank_affine an t <> None)

let test_rank_affine_none_has_no_reuse_group () =
  let an = analysis () in
  let e = Helpers.info_named an "e[i][j][k]" in
  Alcotest.(check bool) "no-reuse group has no rank" true
    (Analysis.rank_affine an e = None)

(* Tracker semantics on the example: residency of each group at chosen
   iteration points, matching the Fig. 2 accounting. *)
let test_tracker_residency () =
  let an = analysis () in
  let tr = Analysis.Tracker.create an in
  let a_id = (Helpers.info_named an "a[k]").Analysis.group.Group.id in
  let b_id = (Helpers.info_named an "b[k][j]").Analysis.group.Group.id in
  let c_id = (Helpers.info_named an "c[j]").Analysis.group.Group.id in
  Srfa_ir.Iterspace.iter an.Analysis.nest (fun point ->
      Analysis.Tracker.step tr point;
      let j = point.(1) and k = point.(2) in
      (* a[k]'s slot rank is k. *)
      Alcotest.(check bool) "a resident iff k < 16"
        (k < 16)
        (Analysis.Tracker.resident tr a_id ~beta:16 ~pinned:true);
      (* b's slot rank is 30j + k. *)
      Alcotest.(check bool) "b resident iff 30j+k < 16"
        ((30 * j) + k < 16)
        (Analysis.Tracker.resident tr b_id ~beta:16 ~pinned:true);
      (* c's slot rank is j; a single register covers j = 0. *)
      Alcotest.(check bool) "c resident iff j = 0" (j = 0)
        (Analysis.Tracker.resident tr c_id ~beta:1 ~pinned:true);
      (* unpinned entries never claim residency. *)
      Alcotest.(check bool) "unpinned never resident" false
        (Analysis.Tracker.resident tr a_id ~beta:30 ~pinned:false))

(* rank_affine and the tracker must agree wherever the former exists. *)
let test_rank_affine_matches_tracker () =
  let check_kernel (_, nest) =
    let an = Helpers.analyze nest in
    let ranked =
      Array.to_list an.Analysis.infos
      |> List.filter_map (fun (i : Analysis.info) ->
             match Analysis.rank_affine an i with
             | Some coeffs -> Some (i.Analysis.group.Group.id, coeffs)
             | None -> None)
    in
    let tr = Analysis.Tracker.create an in
    Srfa_ir.Iterspace.iter an.Analysis.nest (fun point ->
        Analysis.Tracker.step tr point;
        List.iter
          (fun (gid, coeffs) ->
            let predicted = ref 0 in
            Array.iteri
              (fun l c -> predicted := !predicted + (c * point.(l)))
              coeffs;
            Alcotest.(check int) "rank agrees" !predicted
              (Analysis.Tracker.slot_rank tr gid))
          ranked)
  in
  List.iter check_kernel (Helpers.small_kernels ())

(* One window's ranks, indexed by a point's execution-order rank modulo
   the window size, are the tracker's ranks at every point. *)
let test_window_ranks_match_tracker () =
  let check_kernel (name, nest) =
    let an = Helpers.analyze nest in
    let windows = Array.map (Analysis.window_ranks an) an.Analysis.infos in
    let tr = Analysis.Tracker.create an in
    let idx = ref 0 in
    Srfa_ir.Iterspace.iter an.Analysis.nest (fun point ->
        Analysis.Tracker.step tr point;
        Array.iteri
          (fun gid window ->
            Alcotest.(check int)
              (Printf.sprintf "%s group %d at %d" name gid !idx)
              (Analysis.Tracker.slot_rank tr gid)
              window.(!idx mod Array.length window))
          windows;
        incr idx)
  in
  List.iter check_kernel (Helpers.small_kernels ())

let () =
  Alcotest.run "analysis"
    [
      ( "fig1 quantities",
        [
          Alcotest.test_case "a[k]" `Quick test_example_a;
          Alcotest.test_case "b[k][j]" `Quick test_example_b;
          Alcotest.test_case "c[j]" `Quick test_example_c;
          Alcotest.test_case "d[i][k]" `Quick test_example_d;
          Alcotest.test_case "e[i][j][k]" `Quick test_example_e;
          Alcotest.test_case "benefit/cost" `Quick test_benefit_cost;
          Alcotest.test_case "total full registers" `Quick test_total_full;
        ] );
      ( "windows",
        [
          Alcotest.test_case "fir windows" `Quick test_fir_windows;
          Alcotest.test_case "element index" `Quick test_element_index;
          Alcotest.test_case "rank affine simple" `Quick
            test_rank_affine_simple;
          Alcotest.test_case "rank affine opaque for BIC image" `Quick
            test_rank_affine_none_for_bic_image;
          Alcotest.test_case "rank affine none without reuse" `Quick
            test_rank_affine_none_has_no_reuse_group;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "residency on the example" `Quick
            test_tracker_residency;
          Alcotest.test_case "rank affine matches tracker" `Slow
            test_rank_affine_matches_tracker;
          Alcotest.test_case "window ranks match tracker" `Quick
            test_window_ranks_match_tracker;
        ] );
    ]
