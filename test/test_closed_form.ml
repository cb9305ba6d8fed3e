(* The closed-form reuse counts (Analysis.box_distinct) against the
   enumeration oracles in test/helpers: [distinct] and [nu] of every group
   must equal a hash-set walk of the full box and of one reuse window, on
   the shipped kernel sources, the library kernels, a seeded fuzz campaign
   (mask-stress cases included), every explorer variant of the mat space,
   and random boxes. Also pins a sparse huge-stride reference, whose
   count must come from its box rather than its span, as answered (the
   overflowing nests are goldens in test_bad_kernels). *)

open Srfa_reuse
module Oracle = Srfa_test_helpers.Oracle
module Parser = Srfa_frontend.Parser
module Diag = Srfa_util.Diag

let check_nest (name, nest) =
  let analysis = Analysis.analyze nest in
  Array.iter
    (fun (i : Analysis.info) ->
      let label what =
        Printf.sprintf "%s %s %s" name (Group.name i.Analysis.group) what
      in
      Alcotest.(check int) (label "distinct")
        (Oracle.distinct_by_walk analysis i) i.Analysis.distinct;
      Alcotest.(check int) (label "nu") (Oracle.nu_by_walk analysis i)
        i.Analysis.nu)
    analysis.Analysis.infos

let check_corpus corpus () =
  let corpus = corpus () in
  if corpus = [] then Alcotest.fail "empty corpus";
  List.iter check_nest corpus

let test_gen_has_mask_stress () =
  let mask =
    List.filter
      (fun (name, _) -> Srfa_test_helpers.Helpers.contains_substring name "mask")
      (Oracle.gen_cases ())
  in
  Alcotest.(check bool) "campaign includes mask-stress cases" true (mask <> [])

(* Random boxes: negative and zero coefficients, unit trip counts, strides
   with a common factor, and spans far wider than the box. *)
let gen_box =
  let open QCheck.Gen in
  let* depth = int_range 1 4 in
  let* counts = list_repeat depth (oneof [ return 1; int_range 1 6 ]) in
  let* scale = oneofl [ 1; 1; 2; 3; 6 ] in
  let coeff =
    frequency
      [
        (4, int_range (-7) 7);
        (1, return 0);
        (1, map (fun c -> c * 1_000_003) (int_range (-3) 3));
        (1, map (fun c -> c * 100_000_000_000) (int_range 1 3));
      ]
  in
  let* coeffs = list_repeat depth coeff in
  return (Array.of_list counts, Array.of_list (List.map (fun c -> c * scale) coeffs))

let prop_box_distinct =
  QCheck.Test.make ~count:2000 ~name:"box_distinct = enumeration on random boxes"
    (QCheck.make gen_box ~print:(fun (counts, coeffs) ->
         let show a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
         Printf.sprintf "counts=[%s] coeffs=[%s]" (show counts) (show coeffs)))
    (fun (counts, coeffs) ->
      Analysis.box_distinct ~counts coeffs
      = Oracle.box_distinct_by_walk ~counts coeffs)

let test_box_distinct_edges () =
  let check name expected counts coeffs =
    Alcotest.(check int) name expected (Analysis.box_distinct ~counts coeffs)
  in
  check "no levels" 1 [||] [||];
  check "all zero" 1 [| 5; 7 |] [| 0; 0 |];
  check "unit trips" 1 [| 1; 1 |] [| 3; 9 |];
  check "i + j" 9 [| 5; 5 |] [| 1; 1 |];
  check "i - j" 9 [| 5; 5 |] [| 1; -1 |];
  check "gcd 4" 5 [| 5 |] [| -4 |];
  check "2i + 3j holes" 6 [| 3; 2 |] [| 2; 3 |];
  check "sparse huge stride" 12 [| 4; 3 |] [| 100_000_000_000; 1 |]

(* a[100000000000*i + j]: the offset span (3e11) dwarfs the 12-point box,
   so the count must come from the box, not from a bitmap over the span. *)
let sparse_source =
  {|kernel sparse {
  input  int a[1000000000000];
  output int y[4][3];

  for (i = 0; i < 4; i++)
    for (j = 0; j < 3; j++)
      y[i][j] = a[100000000000 * i + j];
}|}

let test_sparse_huge_stride () =
  match Parser.parse_result sparse_source with
  | Error (d :: _) -> Alcotest.failf "rejected: %s" d.Diag.message
  | Error [] -> Alcotest.fail "rejected without diagnostics"
  | Ok nest -> (
    let analysis = Analysis.analyze nest in
    let a = Srfa_test_helpers.Helpers.info_named analysis "a[100000000000*i+j]" in
    Alcotest.(check int) "distinct" 12 a.Analysis.distinct;
    check_nest ("sparse", nest);
    let module Core = Srfa_core.Flow.Core in
    let config = { Core.default_config with Core.budget = 16 } in
    match Core.checked ~config nest with
    | Ok _ -> ()
    | Error (d :: _) -> Alcotest.failf "no answer: %s %s" d.Diag.code d.Diag.message
    | Error [] -> Alcotest.fail "no answer and no diagnostics")

let () =
  Alcotest.run "closed_form"
    [
      ( "oracle",
        [
          Alcotest.test_case "kernels_src/*.k" `Quick
            (check_corpus Oracle.kernel_sources);
          Alcotest.test_case "library kernels" `Quick
            (check_corpus Oracle.library_kernels);
          Alcotest.test_case "fuzz campaign seed 42" `Quick
            (check_corpus (fun () -> Oracle.gen_cases ()));
          Alcotest.test_case "fuzz campaign covers mask-stress" `Quick
            test_gen_has_mask_stress;
          Alcotest.test_case "mat explore variants" `Quick
            (check_corpus (fun () -> Oracle.mat_variants ()));
        ] );
      ( "boxes",
        [
          Alcotest.test_case "edge cases" `Quick test_box_distinct_edges;
          QCheck_alcotest.to_alcotest prop_box_distinct;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "sparse huge-stride kernel answered" `Quick
            test_sparse_huge_stride;
        ] );
    ]
