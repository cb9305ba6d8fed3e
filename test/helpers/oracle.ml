(* Enumeration oracles for the closed-form reuse analysis and the
   one-window simulator walk, plus the corpus of nests they are gated on.

   The shipped library counts distinct elements as a sumset
   (Analysis.box_distinct) and simulates Pinned residency over one inner
   box (Simulator); the functions here walk every point with hash sets,
   the way the library used to, so the two can be compared exactly. *)

open Srfa_ir
module Analysis = Srfa_reuse.Analysis
module Kernelspace = Srfa_reuse.Kernelspace

(* Distinct elements a group touches over the whole nest: one hash-set
   insert per iteration point. *)
let distinct_by_walk analysis (i : Analysis.info) =
  let seen = Hashtbl.create 256 in
  Iterspace.iter analysis.Analysis.nest (fun point ->
      Hashtbl.replace seen (Analysis.element_index i point) ());
  Hashtbl.length seen

(* Distinct elements during one reuse window: outer levels at 0, the
   carrying level sweeping [0, delta), inner levels over their full
   ranges. *)
let count_window_distinct ~counts ~level ~delta coeffs =
  let depth = Array.length counts in
  let seen = Hashtbl.create 64 in
  let point = Array.make depth 0 in
  let hi l =
    if l < level - 1 then 0
    else if l = level - 1 then min delta counts.(l) - 1
    else counts.(l) - 1
  in
  let rec walk l =
    if l = depth then begin
      let e = ref 0 in
      Array.iteri (fun l c -> e := !e + (c * point.(l))) coeffs;
      Hashtbl.replace seen !e ()
    end
    else
      for c = 0 to hi l do
        point.(l) <- c;
        walk (l + 1)
      done
  in
  walk 0;
  Hashtbl.length seen

(* [nu] by enumeration: 1 without reuse, else the window's distinct
   elements. *)
let nu_by_walk analysis (i : Analysis.info) =
  if not i.Analysis.has_reuse then 1
  else
    let counts = Array.of_list (Nest.trip_counts analysis.Analysis.nest) in
    let delta =
      Option.value ~default:1 (Kernelspace.carry_distance i.Analysis.reuse)
    in
    count_window_distinct ~counts ~level:i.Analysis.window_level ~delta
      i.Analysis.lin_coeffs

(* Distinct values of [sum_l c.(l) * k_l] over a box, by brute force. *)
let box_distinct_by_walk ~counts coeffs =
  count_window_distinct ~counts ~level:0 ~delta:1 coeffs

(* --- corpus ------------------------------------------------------------ *)

(* Every shipped kernels_src/*.k file. *)
let kernel_sources () =
  let dir = Helpers.find_repo_file "kernels_src" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".k")
  |> List.sort String.compare
  |> List.map (fun f ->
         ( "kernels_src/" ^ f,
           Srfa_frontend.Parser.parse_file (Filename.concat dir f) ))

(* Every library kernel at its default size. *)
let library_kernels () =
  (("example", Srfa_kernels.Kernels.example ()) :: Srfa_kernels.Kernels.all ())
  @ Srfa_kernels.Extra.all ()
  @ [ ("synthetic-cut", Srfa_kernels.Extra.synthetic_cut ()) ]

(* The valid and mask-stress cases of a fuzz campaign, parsed. *)
let gen_cases ?(seed = 42) ?(cases = 200) () =
  List.filter_map
    (fun id ->
      let case = Srfa_fuzzer.Gen.generate ~seed ~id in
      match case.Srfa_fuzzer.Gen.kind with
      | Srfa_fuzzer.Gen.Broken _ -> None
      | Srfa_fuzzer.Gen.Valid | Srfa_fuzzer.Gen.Mask_stress -> (
        match Srfa_frontend.Parser.parse_result case.Srfa_fuzzer.Gen.source with
        | Ok nest ->
          Some
            ( Printf.sprintf "gen %d/%d (%s)" seed id
                (Srfa_fuzzer.Gen.kind_name case.Srfa_fuzzer.Gen.kind),
              nest )
        | Error _ -> None))
    (List.init cases Fun.id)

(* Every variant the explorer enumerates for the mat space: each strip-mine
   with factors 2 and 4 (and none) times every legal loop order — the same
   enumeration as Flow.Core.explore, before deduplication. *)
let mat_variants ?(size = 32) () =
  let nest = Srfa_kernels.Kernels.mat ~size () in
  let tilings = None :: List.map Option.some (Tile.steps nest ~factors:[ 2; 4 ]) in
  List.concat_map
    (fun tiling ->
      let tnest, tag =
        match tiling with
        | None -> (nest, "untiled")
        | Some (level, factor) ->
          (Tile.tile nest ~level ~factor, Printf.sprintf "tile %d/%d" level factor)
      in
      let orders, _ = Permute.legal_orders tnest in
      let identity = List.init (Nest.depth tnest) Fun.id in
      List.map
        (fun order ->
          ( Printf.sprintf "mat%d %s order %s" size tag
              (String.concat "" (List.map string_of_int order)),
            if order = identity then tnest
            else Permute.interchange tnest ~order ))
        orders)
    tilings
