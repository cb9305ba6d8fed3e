(* Differential oracle for the allocation-free simulator core: a boxed
   reference walk (fresh model, fresh residency tracker stepped over every
   iteration point, Hashtbl memo, string keys — the shape of the pre-arena
   implementation) re-simulates every library kernel at every sweep
   budget, the seeded fuzz campaign and the mat explore variants, and the
   scratch-threaded one-window walk must reproduce its reports and
   profiles exactly. A metamorphic check scales a loop above the shallowest
   reuse window, and a final check pins the allocation budget of a warm
   evaluation. *)

open Srfa_reuse
module Simulator = Srfa_sched.Simulator
module Residency = Srfa_sched.Residency
module Cycle_model = Srfa_sched.Cycle_model
module Allocator = Srfa_core.Allocator
module Cpa_ra = Srfa_core.Cpa_ra
module Flow = Srfa_core.Flow
module Oracle = Srfa_test_helpers.Oracle
module Nest = Srfa_ir.Nest

let budgets = [ 8; 16; 32; 64; 128 ]
let kernels = Srfa_kernels.Kernels.all ()

(* Boxed reference simulator over the public Cycle_model/Residency APIs:
   no scratch, no arena, string-keyed memo regardless of group count.
   Returns the result and the per-iteration cost histogram. *)
let reference_walk ?(config = Simulator.default_config) alloc =
  let analysis = alloc.Allocation.analysis in
  let nest = analysis.Analysis.nest in
  let ngroups = Analysis.num_groups analysis in
  let ram_map = Simulator.ram_map_for config alloc in
  let dfg = Srfa_dfg.Graph.build analysis in
  let model =
    Cycle_model.create ~dfg ~latency:config.Simulator.latency ~ram_map ()
  in
  let residency = Residency.create config.Simulator.residency alloc in
  let memo : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let charged_bits = Array.make (max ngroups 1) false in
  let charged (g : Group.t) = charged_bits.(g.Group.id) in
  let total = ref 0 and ram = ref 0 and hits = ref 0 in
  let group_ram = Array.make ngroups 0 in
  let hist = Hashtbl.create 16 in
  Srfa_ir.Iterspace.iter nest (fun point ->
      Residency.step residency point;
      let buf = Bytes.make ngroups '0' in
      for gid = 0 to ngroups - 1 do
        let resident = Residency.resident residency gid in
        charged_bits.(gid) <- not resident;
        if resident then incr hits
        else begin
          incr ram;
          group_ram.(gid) <- group_ram.(gid) + 1
        end;
        Bytes.set buf gid (if resident then '0' else '1')
      done;
      let key = Bytes.to_string buf in
      let cost =
        match Hashtbl.find_opt memo key with
        | Some m -> m
        | None ->
          let m =
            match config.Simulator.execution with
            | Simulator.Serial -> Cycle_model.makespan model ~charged
            | Simulator.Pipelined ->
              Cycle_model.initiation_interval model ~charged
          in
          Hashtbl.replace memo key m;
          m
      in
      let bucket = cost + config.Simulator.control_overhead in
      Hashtbl.replace hist bucket
        (1 + Option.value ~default:0 (Hashtbl.find_opt hist bucket));
      total := !total + cost);
  let baseline =
    match config.Simulator.execution with
    | Simulator.Serial -> Cycle_model.compute_makespan model
    | Simulator.Pipelined ->
      Cycle_model.initiation_interval model ~charged:(fun _ -> false)
  in
  let iterations = Srfa_ir.Nest.iterations nest in
  let compute_cycles = baseline * iterations in
  let fill =
    match config.Simulator.execution with
    | Simulator.Serial -> 0
    | Simulator.Pipelined -> baseline
  in
  let control_cycles = config.Simulator.control_overhead * iterations in
  ( {
      Simulator.iterations;
      total_cycles = !total + control_cycles + fill;
      memory_cycles = !total - compute_cycles;
      compute_cycles;
      control_cycles;
      ram_accesses = !ram;
      register_hits = !hits;
      group_ram_accesses = group_ram;
    },
    List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) hist []) )

let reference_run ?config alloc = fst (reference_walk ?config alloc)

let show (r : Simulator.result) =
  Format.asprintf "%a groups=[%s]" Simulator.pp_result r
    (String.concat ";"
       (Array.to_list (Array.map string_of_int r.Simulator.group_ram_accesses)))

let check_same name expected got =
  Alcotest.(check string) name (show expected) (show got);
  Alcotest.(check bool) (name ^ " (structural)") true (expected = got)

let feasible analysis budget =
  budget >= Srfa_core.Ordering.feasibility_minimum analysis

(* All kernels x all sweep budgets, one shared scratch per kernel (the
   Flow.sweep reuse pattern), against the boxed reference. *)
let test_differential_pinned () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let prepared = Cpa_ra.prepare analysis in
      let scratch = Simulator.scratch ~dfg:(Cpa_ra.dfg prepared) analysis in
      List.iter
        (fun budget ->
          if feasible analysis budget then begin
            let alloc =
              Allocator.run ~prepared Allocator.Cpa_ra analysis ~budget
            in
            check_same
              (Printf.sprintf "%s budget %d" name budget)
              (reference_run alloc)
              (Simulator.run ~scratch alloc)
          end)
        budgets)
    kernels

(* The dynamic residency policies bypass the rank cache; they must agree
   with the reference walk too. *)
let test_differential_dynamic () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget:64 in
      List.iter
        (fun policy ->
          let config =
            { Simulator.default_config with Simulator.residency = policy }
          in
          check_same
            (Printf.sprintf "%s %s" name (Residency.policy_name policy))
            (reference_run ~config alloc)
            (Simulator.run ~config ~scratch alloc))
        [ Residency.Lru; Residency.Direct_mapped ])
    kernels

(* Degrading the bitmask memo to the bytes-key fallback must not change a
   single number. *)
let test_mask_fallback () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget:64 in
      let degraded =
        { Simulator.default_config with Simulator.mask_group_cap = 1 }
      in
      check_same
        (Printf.sprintf "%s mask fallback" name)
        (Simulator.run alloc)
        (Simulator.run ~config:degraded ~scratch alloc))
    kernels

(* A scratch built for one analysis is ignored for another (fresh state
   built on the fly) instead of corrupting the result. *)
let test_foreign_scratch_ignored () =
  let _, nest_a = List.nth kernels 0 in
  let name_b, nest_b = List.nth kernels 1 in
  let analysis_a = Flow.analyze nest_a in
  let analysis_b = Flow.analyze nest_b in
  let scratch_a = Simulator.scratch analysis_a in
  let alloc_b = Allocator.run Allocator.Cpa_ra analysis_b ~budget:64 in
  check_same
    (Printf.sprintf "%s under foreign scratch" name_b)
    (Simulator.run alloc_b)
    (Simulator.run ~scratch:scratch_a alloc_b)

let test_profile_parity () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      let alloc = Allocator.run Allocator.Cpa_ra analysis ~budget:64 in
      let fresh = Simulator.profile alloc in
      let warm = Simulator.profile ~scratch alloc in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%s profile" name)
        fresh warm;
      Alcotest.(check int)
        (Printf.sprintf "%s profile covers all iterations" name)
        (Srfa_ir.Nest.iterations nest)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 warm))
    kernels

(* --- one-window walk vs the tracked reference -------------------------- *)

(* The fuzz campaign (valid and mask-stress cases) plus every mat explore
   variant, at a size where the reference walk stays quick. *)
let corpus =
  lazy (Oracle.gen_cases () @ Oracle.mat_variants ~size:8 ())

let configs =
  List.concat_map
    (fun execution ->
      List.map
        (fun ram_policy ->
          ( Printf.sprintf "%s/%s"
              (match execution with
              | Simulator.Serial -> "serial"
              | Simulator.Pipelined -> "pipelined")
              (match ram_policy with
              | Simulator.Private_banks -> "private"
              | Simulator.Single_bank -> "single"),
            {
              Simulator.default_config with
              Simulator.execution;
              ram_policy;
              control_overhead = 1;
            } ))
        [ Simulator.Private_banks; Simulator.Single_bank ])
    [ Simulator.Serial; Simulator.Pipelined ]

(* Shallowest window start over the groups: the level the one-window walk
   starts its inner box at. *)
let window_floor analysis =
  Array.fold_left
    (fun w i -> min w (Analysis.window_start analysis i))
    (Nest.depth analysis.Analysis.nest)
    analysis.Analysis.infos

(* A spread of feasible allocations: CPA-RA (every group pinned) and
   FR-RA (only explicitly allocated groups pinned) at the feasibility
   minimum and above. *)
let allocations analysis =
  let floor = Srfa_core.Ordering.feasibility_minimum analysis in
  List.sort_uniq compare [ floor; floor + 3; 16; 64 ]
  |> List.filter (fun b -> b >= floor)
  |> List.concat_map (fun budget ->
         List.map
           (fun algorithm -> Allocator.run algorithm analysis ~budget)
           [ Allocator.Cpa_ra; Allocator.Fr_ra ])

let test_differential_corpus () =
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let scratch = Simulator.scratch analysis in
      List.iter
        (fun alloc ->
          List.iter
            (fun (cname, config) ->
              let label =
                Printf.sprintf "%s %s@%d %s" name
                  alloc.Allocation.algorithm alloc.Allocation.budget cname
              in
              let expected, expected_profile = reference_walk ~config alloc in
              check_same label expected (Simulator.run ~config ~scratch alloc);
              Alcotest.(check (list (pair int int)))
                (label ^ " profile") expected_profile
                (Simulator.profile ~config ~scratch alloc))
            configs)
        (allocations analysis))
    (Lazy.force corpus)

(* The corpus must exercise what the one-window walk relies on: nests
   whose groups open windows at different levels, groups without reuse,
   groups whose window is a single point (carried by the innermost loop),
   and nests with levels above the shallowest window (weight > 1). *)
let test_corpus_coverage () =
  let count p =
    List.length
      (List.filter (fun (_, nest) -> p (Flow.analyze nest)) (Lazy.force corpus))
  in
  let starts analysis =
    Array.to_list analysis.Analysis.infos
    |> List.filter (fun i -> i.Analysis.has_reuse)
    |> List.map (Analysis.window_start analysis)
    |> List.sort_uniq compare
  in
  let exists p analysis = Array.exists p analysis.Analysis.infos in
  let depth analysis = Nest.depth analysis.Analysis.nest in
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "no corpus nest has %s" what)
    [
      ("reuse windows at different levels", count (fun a -> List.length (starts a) > 1));
      ("a group without reuse", count (exists (fun i -> not i.Analysis.has_reuse)));
      ( "window_level = depth + 1",
        count (fun a -> exists (fun i -> i.Analysis.window_level = depth a + 1) a) );
      ( "a single-point reuse window",
        count (fun a ->
            exists (fun i -> i.Analysis.has_reuse && Analysis.window_start a i = depth a) a) );
      ("levels above the shallowest window", count (fun a -> window_floor a > 0));
    ]

(* Rebuild a nest with one loop's trip count multiplied by [k], growing
   each array just enough to keep every index in bounds. Row-major
   linearisation stays injective on in-bounds indices, so the grown
   extents change no element identity the residency walk can see. *)
let scale_loop nest ~level ~k =
  let loops =
    List.mapi
      (fun l (lp : Nest.loop) ->
        Nest.loop lp.Nest.var (if l = level then lp.Nest.count * k else lp.Nest.count))
      nest.Nest.loops
  in
  let count v = (List.find (fun (lp : Nest.loop) -> lp.Nest.var = v) loops).Nest.count in
  let extents = Hashtbl.create 8 in
  List.iter
    (fun (r : Srfa_ir.Expr.ref_) ->
      let d = r.Srfa_ir.Expr.decl in
      let old =
        Option.value ~default:(Array.of_list d.Srfa_ir.Decl.dims)
          (Hashtbl.find_opt extents d.Srfa_ir.Decl.name)
      in
      List.iteri
        (fun dim ix ->
          let hi =
            List.fold_left
              (fun hi (v, c) -> hi + max 0 (c * (count v - 1)))
              (Srfa_ir.Affine.constant ix) (Srfa_ir.Affine.coeffs ix)
          in
          old.(dim) <- max old.(dim) (hi + 1))
        r.Srfa_ir.Expr.index;
      Hashtbl.replace extents d.Srfa_ir.Decl.name old)
    (Nest.refs nest);
  let decl (d : Srfa_ir.Decl.t) =
    match Hashtbl.find_opt extents d.Srfa_ir.Decl.name with
    | None -> d
    | Some dims ->
      Srfa_ir.Decl.make ~bits:d.Srfa_ir.Decl.bits ~storage:d.Srfa_ir.Decl.storage
        d.Srfa_ir.Decl.name (Array.to_list dims)
  in
  let ref_ (r : Srfa_ir.Expr.ref_) =
    Srfa_ir.Expr.ref_ (decl r.Srfa_ir.Expr.decl) r.Srfa_ir.Expr.index
  in
  let rec expr (e : Srfa_ir.Expr.t) =
    match e with
    | Srfa_ir.Expr.Const _ -> e
    | Srfa_ir.Expr.Load r -> Srfa_ir.Expr.Load (ref_ r)
    | Srfa_ir.Expr.Unary (op, a) -> Srfa_ir.Expr.Unary (op, expr a)
    | Srfa_ir.Expr.Binary (op, a, b) -> Srfa_ir.Expr.Binary (op, expr a, expr b)
  in
  Nest.make ~name:nest.Nest.name
    ~arrays:(List.map decl nest.Nest.arrays)
    ~loops
    ~body:
      (List.map
         (fun (Srfa_ir.Expr.Assign (t, e)) -> Srfa_ir.Expr.Assign (ref_ t, expr e))
         nest.Nest.body)

(* Multiplying the trip count of a loop above the shallowest window by k
   multiplies every cycle and access counter, and every profile bucket,
   by exactly k (Serial execution: no one-time pipeline fill). *)
let test_metamorphic_outer_scale () =
  let k = 3 in
  let checked = ref 0 in
  List.iter
    (fun (name, nest) ->
      let analysis = Flow.analyze nest in
      let w = window_floor analysis in
      if w > 0 then begin
        let level = w - 1 in
        let scaled = Flow.analyze (scale_loop nest ~level ~k) in
        List.iter
          (fun alloc ->
            let same =
              Allocation.make ~analysis:scaled ~budget:alloc.Allocation.budget
                ~algorithm:alloc.Allocation.algorithm alloc.Allocation.entries
            in
            List.iter
              (fun (cname, config) ->
                if config.Simulator.execution = Simulator.Serial then begin
                  incr checked;
                  let label = Printf.sprintf "%s x%d at level %d %s" name k level cname in
                  let base = Simulator.run ~config alloc in
                  let times (r : Simulator.result) =
                    {
                      Simulator.iterations = k * r.Simulator.iterations;
                      total_cycles = k * r.Simulator.total_cycles;
                      memory_cycles = k * r.Simulator.memory_cycles;
                      compute_cycles = k * r.Simulator.compute_cycles;
                      control_cycles = k * r.Simulator.control_cycles;
                      ram_accesses = k * r.Simulator.ram_accesses;
                      register_hits = k * r.Simulator.register_hits;
                      group_ram_accesses =
                        Array.map (fun n -> k * n) r.Simulator.group_ram_accesses;
                    }
                  in
                  check_same label (times base) (Simulator.run ~config same);
                  Alcotest.(check (list (pair int int)))
                    (label ^ " profile")
                    (List.map (fun (c, n) -> (c, k * n)) (Simulator.profile ~config alloc))
                    (Simulator.profile ~config same)
                end)
              configs)
          (allocations analysis)
      end)
    (Lazy.force corpus);
  if !checked = 0 then Alcotest.fail "no corpus nest has a level above its windows"

(* Warm evaluations must stay off the allocator: after one warming run,
   a scratch-threaded simulation of the mat kernel allocates under 100 kB
   (the boxed path allocated megabytes per evaluation). *)
let test_allocation_budget () =
  let nest = List.assoc "mat" kernels in
  let analysis = Flow.analyze nest in
  let prepared = Cpa_ra.prepare analysis in
  let scratch = Simulator.scratch ~dfg:(Cpa_ra.dfg prepared) analysis in
  let alloc = Allocator.run ~prepared Allocator.Cpa_ra analysis ~budget:64 in
  ignore (Simulator.run ~scratch alloc);
  let before = Gc.allocated_bytes () in
  ignore (Simulator.run ~scratch alloc);
  let spent = Gc.allocated_bytes () -. before in
  if spent >= 100_000.0 then
    Alcotest.failf "warm evaluation allocated %.0f bytes (budget 100000)"
      spent

let () =
  Alcotest.run "simulator_scratch"
    [
      ( "differential",
        [
          Alcotest.test_case "pinned: kernels x budgets vs boxed reference"
            `Quick test_differential_pinned;
          Alcotest.test_case "dynamic policies vs boxed reference" `Quick
            test_differential_dynamic;
          Alcotest.test_case "bytes-key memo fallback identical" `Quick
            test_mask_fallback;
          Alcotest.test_case "foreign scratch ignored" `Quick
            test_foreign_scratch_ignored;
          Alcotest.test_case "profile parity and coverage" `Quick
            test_profile_parity;
        ] );
      ( "one-window walk",
        [
          Alcotest.test_case
            "pinned: fuzz campaign and mat variants vs tracked reference"
            `Quick test_differential_corpus;
          Alcotest.test_case "corpus covers the window shapes" `Quick
            test_corpus_coverage;
          Alcotest.test_case "scaling a loop above W scales every counter"
            `Quick test_metamorphic_outer_scale;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm evaluation allocation budget" `Quick
            test_allocation_budget;
        ] );
    ]
