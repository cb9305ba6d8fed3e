open Srfa_reuse
module Diag = Srfa_util.Diag
module Trace = Srfa_util.Trace

(* ---- pure core --------------------------------------------------------

   Everything below [module Core] is deterministic value-to-value
   computation: (parsed kernel, device/config, algorithm, budget,
   scratch) -> report. No filesystem, no formatters, no channels, no
   exit codes — trace sinks are injected by the caller and the in-memory
   collector is the only one Core creates itself. The IO shell (the
   top-level [Flow] functions, the CLI, the serve daemon) owns all
   rendering and channel state, which is what lets Core values
   ([prepared], reports) be cached and reused across requests. *)

module Core = struct
  type guards = { cut_work_limit : int option; event_model_cap : int }

  let default_guards =
    { cut_work_limit = Some 200_000; event_model_cap = 100_000 }

  type config = {
    budget : int;
    sim : Srfa_sched.Simulator.config;
    clock_params : Srfa_estimate.Clock.params;
    guards : guards;
  }

  let default_config =
    {
      budget = 64;
      sim = Srfa_sched.Simulator.default_config;
      clock_params = Srfa_estimate.Clock.default_params;
      guards = default_guards;
    }

  let analyze nest = Analysis.analyze nest

  let allocation ?(config = default_config) ?trace ?prepared ?sim_scratch
      algorithm analysis =
    Allocator.run ~latency:config.sim.Srfa_sched.Simulator.latency ?trace
      ?cut_work_limit:config.guards.cut_work_limit ?prepared
      ~sim_config:config.sim ?sim_scratch algorithm analysis
      ~budget:config.budget

  (* The caller's sink (CLI --trace, bench) tees with an in-memory collector
     so the report can summarise the decision stream either way. *)
  let tee_collector trace =
    let collect, events = Trace.collector () in
    let sink =
      if Trace.enabled trace then
        Trace.make (fun e ->
            Trace.emit trace (fun () -> e);
            Trace.emit collect (fun () -> e))
      else collect
    in
    (sink, events)

  let evaluate_analysis ?(trace = Trace.null) ?prepared ?sim_scratch config
      algorithm analysis =
    let sink, events = tee_collector trace in
    let alloc =
      allocation ~config ~trace:sink ?prepared ?sim_scratch algorithm analysis
    in
    (* Summarise the allocation decisions only (fixed before the simulator
       appends its own guard events to the same stream). *)
    let trace_summary = Trace.summary (events ()) in
    Srfa_estimate.Report.build ~sim_config:config.sim
      ~clock_params:config.clock_params ~trace:sink ~trace_summary ?sim_scratch
      ~version:(Allocator.version_label algorithm)
      alloc

  (* ---- prepared kernels ---------------------------------------------- *)

  (* Every budget-independent product of one parsed kernel, bundled so a
     caller (the sweep, the serve tier-1 cache) pays for analysis, CPA
     scratch and the graph build exactly once per kernel. *)
  type prepared = {
    nest : Srfa_ir.Nest.t;
    analysis : Analysis.t;
    cpa : Cpa_ra.prepared;
    dfg : Srfa_dfg.Graph.t;
    minimum : int;
  }

  let prepare nest =
    let analysis = analyze nest in
    let cpa = Cpa_ra.prepare analysis in
    {
      nest;
      analysis;
      cpa;
      dfg = Cpa_ra.dfg cpa;
      minimum = Ordering.feasibility_minimum analysis;
    }

  let scratch ~config prepared =
    Srfa_sched.Simulator.scratch ~config:config.sim ~dfg:prepared.dfg
      prepared.analysis

  let evaluate_prepared ?trace ?sim_scratch config algorithm prepared =
    evaluate_analysis ?trace ~prepared:prepared.cpa ?sim_scratch config
      algorithm prepared.analysis

  (* ---- checked pipeline ---------------------------------------------- *)

  (* Guard trips announce themselves on the trace; translating the collected
     events into warning diagnostics here keeps the guard sites free of any
     Diag dependency. *)
  let warnings_of_events events =
    let field name (e : Trace.event) =
      match List.assoc_opt name e.Trace.fields with
      | Some (Trace.Int v) -> string_of_int v
      | Some (Trace.String s) -> s
      | Some (Trace.Bool b) -> string_of_bool b
      | Some (Trace.Float f) -> string_of_float f
      | Some (Trace.List _) | None -> "?"
    in
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.name with
        | "fallback.pr_ra" ->
          Some
            (Diag.warning ~code:"W-GUARD-CUT"
               "cut work limit exceeded; CPA-RA fell back to PR-RA"
               ~context:
                 [
                   ("work_limit", field "work_limit" e);
                   ("bfs_phases", field "bfs_phases" e);
                   ("augmenting_paths", field "augmenting_paths" e);
                 ])
        | "guard.mask" ->
          Some
            (Diag.warning ~code:"W-GUARD-MASK"
               "group count exceeds the bitmask memo cap; simulator degraded \
                to the string-keyed memo"
               ~context:
                 [ ("groups", field "groups" e); ("cap", field "cap" e) ])
        | _ -> None)
      events

  (* The body shared by the nest-at-a-time entry point and the
     prepared-kernel one: allocate, report, translate guard events into
     warnings. Never raises. *)
  let checked_prepared ?(trace = Trace.null) ?sim_scratch config algorithm
      prepared =
    let sink, events = tee_collector trace in
    match
      let sim_scratch =
        match sim_scratch with
        | Some s -> s
        | None ->
          Srfa_sched.Simulator.scratch ~config:config.sim ~dfg:prepared.dfg
            prepared.analysis
      in
      let alloc =
        allocation ~config ~trace:sink ~prepared:prepared.cpa ~sim_scratch
          algorithm prepared.analysis
      in
      let trace_summary = Trace.summary (events ()) in
      Srfa_estimate.Report.build ~sim_config:config.sim
        ~clock_params:config.clock_params ~trace:sink ~trace_summary
        ~sim_scratch
        ~version:(Allocator.version_label algorithm)
        alloc
    with
    | report -> Ok (report, warnings_of_events (events ()))
    | exception exn -> Result.Error [ Diag.of_exn exn ]

  let checked ?(config = default_config) ?(algorithm = Allocator.Cpa_ra)
      ?trace nest =
    match prepare nest with
    | prepared -> checked_prepared ?trace config algorithm prepared
    | exception exn -> Result.Error [ Diag.of_exn exn ]

  (* Budget monotonicity for the certified portfolio: certification alone
     makes a point never worse than the greedy baselines at its own budget,
     but says nothing across budgets — a sweep could still show more
     registers buying more cycles. Any allocation feasible at a lower
     budget stays feasible at a higher one (its total only has to fit), so
     the sweep carries the best certified allocation forward and adopts it
     whenever the fresh point loses to it, announcing the takeover as a
     ["certify.monotonic"] trace event. *)
  let portfolio_point ?(trace = Trace.null) ~prepared ?sim_scratch ~carry
      config kernel analysis =
    let sink, events = tee_collector trace in
    let outcome =
      Allocator.run_portfolio
        ~latency:config.sim.Srfa_sched.Simulator.latency ~trace:sink
        ?cut_work_limit:config.guards.cut_work_limit ~prepared
        ~sim_config:config.sim ?sim_scratch analysis ~budget:config.budget
    in
    let alloc = outcome.Certify.allocation in
    let trace_summary = Trace.summary (events ()) in
    let build alloc =
      Srfa_estimate.Report.build ~sim_config:config.sim
        ~clock_params:config.clock_params ~trace:sink ~trace_summary
        ?sim_scratch
        ~version:(Allocator.version_label Allocator.Portfolio)
        alloc
    in
    (* Reuse the certification's final simulation when the slow path ran;
       only the dominance fast path needs a fresh one for the report. *)
    let report =
      match outcome.Certify.sim with
      | Some sim ->
        Srfa_estimate.Report.of_result ~clock_params:config.clock_params
          ~trace_summary ~sim_config:config.sim
          ~version:(Allocator.version_label Allocator.Portfolio)
          alloc sim
      | None -> build alloc
    in
    let report, final_alloc =
      match !carry with
      | Some (b0, entries0, cycles0)
        when b0 <= config.budget && cycles0 < report.Srfa_estimate.Report.cycles
        ->
        Trace.emit sink (fun () ->
            Trace.event "certify.monotonic"
              [
                ("kernel", Trace.String kernel);
                ("budget", Trace.Int config.budget);
                ("carried_budget", Trace.Int b0);
                ("carried_cycles", Trace.Int cycles0);
                ("fresh_cycles", Trace.Int report.Srfa_estimate.Report.cycles);
              ]);
        let adopted =
          Allocation.make ~analysis ~budget:config.budget
            ~algorithm:Certify.algorithm_name entries0
        in
        (build adopted, adopted)
      | _ -> (report, alloc)
    in
    let final_cycles = report.Srfa_estimate.Report.cycles in
    (match !carry with
    | Some (_, _, cycles0) when cycles0 <= final_cycles -> ()
    | _ ->
      let entries =
        Array.init (Analysis.num_groups analysis)
          (Allocation.entry final_alloc)
      in
      carry := Some (config.budget, entries, final_cycles));
    report

  type sweep_point = {
    kernel : string;
    algorithm : Allocator.algorithm;
    budget : int;
    report : Srfa_estimate.Report.t;
  }

  let default_budgets = [ 8; 16; 32; 64; 128 ]

  (* One kernel's full budget ladder. This stays sequential even under a
     pool: the portfolio carry-forward (budget monotonicity) threads state
     from each budget to the next, so the ladder is the unit of work and
     kernels are the parallel axis. *)
  let sweep_kernel ~config ~algorithms ~budgets ?trace (kernel, nest) =
    let prepared = prepare nest in
    let analysis = prepared.analysis in
    (* One simulator scratch per kernel, created inside the task so each
       pool domain owns its own (the scratch is not thread-safe). *)
    let sim_scratch = scratch ~config prepared in
    let carry = ref None in
    List.concat_map
      (fun budget ->
        if budget < prepared.minimum then []
        else
          List.map
            (fun algorithm ->
              let report =
                match algorithm with
                | Allocator.Portfolio ->
                  portfolio_point ?trace ~prepared:prepared.cpa ~sim_scratch
                    ~carry { config with budget } kernel analysis
                | _ ->
                  evaluate_analysis ?trace ~prepared:prepared.cpa ~sim_scratch
                    { config with budget } algorithm analysis
              in
              { kernel; algorithm; budget; report })
            algorithms)
      budgets

  (* ---- design-space exploration (DESIGN.md §17) ---------------------- *)

  (* The joint (permutation x tile x budget x algorithm) explorer: every
     kernel becomes a design space, and the output is the
     (cycles, registers, slices, clock) Pareto frontier. Three layers
     keep the product tractable:

     1. dominance cuts: a point's coordinates are bounded below before
        its allocation exists (feasibility register floor, port-free
        charged-path cycle bound over the groups the budget forces to
        stay in RAM, area/clock term floors); a point whose bound box is
        already covered by the online frontier is skipped. Lossless —
        see DESIGN.md §17 for the argument, test_explore for the proof
        by differential testing.
     2. memoisation: one [prepared] (analysis + CPA scratch + DFG) and
        one simulator scratch per distinct variant (variants deduped by
        a canonical-source digest), and within a variant an
        entries-keyed simulation memo — two budgets that produce the
        same allocation (ladders saturate) share one simulation.
     3. pool fan-out: variants shard across domains with the
        byte-identical parallel-vs-serial contract: per-variant
        [Trace.buffered] sinks spliced in variant order, and a frontier
        that is a deterministic function of the evaluated set no matter
        which points the (schedule-dependent) cuts removed. *)

  type order_spec =
    | Identity_order
    | All_orders
    | Orders of int list list

  let parse_orders s =
    match String.lowercase_ascii s with
    | "all" -> Ok All_orders
    | "identity" | "id" -> Ok Identity_order
    | _ -> (
      let perm o =
        List.map
          (fun k -> int_of_string (String.trim k))
          (String.split_on_char ',' o)
      in
      match List.map perm (String.split_on_char ';' s) with
      | os -> Ok (Orders os)
      | exception Failure _ ->
        Error
          "must be \"all\", \"identity\" or semicolon-separated \
           permutations like \"0,2,1;2,0,1\"")

  type space = {
    orders : order_spec;
    tile_factors : int list;
    space_budgets : int list;
    space_algorithms : Allocator.algorithm list;
    certify : bool;  (** evaluate points through the certified portfolio *)
    prune : bool;  (** dominance cuts; [false] = exhaustive (the differential arm) *)
    naive : bool;  (** re-derive analysis/DFG/simulation per point (bench baseline) *)
  }

  let default_space =
    {
      orders = All_orders;
      tile_factors = [];
      space_budgets = default_budgets;
      space_algorithms = [ Allocator.Cpa_ra ];
      certify = false;
      prune = true;
      naive = false;
    }

  type coords = {
    cycles : int;
    registers : int;
    slices : int;
    clock_ns : float;
  }

  type cert = { dominates : bool; repaired : bool; adopted : string option }

  type explore_point = {
    variant : int;  (** index in deterministic enumeration order *)
    label : string;
    loop_vars : string list;
    tiling : (int * int) option;  (** strip-mine (level, factor), if any *)
    order : int list;
    point_budget : int;
    point_algorithm : string;  (** allocator name, or ["floor"] *)
    floor : bool;  (** the all-RAM baseline at the feasibility minimum *)
    coords : coords;
    point_report : Srfa_estimate.Report.t;
    point_cert : cert option;
  }

  type explore_stats = {
    variants_enumerated : int;
    variants_unique : int;
    variants_pruned : int;
    points_pruned : int;
    points_evaluated : int;
    sim_memo_hits : int;
    duplicate_variants : int;
    orders_skipped : int;
    budgets_skipped : int;
  }

  type frontier = {
    frontier_kernel : string;
    points : explore_point list;  (** the Pareto frontier, sorted *)
    frontier_stats : explore_stats;
    frontier_warnings : Srfa_util.Diag.t list;
  }

  (* internal: one enumerated variant *)
  type variant = {
    v_idx : int;
    v_tiling : (int * int) option;
    v_order : int list;
    v_nest : Srfa_ir.Nest.t;
    v_label : string;
    v_loop_vars : string list;
  }

  let coords_of_report (r : Srfa_estimate.Report.t) =
    {
      cycles = r.Srfa_estimate.Report.cycles;
      registers = r.Srfa_estimate.Report.total_registers;
      slices = r.Srfa_estimate.Report.slices;
      clock_ns = r.Srfa_estimate.Report.clock_ns;
    }

  let coords_leq a b =
    a.cycles <= b.cycles && a.registers <= b.registers && a.slices <= b.slices
    && a.clock_ns <= b.clock_ns

  let coords_lt_somewhere a b =
    a.cycles < b.cycles || a.registers < b.registers || a.slices < b.slices
    || a.clock_ns < b.clock_ns

  let coords_dominates q p = coords_leq q p && coords_lt_somewhere q p

  (* The online frontier shared by every domain: coordinates plus the
     (variant, serial) enumeration key of the point that produced them.
     Strictly dominated entries are dropped and exact-coordinate ties
     keep the smallest key — both preserve pruning power (the survivor
     prunes at least everything its victim could). *)
  type online = {
    mutable entries : (coords * (int * int)) list;
    lock : Mutex.t;
  }

  let online_create () = { entries = []; lock = Mutex.create () }

  let online_insert online c key =
    Mutex.lock online.lock;
    let covered =
      List.exists
        (fun (q, qk) ->
          coords_dominates q c || (q = c && compare qk key <= 0))
        online.entries
    in
    if not covered then
      online.entries <-
        (c, key)
        :: List.filter
             (fun (q, qk) ->
               not (coords_dominates c q || (q = c && compare key qk < 0)))
             online.entries;
    Mutex.unlock online.lock

  (* [p] (with enumeration key [key]) can be cut when a frontier point
     [q] covers its whole lower-bound box: either strictly below the
     bound somewhere (then q strictly beats anything p can produce), or
     exactly equal to it with a smaller key (then p can at best tie, and
     the coordinate-duplicate collapse would discard it for [q] anyway —
     the key comparison keeps the surviving representative the same
     whether or not the cut fired, which is what makes jobs=1 and jobs=N
     byte-identical). *)
  let online_prunes online lb key =
    Mutex.lock online.lock;
    let cut =
      List.exists
        (fun (q, qk) ->
          coords_leq q lb
          && (coords_lt_somewhere q lb || compare qk key < 0))
        online.entries
    in
    Mutex.unlock online.lock;
    cut

  let identity_order d = List.init d Fun.id

  let variant_label ~base_vars tiling loop_vars =
    let tile_part =
      match tiling with
      | None -> "untiled"
      | Some (level, factor) ->
        let var =
          match List.nth_opt base_vars level with
          | Some v -> v
          | None -> string_of_int level
        in
        Printf.sprintf "tile %s/%d" var factor
    in
    Printf.sprintf "%s | %s" tile_part (String.concat " " loop_vars)

  (* Deterministic serial enumeration: tilings level-major, orders as
     Permute yields them, duplicates (by canonical-source digest)
     dropped with a count. *)
  let enumerate_variants ~space nest =
    let base_vars = Srfa_ir.Nest.loop_vars nest in
    let orders_skipped = ref 0 in
    let tilings =
      None
      :: List.map Option.some
           (Srfa_ir.Tile.steps nest ~factors:space.tile_factors)
    in
    let raw =
      List.concat_map
        (fun tiling ->
          let tnest =
            match tiling with
            | None -> nest
            | Some (level, factor) -> Srfa_ir.Tile.tile nest ~level ~factor
          in
          let d = Srfa_ir.Nest.depth tnest in
          let id = identity_order d in
          let orders =
            match space.orders with
            | Identity_order -> [ id ]
            | All_orders ->
              let orders, skipped = Srfa_ir.Permute.legal_orders tnest in
              orders_skipped := !orders_skipped + skipped;
              orders
            | Orders os ->
              let legal = Srfa_ir.Permute.fully_permutable tnest in
              let valid o =
                List.sort Int.compare o = id && (legal || o = id)
              in
              let keep, dropped = List.partition valid os in
              orders_skipped := !orders_skipped + List.length dropped;
              id :: List.filter (fun o -> o <> id) keep
          in
          List.map
            (fun order ->
              let vnest =
                if order = id then tnest
                else Srfa_ir.Permute.interchange tnest ~order
              in
              (tiling, order, vnest))
            orders)
        tilings
    in
    let seen = Hashtbl.create 64 in
    let dups = ref 0 in
    let uniq =
      List.filter
        (fun (_, _, vnest) ->
          let key =
            Digest.string (Format.asprintf "%a" Srfa_ir.Nest.pp vnest)
          in
          if Hashtbl.mem seen key then begin
            incr dups;
            false
          end
          else begin
            Hashtbl.add seen key ();
            true
          end)
        raw
    in
    let variants =
      List.mapi
        (fun i (tiling, order, vnest) ->
          let loop_vars = Srfa_ir.Nest.loop_vars vnest in
          {
            v_idx = i;
            v_tiling = tiling;
            v_order = order;
            v_nest = vnest;
            v_label = variant_label ~base_vars tiling loop_vars;
            v_loop_vars = loop_vars;
          })
        uniq
    in
    (variants, List.length raw, !dups, !orders_skipped)

  let entries_key analysis alloc =
    let b = Buffer.create 64 in
    for gid = 0 to Analysis.num_groups analysis - 1 do
      let e = Allocation.entry alloc gid in
      Buffer.add_string b (string_of_int e.Allocation.beta);
      Buffer.add_char b (if e.Allocation.pinned then 'p' else 'u');
      Buffer.add_char b ';'
    done;
    Buffer.contents b

  type variant_result = {
    r_points : explore_point list;
    r_variants_pruned : int;
    r_points_pruned : int;
    r_points_evaluated : int;
    r_sim_memo_hits : int;
    r_budgets_skipped : int;
  }

  let evaluate_variant ~config ~space ~online ~trace v =
    let module Sim = Srfa_sched.Simulator in
    let nest = v.v_nest in
    let prepared = prepare nest in
    let analysis = prepared.analysis in
    let n = prepared.minimum in
    let sim_scratch = scratch ~config prepared in
    let iterations = Srfa_ir.Nest.iterations nest in
    let depth = Srfa_ir.Nest.depth nest in
    let ngroups = Analysis.num_groups analysis in
    let nus =
      Array.init ngroups (fun g -> (Analysis.info analysis g).Analysis.nu)
    in
    let latency = config.sim.Sim.latency in
    let cm = Srfa_sched.Cycle_model.prepare ~dfg:prepared.dfg ~latency in
    (* The all-RAM baseline: one unpinned feasibility register per group
       (the engine's starting state), nothing resident. Evaluated
       unconditionally — it anchors the frontier's register/area/clock
       floor and is what the dominance cuts prune against. *)
    let floor_entries =
      Array.make ngroups { Allocation.beta = 1; Allocation.pinned = false }
    in
    let floor_alloc =
      Allocation.make ~analysis ~budget:n ~algorithm:"floor" floor_entries
    in
    (* Pipelined cycle floor: the loop-carried recurrence, which is
       RAM-map independent (ports only raise the initiation interval). *)
    let recurrence =
      lazy
        (let ram_map = Sim.ram_map_for config.sim floor_alloc in
         let m =
           Srfa_sched.Cycle_model.create ~prepared:cm ~dfg:prepared.dfg
             ~latency ~ram_map ()
         in
         Srfa_sched.Cycle_model.initiation_interval m ~charged:(fun _ -> false))
    in
    (* Groups every allocation at budget [b] leaves partially replaced:
       the other [n-1] groups hold at least their feasibility register,
       so a window larger than [b - (n-1)] cannot be funded in full. *)
    let forced b (g : Group.t) = nus.(g.Group.id) > b - (n - 1) in
    let cycles_lb b =
      match config.sim.Sim.execution with
      | Sim.Serial ->
        iterations
        * Srfa_sched.Cycle_model.charged_path_bound cm ~charged:(forced b)
      | Sim.Pipelined -> iterations * Lazy.force recurrence
    in
    let slices_lb =
      Srfa_estimate.Area.lower_bound ~device:config.sim.Sim.device analysis
    in
    let clock_lb =
      Srfa_estimate.Clock.lower_bound ~params:config.clock_params
        ~min_registers:n ~depth ()
    in
    let lower_bound b =
      { cycles = cycles_lb b; registers = n; slices = slices_lb;
        clock_ns = clock_lb }
    in
    let sim_memo : (string, Sim.result) Hashtbl.t = Hashtbl.create 8 in
    let memo_hits = ref 0
    and points_evaluated = ref 0
    and points_pruned = ref 0
    and variants_pruned = ref 0
    and budgets_skipped = ref 0 in
    let points = ref [] in
    let clock_params = config.clock_params in
    let run_sim ~sink alloc =
      let key = entries_key analysis alloc in
      match Hashtbl.find_opt sim_memo key with
      | Some sim ->
        incr memo_hits;
        Trace.emit sink (fun () ->
            Trace.event "explore.memo"
              [
                ("variant", Trace.String v.v_label);
                ("budget", Trace.Int alloc.Allocation.budget);
                ("algorithm", Trace.String alloc.Allocation.algorithm);
              ]);
        sim
      | None ->
        let sim =
          if space.naive then Sim.run ~trace:sink ~config:config.sim alloc
          else
            Sim.run ~trace:sink ~config:config.sim ~scratch:sim_scratch alloc
        in
        if not space.naive then Hashtbl.add sim_memo key sim;
        sim
    in
    let add_point ~serial ~budget ~algorithm ~floor ~cert ~report =
      let c = coords_of_report report in
      if space.prune then online_insert online c (v.v_idx, serial);
      incr points_evaluated;
      points :=
        {
          variant = v.v_idx;
          label = v.v_label;
          loop_vars = v.v_loop_vars;
          tiling = v.v_tiling;
          order = v.v_order;
          point_budget = budget;
          point_algorithm = algorithm;
          floor;
          coords = c;
          point_report = report;
          point_cert = cert;
        }
        :: !points
    in
    (* floor point *)
    let sink = trace in
    let floor_analysis =
      if space.naive then analyze nest else analysis
    in
    let floor_alloc =
      if space.naive then
        Allocation.make ~analysis:floor_analysis ~budget:n ~algorithm:"floor"
          (Array.make ngroups
             { Allocation.beta = 1; Allocation.pinned = false })
      else floor_alloc
    in
    let floor_sim = run_sim ~sink floor_alloc in
    let floor_report =
      Srfa_estimate.Report.of_result ~clock_params ~sim_config:config.sim
        ~version:"floor" floor_alloc floor_sim
    in
    add_point ~serial:0 ~budget:n ~algorithm:"floor" ~floor:true ~cert:None
      ~report:floor_report;
    (* budget x algorithm ladder *)
    let budgets =
      List.filter
        (fun b ->
          if b >= n then true
          else begin
            incr budgets_skipped;
            false
          end)
        space.space_budgets
    in
    let algorithms = space.space_algorithms in
    let ladder_size = List.length budgets * List.length algorithms in
    let emit_prune ~scope ~points_cut ~budget ~algorithm =
      Trace.emit sink (fun () ->
          Trace.event "explore.prune"
            ([
               ("scope", Trace.String scope);
               ("variant", Trace.String v.v_label);
               ("points", Trace.Int points_cut);
             ]
            @ (match budget with
              | Some b -> [ ("budget", Trace.Int b) ]
              | None -> [])
            @
            match algorithm with
            | Some a -> [ ("algorithm", Trace.String a) ]
            | None -> []))
    in
    let bmax = List.fold_left max n budgets in
    let variant_cut =
      space.prune && ladder_size > 0
      && online_prunes online (lower_bound bmax) (v.v_idx, 1)
    in
    if variant_cut then begin
      variants_pruned := 1;
      points_pruned := ladder_size;
      emit_prune ~scope:"variant" ~points_cut:ladder_size ~budget:None
        ~algorithm:None
    end
    else begin
      let serial = ref 0 in
      List.iter
        (fun b ->
          List.iter
            (fun alg ->
              incr serial;
              let key = (v.v_idx, !serial) in
              if space.prune && online_prunes online (lower_bound b) key
              then begin
                incr points_pruned;
                emit_prune ~scope:"point" ~points_cut:1 ~budget:(Some b)
                  ~algorithm:(Some (Allocator.name alg))
              end
              else begin
                let cfg = { config with budget = b } in
                let point_analysis =
                  if space.naive then analyze nest else analysis
                in
                if space.certify || alg = Allocator.Portfolio then begin
                  let outcome =
                    if space.naive then
                      Allocator.run_portfolio ~latency ~trace:sink
                        ?cut_work_limit:cfg.guards.cut_work_limit
                        ~sim_config:cfg.sim point_analysis ~budget:b
                    else
                      Allocator.run_portfolio ~latency ~trace:sink
                        ?cut_work_limit:cfg.guards.cut_work_limit
                        ~prepared:prepared.cpa ~sim_config:cfg.sim
                        ~sim_scratch point_analysis ~budget:b
                  in
                  let alloc = outcome.Certify.allocation in
                  let version = Allocator.version_label Allocator.Portfolio in
                  let report =
                    match outcome.Certify.sim with
                    | Some sim ->
                      Srfa_estimate.Report.of_result ~clock_params
                        ~sim_config:cfg.sim ~version alloc sim
                    | None ->
                      let sim = run_sim ~sink alloc in
                      Srfa_estimate.Report.of_result ~clock_params
                        ~sim_config:cfg.sim ~version alloc sim
                  in
                  let cert =
                    Some
                      {
                        dominates =
                          (match outcome.Certify.comparison with
                          | Certify.Dominates -> true
                          | Certify.Simulated _ -> false);
                        repaired = outcome.Certify.repaired;
                        adopted = outcome.Certify.adopted;
                      }
                  in
                  add_point ~serial:!serial ~budget:b
                    ~algorithm:(Allocator.name Allocator.Portfolio)
                    ~floor:false ~cert ~report
                end
                else begin
                  let alloc =
                    if space.naive then
                      Allocator.run ~latency ~trace:sink
                        ?cut_work_limit:cfg.guards.cut_work_limit
                        ~sim_config:cfg.sim alg point_analysis ~budget:b
                    else
                      allocation ~config:cfg ~trace:sink
                        ~prepared:prepared.cpa ~sim_scratch alg analysis
                  in
                  let sim = run_sim ~sink alloc in
                  let report =
                    Srfa_estimate.Report.of_result ~clock_params
                      ~sim_config:cfg.sim
                      ~version:(Allocator.version_label alg)
                      alloc sim
                  in
                  add_point ~serial:!serial ~budget:b
                    ~algorithm:(Allocator.name alg) ~floor:false ~cert:None
                    ~report
                end
              end)
            algorithms)
        budgets
    end;
    {
      r_points = List.rev !points;
      r_variants_pruned = !variants_pruned;
      r_points_pruned = !points_pruned;
      r_points_evaluated = !points_evaluated;
      r_sim_memo_hits = !memo_hits;
      r_budgets_skipped = !budgets_skipped;
    }

  (* Final frontier from the evaluated set: drop dominated points, then
     collapse exact-coordinate ties onto the smallest enumeration key.
     Both are deterministic functions of the full design space even
     though the evaluated set is not (cuts depend on domain scheduling):
     a cut point is either strictly dominated by an online entry — and
     so by transitivity by some final frontier point — or it ties an
     entry with a smaller key, which the collapse would have kept
     instead anyway. *)
  let assemble_frontier results =
    let all = List.concat_map (fun r -> r.r_points) results in
    let survivors =
      List.filter
        (fun p ->
          not
            (List.exists (fun q -> coords_dominates q.coords p.coords) all))
        all
    in
    let collapsed =
      (* points arrive in (variant, serial) order already *)
      let seen = Hashtbl.create 16 in
      List.filter
        (fun p ->
          let k =
            (p.coords.cycles, p.coords.registers, p.coords.slices,
             Printf.sprintf "%.6f" p.coords.clock_ns)
          in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        survivors
    in
    List.sort
      (fun a b ->
        let c = Int.compare a.coords.cycles b.coords.cycles in
        if c <> 0 then c
        else
          let c = Int.compare a.coords.registers b.coords.registers in
          if c <> 0 then c
          else
            let c = Int.compare a.coords.slices b.coords.slices in
            if c <> 0 then c
            else
              let c = Float.compare a.coords.clock_ns b.coords.clock_ns in
              if c <> 0 then c else Int.compare a.variant b.variant)
      collapsed

  let explore ?(trace = Trace.null) ?pool ?(space = default_space) config
      nest =
    if space.space_algorithms = [] then
      invalid_arg "Flow.Core.explore: empty algorithm list";
    let variants, enumerated, dups, orders_skipped =
      enumerate_variants ~space nest
    in
    let warnings =
      if orders_skipped > 0 then begin
        Trace.emit trace (fun () ->
            Trace.event "guard.explore"
              [
                ("kernel", Trace.String nest.Srfa_ir.Nest.name);
                ("skipped_orders", Trace.Int orders_skipped);
              ]);
        [
          Diag.warning ~code:"W-GUARD-EXPLORE"
            "some loop orders are illegal for this nest and were skipped \
             (interchange requires full permutability)"
            ~context:
              [
                ("kernel", nest.Srfa_ir.Nest.name);
                ("skipped_orders", string_of_int orders_skipped);
              ];
        ]
      end
      else []
    in
    let online = online_create () in
    let traced = Trace.enabled trace in
    let run_variant v =
      if traced then begin
        let sink, splice = Trace.buffered () in
        (evaluate_variant ~config ~space ~online ~trace:sink v, splice)
      end
      else
        (evaluate_variant ~config ~space ~online ~trace:Trace.null v,
         fun _ -> ())
    in
    let varr = Array.of_list variants in
    let outputs =
      match pool with
      | Some p when Srfa_util.Pool.jobs p > 1 && Array.length varr > 1 ->
        Srfa_util.Pool.map p run_variant varr
      | _ -> Array.map run_variant varr
    in
    if traced then Array.iter (fun (_, splice) -> splice trace) outputs;
    let results = List.map fst (Array.to_list outputs) in
    let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
    let stats =
      {
        variants_enumerated = enumerated;
        variants_unique = List.length variants;
        variants_pruned = sum (fun r -> r.r_variants_pruned);
        points_pruned = sum (fun r -> r.r_points_pruned);
        points_evaluated = sum (fun r -> r.r_points_evaluated);
        sim_memo_hits = sum (fun r -> r.r_sim_memo_hits);
        duplicate_variants = dups;
        orders_skipped;
        budgets_skipped = sum (fun r -> r.r_budgets_skipped);
      }
    in
    Trace.emit trace (fun () ->
        Trace.event "explore.done"
          [
            ("kernel", Trace.String nest.Srfa_ir.Nest.name);
            ("variants", Trace.Int stats.variants_unique);
            ("variants_pruned", Trace.Int stats.variants_pruned);
            ("points_pruned", Trace.Int stats.points_pruned);
            ("points_evaluated", Trace.Int stats.points_evaluated);
            ("sim_memo_hits", Trace.Int stats.sim_memo_hits);
          ]);
    {
      frontier_kernel = nest.Srfa_ir.Nest.name;
      points = assemble_frontier results;
      frontier_stats = stats;
      frontier_warnings = warnings;
    }

  (* ---- frontier rendering -------------------------------------------- *)

  (* One renderer shared by the CLI, the serve daemon and the tests so
     "byte-identical frontier" means one thing. Deterministic: fixed
     field order, fixed float format, no stats (cut/memo counts depend
     on domain scheduling and live in [frontier_stats] only). *)

  let point_json p =
    let module J = Srfa_util.Json in
    let v x = J.value x in
    J.obj
      ([ ("label", v (J.Str p.label)) ]
      @ (match p.tiling with
        | Some (level, factor) ->
          [ ("tile_level", v (J.Int level)); ("tile_factor", v (J.Int factor)) ]
        | None -> [])
      @ [
          ("order", v (J.Arr (List.map (fun i -> J.Int i) p.order)));
          ("loop_vars", v (J.Arr (List.map (fun x -> J.Str x) p.loop_vars)));
          ("budget", v (J.Int p.point_budget));
          ("algorithm", v (J.Str p.point_algorithm));
          ("floor", v (J.Bool p.floor));
          ("cycles", v (J.Int p.coords.cycles));
          ("registers", v (J.Int p.coords.registers));
          ("slices", v (J.Int p.coords.slices));
          ("clock_ns", J.fixed 3 p.coords.clock_ns);
          ( "exec_time_us",
            J.fixed 3 p.point_report.Srfa_estimate.Report.exec_time_us );
        ]
      @
      match p.point_cert with
      | Some c ->
        let adopted = match c.adopted with Some a -> J.Str a | None -> J.Null in
        [
          ( "certified",
            v
              (J.Obj
                 [
                   ("dominates", J.Bool c.dominates);
                   ("repaired", J.Bool c.repaired);
                   ("adopted", adopted);
                 ]) );
        ]
      | None -> [])

  let frontier_json ?(compact = false) f =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (if compact then "{\"kernel\": " else "{\n  \"kernel\": ");
    Srfa_util.Json.add_string b f.frontier_kernel;
    Buffer.add_string b
      (if compact then ", \"points\": [" else ",\n  \"points\": [\n");
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_string b (if compact then ", " else ",\n");
        if not compact then Buffer.add_string b "    ";
        point_json p b)
      f.points;
    Buffer.add_string b (if compact then "]}" else "\n  ]\n}");
    Buffer.contents b

  let frontier_csv f =
    let b = Buffer.create 1024 in
    Buffer.add_string b
      "kernel,label,order,budget,algorithm,floor,cycles,registers,slices,clock_ns,exec_time_us\n";
    List.iter
      (fun p ->
        Buffer.add_string b
          (Printf.sprintf "%s,%s,%s,%d,%s,%b,%d,%d,%d,%.3f,%.3f\n"
             f.frontier_kernel p.label
             (String.concat " " (List.map string_of_int p.order))
             p.point_budget p.point_algorithm p.floor p.coords.cycles
             p.coords.registers p.coords.slices p.coords.clock_ns
             p.point_report.Srfa_estimate.Report.exec_time_us))
      f.points;
    Buffer.contents b

  (* ---- dynamic re-budgeting (DESIGN.md §16) -------------------------- *)

  type rebudget_step = {
    requested : int;
    effective : int;
    clamped : bool;
    freed : int;
    respent : int;
    memoized : bool;
    allocation : Allocation.t;
    report : Srfa_estimate.Report.t;
    warnings : Srfa_util.Diag.t list;
  }

  (* The live allocation plus everything an event needs to be answered
     without a from-scratch rerun: the prepared kernel, the warm
     simulator scratch, and a per-effective-budget memo of steps already
     certified in this stream (a budget ladder that oscillates revisits
     budgets constantly; re-deriving an identical certified allocation
     would be pure waste). Single-owner like every scratch-bearing value
     in this module: one session per domain at a time. *)
  type rebudget_session = {
    rb_prepared : prepared;
    rb_config : config;
    rb_scratch : Srfa_sched.Simulator.scratch;
    mutable rb_current : Allocation.t;
    rb_memo :
      (int, Allocation.t * Srfa_estimate.Report.t * Srfa_util.Diag.t list)
      Hashtbl.t;
  }

  (* The pinned-shrink rule: a request below the feasibility minimum is
     not an error — the budget clamps there (the engine spills every
     entry cheapest-first to fit) and the event is answered under the
     clamp, with the degradation announced as a trace event and a
     W-GUARD-REBUDGET warning. *)
  let rebudget_guard ~sink ~requested ~minimum =
    Trace.emit sink (fun () ->
        Trace.event "guard.rebudget"
          [
            ("requested", Trace.Int requested);
            ("minimum", Trace.Int minimum);
          ]);
    Diag.warning ~code:"W-GUARD-REBUDGET"
      "budget event below the feasibility minimum (one register per \
       reference group); budget clamped at the minimum"
      ~context:
        [
          ("requested", string_of_int requested);
          ("minimum", string_of_int minimum);
        ]

  let rebudget_report ~cfg ~sink ~trace_summary ~sim_scratch outcome =
    let alloc = outcome.Certify.allocation in
    match outcome.Certify.sim with
    | Some sim ->
      Srfa_estimate.Report.of_result ~clock_params:cfg.clock_params
        ~trace_summary ~sim_config:cfg.sim
        ~version:(Allocator.version_label Allocator.Portfolio)
        alloc sim
    | None ->
      Srfa_estimate.Report.build ~sim_config:cfg.sim
        ~clock_params:cfg.clock_params ~trace:sink ~trace_summary ~sim_scratch
        ~version:(Allocator.version_label Allocator.Portfolio)
        alloc

  let rebudget_start ?(trace = Trace.null) ?sim_scratch config prepared
      ~budget =
    let sim_scratch =
      match sim_scratch with Some s -> s | None -> scratch ~config prepared
    in
    let sink, events = tee_collector trace in
    let minimum = prepared.minimum in
    let effective = max budget minimum in
    let clamped = budget < minimum in
    let clamp_warning =
      if clamped then [ rebudget_guard ~sink ~requested:budget ~minimum ]
      else []
    in
    let cfg = { config with budget = effective } in
    let outcome =
      Allocator.run_portfolio ~latency:cfg.sim.Srfa_sched.Simulator.latency
        ~trace:sink ?cut_work_limit:cfg.guards.cut_work_limit
        ~prepared:prepared.cpa ~sim_config:cfg.sim ~sim_scratch
        prepared.analysis ~budget:effective
    in
    let trace_summary = Trace.summary (events ()) in
    let report = rebudget_report ~cfg ~sink ~trace_summary ~sim_scratch outcome in
    let base_warnings = warnings_of_events (events ()) in
    let alloc = outcome.Certify.allocation in
    let session =
      {
        rb_prepared = prepared;
        rb_config = config;
        rb_scratch = sim_scratch;
        rb_current = alloc;
        rb_memo = Hashtbl.create 8;
      }
    in
    Hashtbl.replace session.rb_memo effective (alloc, report, base_warnings);
    ( session,
      {
        requested = budget;
        effective;
        clamped;
        freed = 0;
        respent = 0;
        memoized = false;
        allocation = alloc;
        report;
        warnings = clamp_warning @ base_warnings;
      } )

  let rebudget_step ?(trace = Trace.null) session ~budget =
    let prepared = session.rb_prepared in
    let minimum = prepared.minimum in
    let effective = max budget minimum in
    let clamped = budget < minimum in
    let sink, events = tee_collector trace in
    let clamp_warning =
      if clamped then [ rebudget_guard ~sink ~requested:budget ~minimum ]
      else []
    in
    match Hashtbl.find_opt session.rb_memo effective with
    | Some (alloc, report, base_warnings) ->
      session.rb_current <- alloc;
      {
        requested = budget;
        effective;
        clamped;
        freed = 0;
        respent = 0;
        memoized = true;
        allocation = alloc;
        report;
        warnings = clamp_warning @ base_warnings;
      }
    | None ->
      let cfg = { session.rb_config with budget = effective } in
      let eng = Engine.of_allocation ~trace:sink session.rb_current in
      let moved = Engine.rebudget ~reason:"rebudget event" eng ~budget:effective in
      let headroom = Engine.remaining eng in
      Certify.respend eng;
      let respent = headroom - Engine.remaining eng in
      let candidate =
        Engine.finalize ~pin_all:true eng ~algorithm:Certify.algorithm_name
      in
      (* Re-establish the certified never-worse contract at the new
         budget: the reclaimed/re-spent candidate is certified against
         FR-RA and PR-RA exactly like a from-scratch portfolio point. *)
      let outcome =
        Certify.certify ~trace:sink ~sim_config:cfg.sim
          ~sim_scratch:session.rb_scratch candidate
      in
      let trace_summary = Trace.summary (events ()) in
      let report =
        rebudget_report ~cfg ~sink ~trace_summary
          ~sim_scratch:session.rb_scratch outcome
      in
      let base_warnings = warnings_of_events (events ()) in
      let alloc = outcome.Certify.allocation in
      Hashtbl.replace session.rb_memo effective (alloc, report, base_warnings);
      session.rb_current <- alloc;
      {
        requested = budget;
        effective;
        clamped;
        freed = moved.Engine.freed;
        respent;
        memoized = false;
        allocation = alloc;
        report;
        warnings = clamp_warning @ base_warnings;
      }

  let rebudget_current session = session.rb_current

  let rebudget ?trace ?sim_scratch config prepared ~initial ~events =
    let session, first =
      rebudget_start ?trace ?sim_scratch config prepared ~budget:initial
    in
    first :: List.map (fun b -> rebudget_step ?trace session ~budget:b) events
end

(* ---- IO shell ----------------------------------------------------------

   The historical Flow surface, now thin delegations into {!Core}. The
   subcommands (alloc/sweep/check), the bench and the tests call through
   these unchanged; anything that needs per-request reuse (the serve
   daemon) goes to {!Core} directly. *)

type guards = Core.guards = {
  cut_work_limit : int option;
  event_model_cap : int;
}

let default_guards = Core.default_guards

type config = Core.config = {
  budget : int;
  sim : Srfa_sched.Simulator.config;
  clock_params : Srfa_estimate.Clock.params;
  guards : guards;
}

let default_config = Core.default_config
let analyze = Core.analyze

let allocation ?(config = Core.default_config) ?trace ?prepared ?sim_scratch
    algorithm analysis =
  Core.allocation ~config ?trace ?prepared ?sim_scratch algorithm analysis

let evaluate ?(config = Core.default_config) ?trace algorithm nest =
  Core.evaluate_analysis ?trace config algorithm (Core.analyze nest)

let evaluate_all ?(config = Core.default_config) ?(algorithms = Allocator.all)
    ?trace nest =
  let prepared = Core.prepare nest in
  let sim_scratch = Core.scratch ~config prepared in
  List.map
    (fun alg -> Core.evaluate_prepared ?trace ~sim_scratch config alg prepared)
    algorithms

type sweep_point = Core.sweep_point = {
  kernel : string;
  algorithm : Allocator.algorithm;
  budget : int;
  report : Srfa_estimate.Report.t;
}

let default_budgets = Core.default_budgets

let run_checked ?(config = Core.default_config)
    ?(algorithm = Allocator.Cpa_ra) ?trace nest =
  Core.checked ~config ~algorithm ?trace nest

let sweep ?(config = Core.default_config) ?(algorithms = Allocator.all)
    ?(budgets = Core.default_budgets) ?trace ?pool kernels =
  let sweep_kernel = Core.sweep_kernel ~config ~algorithms ~budgets in
  match pool with
  | Some pool when Srfa_util.Pool.jobs pool > 1 && List.length kernels > 1 ->
    (* Parallel across kernels, deterministic by construction: results
       come back in input order from Pool.map, and each kernel's trace
       goes into a private buffer spliced back in kernel order — the
       same kernel-major stream the sequential walk emits. *)
    let traced = match trace with Some t -> Trace.enabled t | None -> false in
    let outputs =
      Srfa_util.Pool.map pool
        (fun kn ->
          if traced then
            let sink, splice = Trace.buffered () in
            (sweep_kernel ~trace:sink kn, splice)
          else (sweep_kernel kn, fun _ -> ()))
        (Array.of_list kernels)
    in
    (match trace with
    | Some t when Trace.enabled t ->
      Array.iter (fun (_, splice) -> splice t) outputs
    | _ -> ());
    List.concat_map fst (Array.to_list outputs)
  | _ -> List.concat_map (fun kn -> sweep_kernel ?trace kn) kernels
