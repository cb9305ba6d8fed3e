(* The five measured entry points — compile, sweep, explore, rebudget
   and serve — each in three forms: the composite call the end-to-end
   metrics time, the stage-by-stage replay the traced run times through
   the same public functions in the order the composite uses, and the
   correctness gate that runs outside every timed region. *)

module Flow = Srfa_core.Flow
module Core = Flow.Core
module Allocator = Srfa_core.Allocator
module Cpa_ra = Srfa_core.Cpa_ra
module Ordering = Srfa_core.Ordering
module Report = Srfa_estimate.Report
module Sim = Srfa_sched.Simulator
module Trace = Srfa_util.Trace
module Diag = Srfa_util.Diag
module Pool = Srfa_util.Pool
module Protocol = Srfa_server.Protocol
module Cache = Srfa_server.Cache
module Parser = Srfa_frontend.Parser
module Analysis = Srfa_reuse.Analysis
module Allocation = Srfa_reuse.Allocation
module Group = Srfa_reuse.Group
module Nest = Srfa_ir.Nest
module Gen = Srfa_fuzzer.Gen
module M = Measure

(* ---- outcome tally ---------------------------------------------------- *)

(* Every distinct check is one attempt — one per compiled input, sweep
   point, rebudget step, distinct (request, answer) pair and so on, never
   one per repetition — so a broken gate weighs as much as its inputs; an
   unexpected error, an E-INTERNAL answer or a failed check is one
   failure. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 20 then prerr_endline ("perfbench: check failed: " ^ what)
  end

(* ---- stage ledger ----------------------------------------------------- *)

(* Stage samples in seconds, keyed by (operation, stage), plus
   per-operation totals: the composite's own time (untraced), the
   replay's time around its stage calls (traced) and the sum of the
   stage calls (staged). *)
type op_total = { mutable untraced : float; mutable traced : float; mutable staged : float }

let stages : (string * string, float list ref) Hashtbl.t = Hashtbl.create 64
let ops : (string, op_total) Hashtbl.t = Hashtbl.create 8
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let op_total op =
  match Hashtbl.find_opt ops op with
  | Some t -> t
  | None ->
    let t = { untraced = 0.0; traced = 0.0; staged = 0.0 } in
    Hashtbl.replace ops op t;
    t

(* Off while set-up and gates call instrumented functions. *)
let recording = ref true

let record ~op name dt =
  if !recording then begin
    (match Hashtbl.find_opt stages (op, name) with
    | Some s -> s := dt :: !s
    | None -> Hashtbl.replace stages (op, name) (ref [ dt ]));
    let t = op_total op in
    t.staged <- t.staged +. dt
  end

(* Every sample of a stage, whichever operation called it. *)
let samples name =
  Hashtbl.fold (fun (_, n) s acc -> if n = name then !s @ acc else acc) stages []

let stage ~op name f =
  let r, dt = M.time f in
  record ~op name dt;
  r

let set_count name v = Hashtbl.replace counts name v

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---- fig. 2 ----------------------------------------------------------- *)

let fig2_gate () =
  List.iter
    (fun (alg, want) ->
      let got =
        match Core.checked ~algorithm:alg (Srfa_kernels.Kernels.example ()) with
        | Ok (r, _) -> r.Report.memory_cycles
        | Error _ -> -1
      in
      check (got = want)
        (Printf.sprintf "fig. 2 T_mem %s = %d, expected %d" (Allocator.name alg) got want))
    [ (Allocator.Fr_ra, 1800); (Allocator.Pr_ra, 1560); (Allocator.Cpa_ra, 1184) ]

(* ---- compile ---------------------------------------------------------- *)

let config_at budget = { Flow.default_config with Flow.budget }

(* The composite: Parser.parse then Flow.Core.checked. *)
let compile (s : Inputs.source) =
  match Parser.parse s.Inputs.text with
  | nest -> Core.checked ~config:(config_at s.Inputs.budget) ~algorithm:s.Inputs.algorithm nest
  | exception exn -> Error [ Parser.diag_of_exn exn ]

(* The stage replay of [compile]. Returns the report and the event-model
   and cycle-model makespans of the allocated body. *)
let compile_staged (s : Inputs.source) =
  let op = "compile" in
  let config = config_at s.Inputs.budget in
  let sim = config.Flow.sim in
  let nest = stage ~op "frontend.parse" (fun () -> Parser.parse s.Inputs.text) in
  let analysis = stage ~op "reuse.analyze" (fun () -> Analysis.analyze nest) in
  let cpa =
    stage ~op "dfg.prepare" (fun () ->
        let cpa = Cpa_ra.prepare analysis in
        ignore (Ordering.feasibility_minimum analysis);
        cpa)
  in
  let dfg = Cpa_ra.dfg cpa in
  let scratch = stage ~op "sched.scratch" (fun () -> Sim.scratch ~config:sim ~dfg analysis) in
  let sink, events = Trace.collector () in
  let portfolio = s.Inputs.algorithm = Allocator.Portfolio in
  let alloc =
    stage ~op
      (if portfolio then "core.certify" else "core.allocate")
      (fun () ->
        Core.allocation ~config ~trace:sink ~prepared:cpa ~sim_scratch:scratch
          s.Inputs.algorithm analysis)
  in
  let trace_summary = Trace.summary (events ()) in
  (* Certification simulates on the scratch, so only the plain
     allocators leave the memo-filling walk to the report. *)
  let result =
    stage ~op
      (if portfolio then "sched.sim_warm" else "sched.sim_cold")
      (fun () -> Sim.run ~trace:sink ~config:sim ~scratch alloc)
  in
  let report =
    stage ~op "estimate.report" (fun () ->
        Report.of_result ~clock_params:config.Flow.clock_params ~trace_summary
          ~sim_config:sim
          ~version:(Allocator.version_label s.Inputs.algorithm)
          alloc result)
  in
  let ram_map = Sim.ram_map_for sim alloc in
  let residual = Allocation.residual_ram_groups alloc in
  let charged (g : Group.t) = List.mem g.Group.id residual in
  let latency = sim.Sim.latency in
  let event =
    stage ~op "sched.event_model" (fun () ->
        Srfa_sched.Event_model.makespan ~cap:config.Flow.guards.Flow.event_model_cap
          ~dfg ~latency ~ram_map ~charged ())
  in
  let cycle =
    Srfa_sched.Cycle_model.makespan
      (Srfa_sched.Cycle_model.create ~dfg ~latency ~ram_map ())
      ~charged
  in
  (report, event, cycle)

(* Gate: every input compiled; the stage replay reproduces the
   composite's report byte for byte; the event model agrees with the
   cycle model on the allocated body. *)
let compile_gate compiled =
  List.iter
    (fun ((source : Inputs.source), result) ->
      let label = source.Inputs.label in
      match result with
      | Error ds ->
        check false
          (Printf.sprintf "compile %s: %s" label
             (String.concat "; " (List.map Diag.to_json ds)))
      | Ok (report, _) -> (
        match compile_staged source with
        | staged, event, cycle ->
          check
            (Protocol.json_of_report staged = Protocol.json_of_report report)
            ("compile " ^ label ^ ": stage replay differs from Flow.Core.checked");
          check (event = cycle)
            (Printf.sprintf "compile %s: event model %d <> cycle model %d" label event cycle)
        | exception exn ->
          check false ("compile " ^ label ^ ": " ^ Printexc.to_string exn)))
    compiled

(* ---- sweep ------------------------------------------------------------ *)

(* Stage replay of one kernel's ladder, in Core.sweep_kernel's order. *)
let sweep_staged (name, nest) =
  let op = "sweep" in
  let config = Flow.default_config in
  let analysis = stage ~op "reuse.analyze" (fun () -> Analysis.analyze nest) in
  let cpa = stage ~op "dfg.prepare" (fun () -> Cpa_ra.prepare analysis) in
  let minimum = Ordering.feasibility_minimum analysis in
  let scratch =
    stage ~op "sched.scratch" (fun () ->
        Sim.scratch ~config:config.Flow.sim ~dfg:(Cpa_ra.dfg cpa) analysis)
  in
  let cold = ref true in
  let carry = ref None in
  List.iter
    (fun budget ->
      if budget >= minimum then
        List.iter
          (fun algorithm ->
            let config = config_at budget in
            match algorithm with
            | Allocator.Portfolio ->
              ignore
                (stage ~op "core.certify" (fun () ->
                     Core.portfolio_point ~prepared:cpa ~sim_scratch:scratch ~carry config
                       name analysis));
              cold := false
            | _ ->
              let sink, events = Trace.collector () in
              let alloc =
                stage ~op "core.allocate" (fun () ->
                    Core.allocation ~config ~trace:sink ~prepared:cpa ~sim_scratch:scratch
                      algorithm analysis)
              in
              let trace_summary = Trace.summary (events ()) in
              let result =
                stage ~op
                  (if !cold then "sched.sim_cold" else "sched.sim_warm")
                  (fun () -> Sim.run ~config:config.Flow.sim ~scratch alloc)
              in
              cold := false;
              ignore
                (stage ~op "estimate.report" (fun () ->
                     Report.of_result ~clock_params:config.Flow.clock_params
                       ~trace_summary ~sim_config:config.Flow.sim
                       ~version:(Allocator.version_label algorithm)
                       alloc result)))
          Allocator.all)
    Core.default_budgets

(* Gate: every carry-free point (everything but the certified
   portfolio, whose ladder carries its best allocation forward) equals
   a fresh Flow.Core.evaluate_prepared of the same design. *)
let sweep_gate kernels points =
  let prepared = List.map (fun (name, nest) -> (name, Core.prepare nest)) kernels in
  List.iter
    (fun (p : Core.sweep_point) ->
      if p.Core.algorithm <> Allocator.Portfolio then
        let fresh =
          Core.evaluate_prepared (config_at p.Core.budget) p.Core.algorithm
            (List.assoc p.Core.kernel prepared)
        in
        check
          (Protocol.json_of_report fresh = Protocol.json_of_report p.Core.report)
          (Printf.sprintf "sweep %s %s@%d differs from evaluate_prepared" p.Core.kernel
             (Allocator.name p.Core.algorithm) p.Core.budget))
    points

(* ---- explore ---------------------------------------------------------- *)

let mat_space =
  {
    Core.default_space with
    Core.orders = Core.All_orders;
    tile_factors = [ 2; 4 ];
    space_budgets = [ 8; 16; 32; 64; 128 ];
    space_algorithms = [ Allocator.Cpa_ra; Allocator.Fr_ra ];
  }

let probe_space =
  {
    Core.default_space with
    Core.orders = Core.All_orders;
    tile_factors = [ 2 ];
    space_budgets = [ 8; 16; 32; 64 ];
    space_algorithms = [ Allocator.Cpa_ra ];
  }

let explore_counts (f : Core.frontier) =
  let s = f.Core.frontier_stats in
  let evaluated = float_of_int s.Core.points_evaluated in
  let pruned = float_of_int s.Core.points_pruned in
  set_count "core.explore_points_evaluated" evaluated;
  set_count "core.explore_prune_rate" (pruned /. Float.max 1.0 (pruned +. evaluated));
  set_count "core.explore_memo_hit_rate"
    (float_of_int s.Core.sim_memo_hits /. Float.max 1.0 evaluated)

(* ---- rebudget --------------------------------------------------------- *)

type stream = { spec : Gen.stream; prepared : Core.prepared }

let prepare_streams specs =
  let cache = Hashtbl.create 8 in
  List.map
    (fun (spec : Gen.stream) ->
      let prepared =
        match Hashtbl.find_opt cache spec.Gen.kernel with
        | Some p -> p
        | None ->
          let p = Core.prepare (Option.get (Srfa_kernels.Kernels.find spec.Gen.kernel)) in
          Hashtbl.replace cache spec.Gen.kernel p;
          p
      in
      { spec; prepared })
    specs

let rebudget s =
  Core.rebudget Flow.default_config s.prepared ~initial:s.spec.Gen.initial
    ~events:s.spec.Gen.events

let rebudget_staged streams =
  let op = "rebudget" in
  let steps = ref 0 and memo = ref 0 in
  List.iter
    (fun s ->
      let session, _ =
        stage ~op "core.rebudget_start" (fun () ->
            Core.rebudget_start Flow.default_config s.prepared ~budget:s.spec.Gen.initial)
      in
      List.iter
        (fun budget ->
          let step =
            stage ~op "core.rebudget_step" (fun () -> Core.rebudget_step session ~budget)
          in
          incr steps;
          if step.Core.memoized then incr memo)
        s.spec.Gen.events)
    streams;
  set_count "core.rebudget_memo_share" (float_of_int !memo /. float_of_int (max 1 !steps))

(* Gate: after every event the live allocation is no slower than FR-RA
   and PR-RA at the effective budget. *)
let rebudget_gate streams results =
  let bar = Hashtbl.create 64 in
  List.iter2
    (fun s steps ->
      List.iter
        (fun (step : Core.rebudget_step) ->
          let key = (s.spec.Gen.kernel, step.Core.effective) in
          let limit =
            match Hashtbl.find_opt bar key with
            | Some l -> l
            | None ->
              let cycles alg =
                (Core.evaluate_prepared (config_at step.Core.effective) alg s.prepared)
                  .Report.cycles
              in
              let l = min (cycles Allocator.Fr_ra) (cycles Allocator.Pr_ra) in
              Hashtbl.replace bar key l;
              l
          in
          check
            (step.Core.report.Report.cycles <= limit)
            (Printf.sprintf "rebudget %s@%d: %d cycles > bar %d" s.spec.Gen.kernel
               step.Core.effective step.Core.report.Report.cycles limit))
        steps)
    streams results

(* ---- serve ------------------------------------------------------------ *)

type answers = (string * string, Inputs.request * int ref) Hashtbl.t
(** distinct (request line, response) pairs with their multiplicity *)

let ok_status = {|"status": "ok"|}

(* An answer the gate only needs to be ok (rebudget, stats) collapses to
   one entry per request line, so its changing counters do not make
   every repeat a distinct check. *)
let note_answer (answers : answers) (req : Inputs.request) resp =
  let resp =
    match req.Inputs.expect with
    | Inputs.Answer when contains resp ok_status && not (contains resp "E-INTERNAL") ->
      "{" ^ ok_status ^ "}"
    | _ -> resp
  in
  match Hashtbl.find_opt answers (req.Inputs.line, resp) with
  | Some (_, n) -> incr n
  | None -> Hashtbl.replace answers (req.Inputs.line, resp) (req, ref 1)

let report_of_response resp =
  match Protocol.member "report" (Protocol.parse_json resp) with
  | Some r -> r
  | None -> Protocol.Null

(* Gate: each allocate answer carries exactly Flow.Core.checked's report
   for the same input; explore answers carry the frontier the explorer
   computes in-process; malformed requests come back with their code;
   nothing answers E-INTERNAL. Returns the exec-time samples of the ok
   allocate answers, one per answer. The expected reports are computed
   on [pool], one task per distinct request line. *)
let serve_gate ~pool (answers : answers) =
  let expected = Hashtbl.create 64 in
  let memo line f =
    match Hashtbl.find_opt expected line with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.replace expected line v;
      v
  in
  let want_report ~nest ~device ~algorithm ~budget =
    let config = config_at budget in
    let config = { config with Flow.sim = { config.Flow.sim with device } } in
    match Core.checked ~config ~algorithm (nest ()) with
    | Ok (r, _) -> {|"report": |} ^ Protocol.json_of_report r
    | Error _ -> "<no report>"
  in
  let reports = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (line, _) ((req : Inputs.request), _) ->
      match req.Inputs.expect with
      | Inputs.Report { nest; device; algorithm; budget } ->
        Hashtbl.replace reports line (fun () -> want_report ~nest ~device ~algorithm ~budget)
      | _ -> ())
    answers;
  let lines = Array.of_seq (Hashtbl.to_seq reports) in
  Array.iter2
    (fun (line, _) want -> Hashtbl.replace expected line want)
    lines
    (Pool.map pool (fun (_, want) -> want ()) lines);
  let exec = ref [] in
  Hashtbl.iter
    (fun (line, resp) ((req : Inputs.request), n) ->
      let ok = contains resp ok_status in
      let verdict, what =
        match req.Inputs.expect with
        | Inputs.Report _ ->
          let want = Hashtbl.find expected line in
          let good = ok && contains resp want in
          if good then (
            match Protocol.member "exec_time_us" (report_of_response resp) with
            | Some (Protocol.Float us) -> for _ = 1 to !n do exec := us :: !exec done
            | Some (Protocol.Int us) ->
              for _ = 1 to !n do exec := float_of_int us :: !exec done
            | _ -> ());
          (good, "report differs from Flow.Core.checked")
        | Inputs.Frontier _ ->
          let want =
            memo line (fun () ->
                match Protocol.parse_request line with
                | Error _ -> "<bad request>"
                | Ok r -> (
                  match Cache.space_of_request r with
                  | Error _ -> "<bad space>"
                  | Ok (space, _) ->
                    let f =
                      Core.explore ~space Flow.default_config
                        (Srfa_kernels.Kernels.example ())
                    in
                    {|"frontier": |} ^ Core.frontier_json ~compact:true f))
          in
          (ok && contains resp want, "frontier differs from Flow.Core.explore")
        | Inputs.Answer -> (ok, "not ok")
        | Inputs.Code code ->
          ((not ok) && contains resp (Printf.sprintf {|"code": "%s"|} code), "expected " ^ code)
      in
      let verdict = verdict && not (contains resp "E-INTERNAL") in
      check verdict (Printf.sprintf "serve %s (%s): %s" req.Inputs.kind what
                       (String.sub line 0 (min 80 (String.length line)))))
    answers;
  !exec

(* In-process replay of one request through the daemon's own cache
   tiers, in the order its accept loop calls them for a one-request
   batch. *)
let serve_staged cache line =
  let op = "serve" in
  let render f = stage ~op "serve.render" f in
  let error ?id ds = render (fun () -> Protocol.response_error ?id ds) in
  match stage ~op "serve.parse_request" (fun () -> Protocol.parse_request line) with
  | Error d -> error ?id:(Protocol.recover_id line) [ d ]
  | Ok req -> (
    let id = req.Protocol.id in
    match req.Protocol.op with
    | Protocol.Stats -> render (fun () -> Protocol.response_stats ?id (Cache.stats cache))
    | Protocol.Shutdown -> render (fun () -> Protocol.response_bye ?id ())
    | Protocol.Rebudget -> (
      match Cache.resolve req with
      | Error ds -> error ?id ds
      | Ok r -> (
        let stream = Option.value req.Protocol.stream ~default:"default" in
        match stage ~op "serve.rebudget" (fun () -> Cache.rebudget cache r ~stream) with
        | Error ds -> error ?id ds
        | Ok (step, status) ->
          let rb =
            {
              Protocol.rb_requested = step.Core.requested;
              rb_effective = step.Core.effective;
              rb_clamped = step.Core.clamped;
              rb_freed = step.Core.freed;
              rb_respent = step.Core.respent;
              rb_memoized = step.Core.memoized;
            }
          in
          render (fun () ->
              Protocol.response_ok ?id ~rebudget:rb ~cache:status
                ~warnings:step.Core.warnings step.Core.report)))
    | Protocol.Explore -> (
      match Cache.resolve req with
      | Error ds -> error ?id ds
      | Ok r -> (
        match Cache.space_of_request req with
        | Error ds -> error ?id ds
        | Ok (space, spec) -> (
          match stage ~op "serve.explore" (fun () -> Cache.explore cache r ~space ~spec) with
          | Error ds -> error ?id ds
          | Ok (v, status) ->
            render (fun () ->
                Protocol.response_explore ?id
                  ~cache:(status :> Cache.status)
                  ~warnings:v.Cache.explore_warnings ~stats:v.Cache.explore_stats
                  v.Cache.frontier))))
    | Protocol.Allocate -> (
      let looked =
        stage ~op "serve.lookup" (fun () ->
            match Cache.resolve req with
            | Error ds -> Error ds
            | Ok r ->
              let t1 = Cache.tier1_key ~device:r.Cache.device r.Cache.source in
              let t2 =
                Cache.tier2_key ~tier1:t1 ~algorithm:r.Cache.algorithm ~budget:r.Cache.budget
                  ~cut_work_limit:r.Cache.cut_work_limit
              in
              Ok (r, t1, t2, Cache.find_report cache t2))
      in
      match looked with
      | Error ds -> error ?id ds
      | Ok (_, _, _, Some v) ->
        render (fun () ->
            Protocol.response_ok ?id ~cache:`Hit ~warnings:v.Cache.warnings v.Cache.report)
      | Ok (r, t1, t2, None) -> (
        let entry =
          match stage ~op "serve.lookup" (fun () -> Cache.find_entry cache t1) with
          | Some e -> Ok (e, `Analysis)
          | None -> (
            match stage ~op "serve.build_entry" (fun () -> Cache.build_entry r ~t1) with
            | e ->
              stage ~op "serve.insert" (fun () -> Cache.insert_entry cache e);
              Ok (e, `Miss)
            | exception exn -> Error [ Diag.of_exn exn ])
        in
        match entry with
        | Error ds -> error ?id ds
        | Ok (e, status) -> (
          (* A refused budget fails fast and is never cached; keeping it
             out of serve.compute leaves that stage the miss path's. *)
          let computed, dt = M.time (fun () -> Cache.compute r e) in
          record ~op
            (if Result.is_ok computed then "serve.compute" else "serve.compute_refused")
            dt;
          match computed with
          | Error ds -> error ?id ds
          | Ok (report, warnings) ->
            stage ~op "serve.insert" (fun () ->
                Cache.insert_report cache t2 { Cache.report; warnings });
            render (fun () -> Protocol.response_ok ?id ~cache:status ~warnings report)))))

(* Read a counter from a stats response. *)
let stat resp key =
  match Option.bind (Protocol.member "stats" (Protocol.parse_json resp)) (Protocol.member key) with
  | Some (Protocol.Int n) -> n
  | _ -> 0
