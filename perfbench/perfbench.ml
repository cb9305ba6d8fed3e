(* The repository's benchmark: one workload, one seed, one run.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Every run drives all five entry points — compile (Parser.parse +
   Flow.Core.checked), sweep (Flow.sweep), explore (Flow.Core.explore),
   rebudget (Flow.Core.rebudget) and serve (the srfa_serve daemon over
   its socket) — so every run prints every metric. The workload decides
   which entry point is its home: the home phase gets the full-size
   inputs and the measured seconds; the other four run a small probe of
   fixed size drawn from the same seed. With --trace 0 the last line
   carries the end-to-end metrics; with --trace 1 the same seed is
   replayed stage by stage through each layer's public functions and
   the last line carries the per-layer metrics. The correctness gate
   runs outside every timed region in both modes. --digest runs each
   phase once and prints input and output digests instead (the
   determinism test's mode). *)

module M = Measure
module P = Phases
module J = Srfa_server.Protocol
module Core = Srfa_core.Flow.Core
module Pool = Srfa_util.Pool
module Kernels = Srfa_kernels.Kernels

type workload = Cold_compile | Design_space | Serve_mix

let workloads =
  [ ("cold-compile", Cold_compile); ("design-space", Design_space); ("serve-mix", Serve_mix) ]

type args = {
  workload : workload;
  workload_name : string;
  seed : int;
  seconds : float;
  trace : bool;
  digest : bool;
  serve_exe : string;
  kernels_dir : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload cold-compile|design-space|serve-mix --seed N \
     --seconds S --trace 0|1 [--digest] [--serve-exe PATH] [--kernels-dir DIR]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and digest = ref false in
  let serve_exe = ref "_build/default/bin/srfa_serve.exe" in
  let kernels_dir = ref "kernels_src" in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s when s > 0.0 -> s | _ -> usage ());
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> usage ());
      go rest
    | "--digest" :: rest ->
      digest := true;
      go rest
    | "--serve-exe" :: p :: rest ->
      serve_exe := p;
      go rest
    | "--kernels-dir" :: d :: rest ->
      kernels_dir := d;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some name, Some seed when List.mem_assoc name workloads ->
    {
      workload = List.assoc name workloads;
      workload_name = name;
      seed;
      seconds = !seconds;
      trace = !trace;
      digest = !digest;
      serve_exe = !serve_exe;
      kernels_dir = !kernels_dir;
    }
  | _ -> usage ()

(* ---- inputs ------------------------------------------------------------ *)

type inputs = {
  corpus : Inputs.source list;
  sweep_kernels : (string * Srfa_ir.Nest.t) list;
  explore_input : string * Srfa_ir.Nest.t * Core.space;
  streams : P.stream list;
  hot : Inputs.request list;
  requests : unit -> Inputs.request;
}

let make_inputs a =
  let w = a.workload and seed = a.seed in
  let hot = Inputs.hot_set ~seed in
  {
    corpus =
      Inputs.corpus ~seed ~kernels_dir:a.kernels_dir
        (if w = Cold_compile then Inputs.full_corpus else Inputs.probe_corpus);
    sweep_kernels =
      (if w = Design_space then Kernels.all ()
       else Inputs.sweep_kernels_probe ~seed);
    explore_input =
      (if w = Design_space then ("mat", Kernels.mat (), P.mat_space)
       else ("example", Kernels.example (), P.probe_space));
    streams =
      P.prepare_streams
        (if w = Design_space then
           Inputs.streams ~seed ~kernels:Inputs.stream_kernels_full ~per_kernel:4
         else Inputs.streams ~seed ~kernels:Inputs.stream_kernels_probe ~per_kernel:4);
    hot;
    requests = Inputs.serve_stream ~seed ~hot;
  }

let input_digest a inp =
  let srfa = Srfa_frontend.Parser.print in
  let next = Inputs.serve_stream ~seed:a.seed ~hot:inp.hot in
  M.digest
    (List.map
       (fun (s : Inputs.source) ->
         Printf.sprintf "%s|%s|%d|%s" s.Inputs.label
           (Srfa_core.Allocator.name s.Inputs.algorithm)
           s.Inputs.budget s.Inputs.text)
       inp.corpus
    @ List.map (fun (n, nest) -> n ^ srfa nest) inp.sweep_kernels
    @ (let name, nest, _ = inp.explore_input in [ name ^ srfa nest ])
    @ List.map
        (fun (s : P.stream) ->
          Printf.sprintf "%s|%d|%s" s.P.spec.Srfa_fuzzer.Gen.kernel
            s.P.spec.Srfa_fuzzer.Gen.initial
            (String.concat "," (List.map string_of_int s.P.spec.Srfa_fuzzer.Gen.events)))
        inp.streams
    @ List.map (fun (r : Inputs.request) -> r.Inputs.line) inp.hot
    @ List.init 400 (fun _ -> (next ()).Inputs.line))

(* Set-up: draw the inputs, start the daemon and warm its hot set. *)
let setup a ~jobs =
  let inp = make_inputs a in
  let d = Daemon.start ~exe:a.serve_exe ~jobs in
  List.iter (fun (r : Inputs.request) -> ignore (Daemon.rpc d r.Inputs.line)) inp.hot;
  (inp, d)

(* ---- phase scheduler --------------------------------------------------- *)

(* Phases share the run by time: each repetition goes to the phase
   furthest behind its share, so cheap phases repeat more often and
   every phase samples the whole run, which spreads the host's slow
   moments over all of them. Probes get [probe_share] of the run each and
   at least [probe_reps] repetitions; the home phases split the rest and
   take at least [home_min] repetitions each. *)
type phase = {
  name : string;
  home : bool;
  rep : unit -> unit;
  mutable reps : int;
  mutable spent : float;
}

let probe_reps = 5
let probe_share = 0.08
let home_min = 3

let schedule ~seconds phases =
  let homes = List.length (List.filter (fun p -> p.home) phases) in
  let probes = List.length phases - homes in
  let budget p =
    seconds
    *. if p.home then (1.0 -. (probe_share *. float_of_int probes)) /. float_of_int homes
       else probe_share
  in
  let floor p = if p.home then home_min else probe_reps in
  let progress p = p.spent /. budget p in
  let pending p = p.reps < floor p || progress p < 1.0 in
  let rec loop () =
    match List.filter pending phases with
    | [] -> ()
    | p :: rest ->
      let next = List.fold_left (fun a b -> if progress b < progress a then b else a) p rest in
      let (), dt = M.time next.rep in
      next.reps <- next.reps + 1;
      next.spent <- next.spent +. dt;
      loop ()
  in
  loop ()

(* ---- the run ----------------------------------------------------------- *)

(* One serve repetition is a window of ten decks: every window has the
   same mix, and its 1000 round trips leave ten beyond the p99. The p50
   is taken per deck, which carries the same mix in 100 requests. *)
let serve_chunk = 10 * Inputs.deck_size

(* The traced run replays at most this many serve requests in process. *)
let replay_cap = 20_000

let metric name unit v = (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ])

let stage_unit name =
  let ends suffix =
    let n = String.length name and k = String.length suffix in
    n >= k && String.sub name (n - k) k = suffix
  in
  if ends "_ms" then ("ms", 1e3) else if ends "_us" then ("us", 1e6) else ("s", 1.0)

let print_json json = print_endline (M.to_string json)
let num v = J.Float v
let int n = J.Int n

(* Per-layer metrics: a stage's median call in the metric's unit, or a
   count the run sets. *)
type source = Stage of string | Count of string

let per_layer =
  [
    ("frontend.parse_ms", Stage "frontend.parse");
    ("reuse.analyze_ms", Stage "reuse.analyze");
    ("reuse.elements", Count "reuse.elements");
    ("dfg.prepare_ms", Stage "dfg.prepare");
    ("core.allocate_ms", Stage "core.allocate");
    ("core.certify_ms", Stage "core.certify");
    ("core.sweep_kernel_max_ms", Stage "core.sweep_kernel_max");
    ("util.pool_imbalance", Count "util.pool_imbalance");
    ("core.explore_points_evaluated", Count "core.explore_points_evaluated");
    ("core.explore_prune_rate", Count "core.explore_prune_rate");
    ("core.explore_memo_hit_rate", Count "core.explore_memo_hit_rate");
    ("core.rebudget_step_us", Stage "core.rebudget_step");
    ("core.rebudget_memo_share", Count "core.rebudget_memo_share");
    ("sched.scratch_ms", Stage "sched.scratch");
    ("sched.sim_cold_ms", Stage "sched.sim_cold");
    ("sched.sim_warm_ms", Stage "sched.sim_warm");
    ("sched.event_model_ms", Stage "sched.event_model");
    ("sched.iterations", Count "sched.iterations");
    ("estimate.report_ms", Stage "estimate.report");
    ("serve.parse_request_us", Stage "serve.parse_request");
    ("serve.lookup_us", Stage "serve.lookup");
    ("serve.insert_us", Stage "serve.insert");
    ("serve.render_us", Stage "serve.render");
    ("serve.build_entry_ms", Stage "serve.build_entry");
    ("serve.compute_ms", Stage "serve.compute");
    ("serve.io_wait_us", Stage "serve.io_wait");
    ("serve_rps", Count "serve_rps");
    ("serve_p99_us", Count "serve_p99_us");
    ("serve.tier2_hit_share", Count "serve.tier2_hit_share");
    ("serve.tier1_hit_share", Count "serve.tier1_hit_share");
    ("serve.miss_share", Count "serve.miss_share");
    ("serve.e_internal", Count "serve.e_internal");
    ("serve.shed", Count "serve.shed");
    ("runtime.minor_mb", Count "runtime.minor_mb");
    ("runtime.major_collections", Count "runtime.major_collections");
    ("runtime.tracing_overhead_share", Count "runtime.tracing_overhead_share");
    ("runtime.unaccounted_share", Count "runtime.unaccounted_share");
    ("fail_share", Count "fail_share");
  ]

let count_unit name =
  let has s = P.contains name s in
  if has "share" || has "rate" then "share"
  else if has "imbalance" then "ratio"
  else if has "_mb" then "MB"
  else if has "rps" then "1/s"
  else if has "_us" then "us"
  else "count"

(* The ledger: per (operation, stage) the median call, spread, call
   count and share of the operation's traced time. *)
let ledger () =
  Hashtbl.fold (fun k s acc -> (k, !s) :: acc) P.stages []
  |> List.sort compare
  |> List.map (fun ((op, key), samples) ->
         let unit, scale =
           match List.find_opt (fun (_, src) -> src = Stage key) per_layer with
           | Some (name, _) -> stage_unit name
           | None -> ("ms", 1e3)
         in
         let t = P.op_total op in
         let base = if t.P.traced > 0.0 then t.P.traced else t.P.staged in
         ( op ^ "/" ^ key,
           J.Obj
             [
               ("unit", J.Str unit);
               ("median", num (scale *. M.median samples));
               ("spread", num (M.spread samples));
               ("count", int (List.length samples));
               ("share", num (M.sum samples /. base));
             ] ))

let () =
  let a = parse_args () in
  let interrupted _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  let nproc = M.nproc () in
  let jobs = nproc in
  let is w = a.workload = w in
  (* ---- set-up, several times; the last one is kept ---- *)
  let setups = if a.trace || a.digest then 1 else 3 in
  let setup_times = ref [] and current = ref None in
  for _ = 1 to setups do
    Option.iter (fun (_, d) -> Daemon.stop d) !current;
    let r, dt = M.time (fun () -> setup a ~jobs) in
    setup_times := dt :: !setup_times;
    current := Some r
  done;
  let inp, daemon = Option.get !current in
  (* GC cost of the home operations' traced replays, on the main domain
     that runs them: minor words, major collections and the number of
     replays (a compile, sweep or rebudget pass, or 1000 serve requests). *)
  let gc_words = ref 0.0 and gc_majors = ref 0 and gc_units = ref 0.0 in
  let gc_counted ~home ~units f =
    if not home then f ()
    else begin
      let g0 = Gc.quick_stat () in
      let r = f () in
      let g1 = Gc.quick_stat () in
      gc_words := !gc_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
      gc_majors := !gc_majors + g1.Gc.major_collections - g0.Gc.major_collections;
      gc_units := !gc_units +. units;
      r
    end
  in
  (* Pools live only around the calls that use them, so idle worker
     domains never join the other phases' collections. *)
  let pooled f = Pool.with_pool ~jobs (fun pool -> M.time (fun () -> f pool)) in
  let started = M.now () in
  (* ---- compile ---- *)
  let corpus = Array.of_list inp.corpus in
  let compile_first = Array.make (Array.length corpus) None in
  let compile_times = Array.make (Array.length corpus) [] in
  let compile_rep () =
    let pass = ref 0.0 in
    Array.iteri
      (fun i s ->
        let r, dt = M.time (fun () -> P.compile s) in
        if compile_first.(i) = None then begin
          P.check (Result.is_ok r) ("compile " ^ s.Inputs.label);
          compile_first.(i) <- Some r
        end;
        compile_times.(i) <- dt :: compile_times.(i);
        pass := !pass +. dt)
      corpus;
    if a.trace then begin
      let op = P.op_total "compile" in
      op.P.untraced <- op.P.untraced +. !pass;
      let _, dt =
        gc_counted ~home:(is Cold_compile) ~units:1.0 (fun () ->
            M.time (fun () -> Array.iter (fun s -> ignore (P.compile_staged s)) corpus))
      in
      op.P.traced <- op.P.traced +. dt
    end
  in
  (* ---- sweep ---- *)
  let sweep_first = ref [] and sweep_times = ref [] and sweep_time_share = ref [] in
  let sweep_rep () =
    (* Probes run serially, as the explore probe does: a parallel
       repetition this short waits on whichever vCPU the host took. *)
    let pts, dt =
      let sweep pool = Srfa_core.Flow.sweep ~pool inp.sweep_kernels in
      if is Design_space then pooled sweep else M.time (fun () -> sweep (Pool.create ~jobs:1))
    in
    if !sweep_first = [] then begin
      P.check (pts <> []) "sweep produced no points";
      sweep_first := pts
    end;
    sweep_times := dt :: !sweep_times;
    if a.trace then begin
      let ladders =
        List.map
          (fun kn ->
            snd
              (M.time (fun () ->
                   Core.sweep_kernel ~config:Srfa_core.Flow.default_config
                     ~algorithms:Srfa_core.Allocator.all ~budgets:Core.default_budgets kn)))
          inp.sweep_kernels
      in
      let total = M.sum ladders in
      let longest = List.fold_left Float.max 0.0 ladders in
      P.record ~op:"sweep-ladder" "core.sweep_kernel_max" longest;
      P.set_count "util.pool_imbalance" (longest /. (total /. float_of_int jobs));
      sweep_time_share :=
        List.map2 (fun (name, _) t -> (name, num (t /. total))) inp.sweep_kernels ladders;
      let op = P.op_total "sweep" in
      op.P.untraced <- op.P.untraced +. total;
      let _, dt =
        gc_counted ~home:(is Design_space) ~units:1.0 (fun () ->
            M.time (fun () -> List.iter P.sweep_staged inp.sweep_kernels))
      in
      op.P.traced <- op.P.traced +. dt
    end
  in
  (* ---- explore ---- *)
  let explore_first = ref None and explore_agree = ref true and explore_times = ref [] in
  let explore_rep () =
    let _, nest, space = inp.explore_input in
    (* The probe explores serially: under a pool, which domain publishes
       a frontier point first decides what the others prune, and on a
       space this small that moves the probe's time from run to run. *)
    let f, dt =
      let explore pool = Core.explore ~pool ~space Srfa_core.Flow.default_config nest in
      if is Design_space then pooled explore
      else M.time (fun () -> explore (Pool.create ~jobs:1))
    in
    (match !explore_first with
    | None ->
      P.check (f.Core.points <> []) "explore produced an empty frontier";
      explore_first := Some f
    | Some f0 ->
      explore_agree := !explore_agree && Core.frontier_json f = Core.frontier_json f0);
    if a.trace then P.explore_counts f;
    explore_times := dt :: !explore_times
  in
  (* ---- rebudget ---- *)
  let streams = Array.of_list inp.streams in
  let rebudget_first = ref [] in
  let rebudget_times = Array.make (Array.length streams) [] in
  let rebudget_rep () =
    let steps =
      Array.mapi
        (fun i s ->
          let steps, dt = M.time (fun () -> P.rebudget s) in
          rebudget_times.(i) <- dt :: rebudget_times.(i);
          steps)
        streams
    in
    if !rebudget_first = [] then rebudget_first := Array.to_list steps;
    if a.trace then begin
      let op = P.op_total "rebudget" in
      op.P.untraced <- op.P.untraced +. M.sum (Array.to_list (Array.map List.hd rebudget_times));
      let _, dt =
        gc_counted ~home:(is Design_space) ~units:1.0 (fun () ->
            M.time (fun () -> P.rebudget_staged inp.streams))
      in
      op.P.traced <- op.P.traced +. dt
    end
  in
  (* ---- serve: one client, closed loop ---- *)
  let answers : P.answers = Hashtbl.create 256 in
  let latencies = ref [] and sent = ref [] and kept = ref 0 in
  let windows = ref [] and deck_p50s = ref [] in
  let kinds = Hashtbl.create 8 in
  (* Lines already sent, the set-up's warm-up included: a request whose
     line is here is a repeat. *)
  let seen = Hashtbl.create 1024 and repeats = ref 0 in
  List.iter (fun (r : Inputs.request) -> Hashtbl.replace seen r.Inputs.line ()) inp.hot;
  let serve_rep () =
    let window = ref [] and deck = ref [] in
    for i = 1 to serve_chunk do
      let req = inp.requests () in
      let resp, dt = M.time (fun () -> Daemon.rpc daemon req.Inputs.line) in
      latencies := dt :: !latencies;
      window := dt :: !window;
      deck := dt :: !deck;
      if i mod Inputs.deck_size = 0 then begin
        deck_p50s := fst (M.percentile !deck 0.5) :: !deck_p50s;
        deck := []
      end;
      if a.digest || (a.trace && !kept < replay_cap) then begin
        incr kept;
        sent := (req, resp) :: !sent
      end;
      if Hashtbl.mem seen req.Inputs.line then incr repeats
      else Hashtbl.replace seen req.Inputs.line ();
      Hashtbl.replace kinds req.Inputs.kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt kinds req.Inputs.kind));
      P.note_answer answers req resp
    done;
    windows :=
      (float_of_int serve_chunk /. M.sum !window, fst (M.percentile !window 0.99))
      :: !windows
  in
  let phases =
    [
      { name = "compile"; home = is Cold_compile; rep = compile_rep; reps = 0; spent = 0.0 };
      { name = "sweep"; home = is Design_space; rep = sweep_rep; reps = 0; spent = 0.0 };
      { name = "explore"; home = is Design_space; rep = explore_rep; reps = 0; spent = 0.0 };
      { name = "rebudget"; home = is Design_space; rep = rebudget_rep; reps = 0; spent = 0.0 };
      { name = "serve"; home = is Serve_mix; rep = serve_rep; reps = 0; spent = 0.0 };
    ]
  in
  if a.digest then List.iter (fun p -> p.rep (); p.reps <- 1) phases
  else schedule ~seconds:a.seconds phases;
  let measured_s = M.now () -. started in
  let self_rss_kb = M.vmhwm_kb "self" in
  let daemon_stats = Daemon.rpc daemon {|{"op": "stats"}|} in
  let daemon_rss_kb = Daemon.peak_rss_kb daemon in
  Daemon.stop daemon;
  (* ---- traced serve: the same requests replayed in process ---- *)
  if a.trace then begin
    let cache = Srfa_server.Cache.create () in
    P.recording := false;
    List.iter (fun (r : Inputs.request) -> ignore (P.serve_staged cache r.Inputs.line)) inp.hot;
    P.recording := true;
    (* per distinct allocate line: did every replay answer as the daemon did *)
    let agree = Hashtbl.create 256 in
    gc_counted ~home:(is Serve_mix) ~units:(float_of_int !kept /. 1000.0) (fun () ->
        List.iter2
          (fun ((req : Inputs.request), resp) rtt ->
            let line = req.Inputs.line in
            let replayed, dt = M.time (fun () -> P.serve_staged cache line) in
            (match J.parse_request line with
            | Ok { J.op = J.Allocate; _ } ->
              Hashtbl.replace agree line
                (replayed = resp && Option.value ~default:true (Hashtbl.find_opt agree line))
            | _ -> ());
            P.record ~op:"serve-io" "serve.io_wait" (rtt -. dt))
          (List.rev !sent)
          (List.filteri (fun i _ -> i < !kept) (List.rev !latencies)));
    Hashtbl.iter
      (fun line ok ->
        P.check ok
          ("in-process replay differs from the daemon's answer: "
          ^ String.sub line 0 (min 80 (String.length line))))
      agree
  end;
  (* ---- correctness gate, outside every timed region ---- *)
  P.recording := false;
  P.fig2_gate ();
  P.compile_gate
    (Array.to_list (Array.mapi (fun i s -> (s, Option.get compile_first.(i))) corpus));
  P.sweep_gate inp.sweep_kernels !sweep_first;
  P.check !explore_agree "explore frontier differs between repetitions";
  P.rebudget_gate inp.streams !rebudget_first;
  let serve_exec = Pool.with_pool ~jobs (fun pool -> P.serve_gate ~pool answers) in
  let failed = P.tally.P.failed and attempted = P.tally.P.attempted in
  (* ---- measured input properties ---- *)
  let corpus_props =
    List.map
      (fun (s : Inputs.source) ->
        let nest = Srfa_frontend.Parser.parse s.Inputs.text in
        let groups = Srfa_reuse.Analysis.num_groups (Srfa_reuse.Analysis.analyze nest) in
        (s, nest, groups))
      inp.corpus
  in
  let iterations (_, nest, _) = Srfa_ir.Nest.iterations nest in
  let total f = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 corpus_props) in
  P.set_count "sched.iterations" (total iterations);
  P.set_count "reuse.elements" (total (fun ((_, _, groups) as x) -> iterations x * groups));
  let requests = List.length !latencies in
  let kind_count k = Option.value ~default:0 (Hashtbl.find_opt kinds k) in
  let share k = float_of_int (kind_count k) /. float_of_int (max 1 requests) in
  let points_per_kernel =
    List.map
      (fun (name, _) ->
        ( name,
          int
            (List.length
               (List.filter (fun (p : Core.sweep_point) -> p.Core.kernel = name) !sweep_first)) ))
      inp.sweep_kernels
  in
  let bic_points =
    match List.assoc_opt "bic" points_per_kernel with Some (J.Int n) -> n | _ -> 0
  in
  let explore_name, _, _ = inp.explore_input in
  print_json
    (J.Obj
       [
         ( "inputs",
           J.Obj
             [
               ("digest", J.Str (input_digest a inp));
               ( "compile",
                 J.Arr
                   (List.map
                      (fun (((s : Inputs.source), nest, groups) as x) ->
                        J.Obj
                          [
                            ("input", J.Str s.Inputs.label);
                            ("algorithm", J.Str (Srfa_core.Allocator.name s.Inputs.algorithm));
                            ("iterations", int (iterations x));
                            ("groups", int groups);
                            ("depth", int (Srfa_ir.Nest.depth nest));
                            ("bytes", int (String.length s.Inputs.text));
                          ])
                      corpus_props) );
               ( "serve",
                 J.Obj
                   [
                     ("requests", int requests);
                     ("repeat_share", num (float_of_int !repeats /. float_of_int (max 1 requests)));
                     ("cold_miss_share", num (share "miss"));
                     ( "op_mix",
                       J.Obj
                         (List.map
                            (fun k -> (k, int (kind_count k)))
                            (List.map fst Inputs.deck)) );
                   ] );
               ( "design",
                 J.Obj
                   [
                     ("sweep_points_per_kernel", J.Obj points_per_kernel);
                     ("sweep_time_share_traced", J.Obj !sweep_time_share);
                     ( "bic_share_of_sweep_points",
                       num
                         (float_of_int bic_points
                         /. float_of_int (max 1 (List.length !sweep_first))) );
                     ("explore_kernel", J.Str explore_name);
                     ( "rebudget_streams",
                       J.Arr
                         (List.map
                            (fun (s : P.stream) ->
                              J.Obj
                                [
                                  ("kernel", J.Str s.P.spec.Srfa_fuzzer.Gen.kernel);
                                  ("events", int (List.length s.P.spec.Srfa_fuzzer.Gen.events));
                                ])
                            inp.streams) );
                   ] );
             ] );
       ]);
  (* ---- stamp ---- *)
  let _, beyond = M.percentile (List.filteri (fun i _ -> i < serve_chunk) !latencies) 0.99 in
  let reps name = (List.find (fun p -> p.name = name) phases).reps in
  print_json
    (J.Obj
       [
         ( "stamp",
           J.Obj
             [
               ("workload", J.Str a.workload_name);
               ("seed", int a.seed);
               ("seconds", num a.seconds);
               ("measured_s", num measured_s);
               ("trace", J.Bool a.trace);
               ("nproc", int nproc);
               ("recommended_domain_count", int (Domain.recommended_domain_count ()));
               ("jobs", int jobs);
               ("ocaml_version", J.Str Sys.ocaml_version);
               ( "ocamlrunparam",
                 match Sys.getenv_opt "OCAMLRUNPARAM" with Some s -> J.Str s | None -> J.Null );
               ("setup_repeats", int setups);
               ("peak_rss_kb", J.Obj [ ("benchmark", int self_rss_kb); ("daemon", int daemon_rss_kb) ]);
               ( "samples",
                 J.Obj
                   [
                     ("compile_passes", int (reps "compile"));
                     ("compile_inputs", int (Array.length corpus));
                     ("sweep_reps", int (reps "sweep"));
                     ("explore_reps", int (reps "explore"));
                     ("rebudget_reps", int (reps "rebudget"));
                     ("serve_requests", int requests);
                     ("serve_windows", int (List.length !windows));
                     ("serve_decks", int (List.length !deck_p50s));
                     ("serve_p99_beyond_per_window", int beyond);
                   ] );
               ( "home",
                 J.Str
                   (String.concat ","
                      (List.filter_map (fun p -> if p.home then Some p.name else None) phases)) );
             ] );
       ]);
  if a.digest then begin
    let reports = List.map J.json_of_report in
    let outputs =
      Array.to_list
        (Array.map
           (function
             | Some (Ok (r, _)) -> J.json_of_report r
             | Some (Error ds) -> String.concat ";" (List.map Srfa_util.Diag.to_json ds)
             | None -> "")
           compile_first)
      @ reports (List.map (fun (p : Core.sweep_point) -> p.Core.report) !sweep_first)
      @ (match !explore_first with Some f -> [ Core.frontier_json f ] | None -> [])
      @ List.concat_map
          (fun steps -> reports (List.map (fun (s : Core.rebudget_step) -> s.Core.report) steps))
          !rebudget_first
      @ List.filter_map
          (fun ((req : Inputs.request), resp) ->
            if req.Inputs.kind = "stats" then None else Some resp)
          (List.rev !sent)
    in
    print_json
      (J.Obj
         [
           ("inputs", J.Str (input_digest a inp));
           ("outputs", J.Str (M.digest outputs));
           ("correct", J.Bool (failed = 0));
         ]);
    exit (if failed = 0 then 0 else 1)
  end;
  let metrics =
    if a.trace then begin
      let ops = [ "compile"; "sweep"; "rebudget" ] in
      let total f = M.sum (List.map (fun o -> f (P.op_total o)) ops) in
      let untraced = total (fun t -> t.P.untraced) in
      P.set_count "runtime.tracing_overhead_share"
        ((total (fun t -> t.P.traced) -. untraced) /. untraced);
      P.set_count "runtime.unaccounted_share"
        ((untraced -. total (fun t -> t.P.staged)) /. untraced);
      let served = float_of_int (max 1 (P.stat daemon_stats "served")) in
      let stat_share k = float_of_int (P.stat daemon_stats k) /. served in
      P.set_count "serve.tier2_hit_share" (stat_share "tier2_hits");
      P.set_count "serve.tier1_hit_share" (stat_share "tier1_hits");
      P.set_count "serve.miss_share" (stat_share "tier1_misses");
      P.set_count "serve.shed" (float_of_int (P.stat daemon_stats "shed"));
      P.set_count "serve_rps" (M.median (List.map fst !windows));
      P.set_count "serve_p99_us" (1e6 *. M.median (List.map snd !windows));
      P.set_count "serve.e_internal"
        (float_of_int
           (Hashtbl.fold
              (fun (_, resp) (_, n) acc -> if P.contains resp "E-INTERNAL" then acc + !n else acc)
              answers 0));
      let per_replay x = x /. Float.max 1e-9 !gc_units in
      P.set_count "runtime.minor_mb"
        (per_replay (!gc_words *. float_of_int (Sys.word_size / 8) /. 1e6));
      P.set_count "runtime.major_collections" (per_replay (float_of_int !gc_majors));
      P.set_count "fail_share" (float_of_int failed /. float_of_int (max 1 attempted));
      print_json (J.Obj [ ("ledger", J.Obj (ledger ())) ]);
      List.map
        (fun (name, src) ->
          match src with
          | Stage key ->
            let unit, scale = stage_unit name in
            metric name unit (scale *. M.median (P.samples key))
          | Count key ->
            metric name (count_unit name)
              (Option.value ~default:0.0 (Hashtbl.find_opt P.counts key)))
        per_layer
    end
    else
      let design_exec =
        match a.workload with
        | Cold_compile ->
          Array.to_list compile_first
          |> List.filter_map (function
               | Some (Ok (r, _)) -> Some r.Srfa_estimate.Report.exec_time_us
               | _ -> None)
        | Design_space ->
          List.map (fun (p : Core.sweep_point) -> p.Core.report) !sweep_first
          @ (match !explore_first with
            | Some f -> List.map (fun (p : Core.explore_point) -> p.Core.point_report) f.Core.points
            | None -> [])
          @ List.concat_map
              (List.map (fun (s : Core.rebudget_step) -> s.Core.report))
              !rebudget_first
          |> List.map (fun r -> r.Srfa_estimate.Report.exec_time_us)
        | Serve_mix -> serve_exec
      in
      [
        metric "setup_s" "s" (M.median !setup_times);
        metric "compile_s" "s" (M.sum (Array.to_list (Array.map M.best compile_times)));
        metric "compile_geomean_ms" "ms"
          (M.geomean (Array.to_list (Array.map (fun ts -> 1e3 *. M.best ts) compile_times)));
        metric "sweep_s" "s" (M.best !sweep_times);
        metric "explore_s" "s" (M.best !explore_times);
        metric "rebudget_s" "s" (M.sum (Array.to_list (Array.map M.best rebudget_times)));
        metric "serve_p50_us" "us" (1e6 *. M.best !deck_p50s);
        metric "pass_share" "share" (1.0 -. (float_of_int failed /. float_of_int (max 1 attempted)));
        metric "peak_rss_mb" "MB" (float_of_int (self_rss_kb + daemon_rss_kb) /. 1024.0);
        metric "design_exec_us_geomean" "us" (M.geomean design_exec);
      ]
  in
  print_json
    (J.Obj
       [
         ("correct", J.Bool (failed = 0));
         ("attempted", int attempted);
         ("failed", int failed);
         ("metrics", J.Obj metrics);
       ])
