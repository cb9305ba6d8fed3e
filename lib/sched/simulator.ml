open Srfa_ir
open Srfa_reuse
module Arena = Srfa_util.Arena

type ram_policy = Private_banks | Single_bank
type execution = Serial | Pipelined

type config = {
  latency : Srfa_hw.Latency.t;
  device : Srfa_hw.Device.t;
  control_overhead : int;
  ram_policy : ram_policy;
  residency : Residency.policy;
  execution : execution;
  mask_group_cap : int;
}

let default_config =
  {
    latency = Srfa_hw.Latency.default;
    device = Srfa_hw.Device.xcv1000;
    control_overhead = 0;
    ram_policy = Private_banks;
    residency = Residency.Pinned;
    execution = Serial;
    mask_group_cap = 60;
  }

type result = {
  iterations : int;
  total_cycles : int;
  memory_cycles : int;
  compute_cycles : int;
  control_cycles : int;
  ram_accesses : int;
  register_hits : int;
  group_ram_accesses : int array;
}

(* Arrays that need RAM backing: anything with steady-state traffic, plus
   input/output arrays whose data must be staged regardless of how well the
   registers cover the loop itself. *)
let ram_backed_arrays alloc =
  let analysis = alloc.Allocation.analysis in
  let residual = Allocation.residual_ram_groups alloc in
  let needs (d : Decl.t) =
    match d.Decl.storage with
    | Decl.Input | Decl.Output -> true
    | Decl.Local ->
      let in_residual gid =
        Decl.equal (Group.decl (Analysis.info analysis gid).Analysis.group) d
      in
      List.exists in_residual residual
  in
  List.filter needs analysis.Analysis.nest.Nest.arrays

let ram_map_for config alloc =
  let arrays = ram_backed_arrays alloc in
  match config.ram_policy with
  | Private_banks -> Srfa_hw.Ram_map.build config.device arrays
  | Single_bank -> Srfa_hw.Ram_map.build_single_bank config.device arrays

(* Everything reusable across simulations of the same nest under the same
   latency table: the DFG, the flattened cycle-model half, the residency
   tracker, the makespan memos, and the per-iteration bit buffers. One
   scratch per (analysis, latency); Flow threads one through a whole
   budget ladder the way Cpa_ra.prepare's scratch already travels, so a
   warmed-up evaluation touches the allocator only for the result record.
   Not thread-safe — one scratch per domain (Flow.sweep parallelises
   across kernels, and each kernel's scratch lives inside its task). *)
type scratch = {
  s_analysis : Analysis.t;
  s_latency : Srfa_hw.Latency.t;
  s_dfg : Srfa_dfg.Graph.t;
  s_prepared : Cycle_model.prepared;
  s_tracker : Analysis.Tracker.tracker;
  s_memo : Arena.Table.t; (* charged-set bitmask -> makespan *)
  s_memo_str : (string, int) Hashtbl.t; (* past the mask cap: bytes key *)
  s_charged : bool array;
  s_resident : bool array;
  s_key : Bytes.t;
  s_hist : Arena.Table.t; (* profile: cost -> iteration count *)
  (* Pinned-residency rank table: slot ranks are a pure function of
     (analysis, iteration point) — the allocation only thresholds them
     (resident = pinned && rank < beta) — and of the point's coordinates
     from the shallowest window start W on (Analysis.window_ranks), so
     every evaluation replays the inner box below W once, weighting each
     point by the iterations above W. [inner * ngroups] ints, filled
     lazily; inner boxes past [rank_cache_cap] entries keep the tracked
     walk. *)
  mutable s_ranks : int array;
  mutable s_ranks_ready : bool;
  s_pinned : bool array; (* per-walk allocation snapshot *)
  s_beta : int array;
}

let scratch ?(config = default_config) ?dfg analysis =
  let dfg =
    match dfg with
    | Some d when Srfa_dfg.Graph.analysis d == analysis -> d
    | Some _ | None -> Srfa_dfg.Graph.build analysis
  in
  let ngroups = Analysis.num_groups analysis in
  {
    s_analysis = analysis;
    s_latency = config.latency;
    s_dfg = dfg;
    s_prepared = Cycle_model.prepare ~dfg ~latency:config.latency;
    s_tracker = Analysis.Tracker.create analysis;
    s_memo = Arena.Table.create ~capacity:64 ();
    s_memo_str = Hashtbl.create 64;
    s_charged = Array.make (max ngroups 1) false;
    s_resident = Array.make (max ngroups 1) false;
    s_key = Bytes.make (max ngroups 1) '0';
    s_hist = Arena.Table.create ~capacity:64 ();
    s_ranks = [||];
    s_ranks_ready = false;
    s_pinned = Array.make (max ngroups 1) false;
    s_beta = Array.make (max ngroups 1) 0;
  }

(* Rank tables above this many entries (~64 MB) are not worth their
   memory; such nests keep the tracked walk. *)
let rank_cache_cap = 1 lsl 23

(* Shared walking core: calls [on_iteration weight cost resident_bits]
   so that the weights of each residency pattern sum to the number of
   iteration points showing it. *)
let walk ?(trace = Srfa_util.Trace.null) ?scratch:sc config alloc
    ~on_iteration =
  let analysis = alloc.Allocation.analysis in
  let nest = analysis.Analysis.nest in
  let ngroups = Analysis.num_groups analysis in
  let sc =
    match sc with
    | Some s when s.s_analysis == analysis && s.s_latency == config.latency ->
      s
    | Some _ | None -> scratch ~config analysis
  in
  let ram_map = ram_map_for config alloc in
  let model =
    Cycle_model.create ~prepared:sc.s_prepared ~dfg:sc.s_dfg
      ~latency:config.latency ~ram_map ()
  in
  (* Charged-set bitmask -> makespan. Loop bodies have few groups, so the
     memo stays tiny even though the space walk is long. Bodies with more
     groups than an int mask can hold fall back to a bytes key — same
     memoisation, a little slower per iteration, never an abort. *)
  let cap = min config.mask_group_cap (Sys.int_size - 2) in
  let use_mask = ngroups <= cap in
  if not use_mask then
    Srfa_util.Trace.emit trace (fun () ->
        let open Srfa_util.Trace in
        event "guard.mask"
          [
            ("groups", Int ngroups);
            ("cap", Int cap);
            ("fallback", String "bytes-key memo");
          ]);
  let memo = sc.s_memo in
  Arena.Table.reset memo;
  let memo_str = sc.s_memo_str in
  Hashtbl.reset memo_str;
  let charged_bits = sc.s_charged in
  let makespan_now () =
    let charged (g : Group.t) = charged_bits.(g.Group.id) in
    match config.execution with
    | Serial -> Cycle_model.makespan model ~charged
    | Pipelined -> Cycle_model.initiation_interval model ~charged
  in
  let resident_bits = sc.s_resident in
  let key = sc.s_key in
  (* Memoised cost of the residency pattern currently in
     [resident_bits]/[charged_bits]. *)
  let cost_of_pattern () =
    if use_mask then begin
      let mask = ref 0 in
      for gid = 0 to ngroups - 1 do
        if not resident_bits.(gid) then mask := !mask lor (1 lsl gid)
      done;
      match Arena.Table.find memo !mask ~default:(-1) with
      | -1 ->
        let m = makespan_now () in
        Arena.Table.set memo !mask m;
        m
      | m -> m
    end
    else begin
      for gid = 0 to ngroups - 1 do
        Bytes.unsafe_set key gid (if resident_bits.(gid) then '0' else '1')
      done;
      (* Probe with the shared buffer (find does not retain its key);
         pay for a fresh immutable copy only on a miss. *)
      match Hashtbl.find_opt memo_str (Bytes.unsafe_to_string key) with
      | Some m -> m
      | None ->
        let m = makespan_now () in
        Hashtbl.replace memo_str (Bytes.sub_string key 0 ngroups) m;
        m
    end
  in
  let counts = Array.of_list (Nest.trip_counts nest) in
  let w =
    Array.fold_left
      (fun w i -> min w (Analysis.window_start analysis i))
      (Array.length counts) analysis.Analysis.infos
  in
  let inner = ref 1 in
  for l = w to Array.length counts - 1 do
    inner := !inner * counts.(l)
  done;
  let inner = !inner in
  let use_rank_cache =
    config.residency = Residency.Pinned
    && ngroups > 0
    && inner <= rank_cache_cap / ngroups
  in
  if use_rank_cache && not sc.s_ranks_ready then begin
    let need = inner * ngroups in
    if Array.length sc.s_ranks < need then sc.s_ranks <- Array.make need 0;
    let ranks = sc.s_ranks in
    for gid = 0 to ngroups - 1 do
      let window = Analysis.window_ranks analysis (Analysis.info analysis gid) in
      let period = Array.length window in
      for i = 0 to inner - 1 do
        ranks.((i * ngroups) + gid) <- window.(i mod period)
      done
    done;
    sc.s_ranks_ready <- true
  end;
  if use_rank_cache then begin
    (* Fast path: one pass over the inner box against this allocation's
       thresholds — no tracker stepping, no residency object. *)
    let weight = Nest.iterations nest / inner in
    let pinned = sc.s_pinned and beta = sc.s_beta in
    for gid = 0 to ngroups - 1 do
      let e = Allocation.entry alloc gid in
      pinned.(gid) <- e.Allocation.pinned;
      beta.(gid) <- e.Allocation.beta
    done;
    let ranks = sc.s_ranks in
    for i = 0 to inner - 1 do
      let base = i * ngroups in
      for gid = 0 to ngroups - 1 do
        resident_bits.(gid) <-
          pinned.(gid) && Array.unsafe_get ranks (base + gid) < beta.(gid);
        charged_bits.(gid) <- not resident_bits.(gid)
      done;
      on_iteration weight (cost_of_pattern ()) resident_bits
    done
  end
  else begin
    let residency =
      Residency.create ~tracker:sc.s_tracker config.residency alloc
    in
    let visit point =
      Residency.step residency point;
      for gid = 0 to ngroups - 1 do
        let resident = Residency.resident residency gid in
        charged_bits.(gid) <- not resident;
        resident_bits.(gid) <- resident
      done;
      on_iteration 1 (cost_of_pattern ()) resident_bits
    in
    Iterspace.iter nest visit
  end;
  match config.execution with
  | Serial -> Cycle_model.compute_makespan model
  | Pipelined ->
    Cycle_model.initiation_interval model ~charged:(fun _ -> false)

let run ?trace ?(config = default_config) ?scratch alloc =
  let analysis = alloc.Allocation.analysis in
  let ngroups = Analysis.num_groups analysis in
  let total = ref 0 in
  let ram_accesses = ref 0 in
  let register_hits = ref 0 in
  let group_ram = Array.make ngroups 0 in
  let on_iteration weight cost resident_bits =
    total := !total + (weight * cost);
    for gid = 0 to ngroups - 1 do
      if resident_bits.(gid) then register_hits := !register_hits + weight
      else begin
        ram_accesses := !ram_accesses + weight;
        group_ram.(gid) <- group_ram.(gid) + weight
      end
    done
  in
  let model_baseline = walk ?trace ?scratch config alloc ~on_iteration in
  let iterations = Nest.iterations analysis.Analysis.nest in
  (* Serial: the baseline per-iteration cost is the pure-compute makespan.
     Pipelined: it is the recurrence-limited II, plus a one-time pipeline
     fill of one body depth. *)
  let compute_cycles, fill =
    match config.execution with
    | Serial -> (model_baseline * iterations, 0)
    | Pipelined -> (model_baseline * iterations, model_baseline)
  in
  let control_cycles = config.control_overhead * iterations in
  {
    iterations;
    total_cycles = !total + control_cycles + fill;
    memory_cycles = !total - compute_cycles;
    compute_cycles;
    control_cycles;
    ram_accesses = !ram_accesses;
    register_hits = !register_hits;
    group_ram_accesses = group_ram;
  }

let profile ?trace ?(config = default_config) ?scratch:sc alloc =
  let hist =
    match sc with
    | Some s -> s.s_hist
    | None -> Arena.Table.create ~capacity:64 ()
  in
  Arena.Table.reset hist;
  let on_iteration weight cost _ =
    let cost = cost + config.control_overhead in
    Arena.Table.set hist cost (weight + Arena.Table.find hist cost ~default:0)
  in
  let _ = walk ?trace ?scratch:sc config alloc ~on_iteration in
  let acc = ref [] in
  Arena.Table.iter hist (fun cost count -> acc := (cost, count) :: !acc);
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc

let memory_cycles_only ?config alloc = (run ?config alloc).memory_cycles

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>iterations      %d@,total cycles    %d@,memory cycles   %d@,\
     compute cycles  %d@,control cycles  %d@,ram accesses    %d@,\
     register hits   %d@]"
    r.iterations r.total_cycles r.memory_cycles r.compute_cycles
    r.control_cycles r.ram_accesses r.register_hits
