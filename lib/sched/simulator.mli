(** Whole-nest execution simulation.

    Accumulates the cycle cost of every iteration under the given
    allocation, with register residency per reference group as the
    {!Srfa_reuse.Analysis.Tracker} defines it. Under the {!Residency.Pinned}
    policy residency depends only on a point's coordinates from the
    shallowest reuse-window start W on ({!Srfa_reuse.Analysis.window_ranks}),
    so the walk visits that inner box once and weights each point by the
    iterations above W; the dynamic policies, and inner boxes too large to
    tabulate, walk the whole iteration space with the tracker.
    Per-iteration costs are memoised on the set of groups that hit RAM, so
    the walk is linear in the inner box. *)

open Srfa_reuse

type ram_policy =
  | Private_banks  (** one bank per array: the paper's concurrency model *)
  | Single_bank    (** ablation: all accesses serialise on one port *)

type execution =
  | Serial     (** the paper's model: one body evaluation at a time *)
  | Pipelined  (** ablation: fully pipelined body, cost = initiation
                   interval (see {!Cycle_model.initiation_interval}) *)

type config = {
  latency : Srfa_hw.Latency.t;
  device : Srfa_hw.Device.t;
  control_overhead : int;
      (** extra cycles of loop control per body iteration *)
  ram_policy : ram_policy;
  residency : Residency.policy;
      (** register-file management discipline; the paper's is {!Residency.Pinned} *)
  execution : execution;
  mask_group_cap : int;
      (** widest charged-group set memoised on an int bitmask (default 60).
          Nests with more reference groups fall back to a string-keyed
          memo: identical results, slightly slower lookups, and a
          ["guard.mask"] trace event instead of the former hard abort. *)
}

val default_config : config
(** {!Srfa_hw.Latency.default}, XCV1000, no separate control cycles (the
    FSM overlaps next-state computation with the datapath). *)

type result = {
  iterations : int;
  total_cycles : int;       (** makespans + control overhead *)
  memory_cycles : int;      (** cycles attributable to RAM accesses *)
  compute_cycles : int;     (** pure-compute makespan times iterations *)
  control_cycles : int;
  ram_accesses : int;       (** charged group-accesses over the run *)
  register_hits : int;      (** accesses served by pinned registers *)
  group_ram_accesses : int array; (** per group id *)
}

type scratch
(** Reusable simulation state for one (analysis, latency) pair: the DFG,
    the prepared {!Cycle_model} half, the residency tracker, the makespan
    memos and the per-iteration bit buffers. Passing one to {!run} makes
    repeated simulations of the same nest (a budget ladder, a portfolio, a
    sweep) allocation-free apart from the result record itself. Not
    thread-safe: keep one scratch per domain. *)

val scratch :
  ?config:config -> ?dfg:Srfa_dfg.Graph.t -> Analysis.t -> scratch
(** [config] supplies the latency table the scratch is specialised to
    (default {!default_config}); [dfg] donates an already-built graph for
    the same analysis (checked by identity, else rebuilt). *)

val run :
  ?trace:Srfa_util.Trace.sink ->
  ?config:config ->
  ?scratch:scratch ->
  Allocation.t ->
  result
(** Simulates the allocation's nest. [trace] receives a ["guard.mask"]
    event when the nest exceeds [config.mask_group_cap] groups and the
    walk degrades to the string-keyed memo. A [scratch] built from a
    different analysis or latency table is ignored (a fresh one is made),
    so threading one through heterogeneous call sites is always safe. *)

val profile :
  ?trace:Srfa_util.Trace.sink ->
  ?config:config ->
  ?scratch:scratch ->
  Allocation.t ->
  (int * int) list
(** Histogram of per-iteration cycle costs: [(cost, iterations)] pairs,
    ascending by cost. The paper narrates designs this way ("iterations
    have either 1 or 2 memory accesses"); the profile makes the claim
    checkable for any design. *)

val memory_cycles_only : ?config:config -> Allocation.t -> int
(** Convenience: the [memory_cycles] field alone (the paper's T_mem). *)

val ram_map_for : config -> Allocation.t -> Srfa_hw.Ram_map.t
(** The array-to-block mapping the simulation uses: every array backed by
    RAM in steady state, plus input/output arrays (their data must be
    staged in RAM before/after the computation). *)

val pp_result : Format.formatter -> result -> unit
