(** Cycle-stepped reference implementation of the body schedule.

    An independent second opinion on {!Cycle_model}: instead of booking
    port intervals along a topological order, this model advances a clock
    cycle by cycle, starting every dependence-ready node whose RAM bank
    has a free port that cycle. Both models implement ASAP list scheduling
    with the same tie-break (topological order), so they must agree; the
    test suite cross-checks them on the paper's kernels and on random
    nests. It is a reference oracle only: no request path runs it. *)

open Srfa_reuse

exception Diverged of { cycles : int; cap : int }
(** The clock passed [cap] cycles without every node starting — the
    schedule is not converging (or the cap is too tight for the body). *)

val makespan :
  ?cap:int ->
  dfg:Srfa_dfg.Graph.t ->
  latency:Srfa_hw.Latency.t ->
  ram_map:Srfa_hw.Ram_map.t ->
  charged:(Group.t -> bool) ->
  unit ->
  int
(** Cycles one body iteration takes under the given memory state. [cap]
    (default 100_000) is the iteration guard on the cycle-stepped clock.
    @raise Diverged when the clock exceeds [cap]. *)
