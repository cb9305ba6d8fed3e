(** Whole-nest data-reuse analysis.

    For every reference group this module computes the quantities the
    paper's allocators consume:

    - whether the group has (symbolic) temporal reuse, and the carrying
      loop level;
    - [nu], the number of registers for {e full} scalar replacement: the
      number of distinct elements the group touches during one iteration of
      the carrying loop's body (the {e reuse window}) — So & Hall's register
      requirement;
    - total accesses (iterations that touch the group) and distinct
      elements over the whole nest;
    - [saved_full], the memory accesses eliminated by full replacement
      (accesses minus the unavoidable cold loads / final writebacks);
    - benefit/cost = saved accesses per required register.

    {b Residency semantics} (calibrated against the Fig. 2 worked example,
    see DESIGN.md §4): with [beta] registers {e pinned} to reuse-window
    slots, the accesses whose element has first-touch rank [< beta] within
    the current window are served by registers; every other access goes to
    RAM. Groups without reuse always go to RAM (their single register is
    the output flip-flop, not a cache). *)

open Srfa_ir

type info = private {
  group : Group.t;
  reuse : Kernelspace.t;
  has_reuse : bool;
  window_level : int;   (** carrying loop level, 1-based; [depth+1] if none *)
  nu : int;
      (** registers for full scalar replacement: {!box_distinct} over the
          reuse-window box (levels above the carrying level pinned, the
          carrying level sweeping the carry distance, inner levels full);
          1 without reuse *)
  accesses : int;       (** iterations touching the group *)
  distinct : int;
      (** distinct elements over the whole nest: {!box_distinct} over the
          full iteration box *)
  saved_full : int;     (** accesses eliminated by full replacement *)
  benefit_cost : float; (** [saved_full / nu] *)
  lin_coeffs : int array; (** per-level coefficients of the linearised
                              element index *)
  lin_const : int;
}

type t = private {
  nest : Nest.t;
  groups : Group.t array;
  infos : info array;    (** indexed by group id *)
}

val analyze : Nest.t -> t
(** Counts come in closed form from {!box_distinct}; nothing walks the
    iteration space. *)

val box_distinct : counts:int array -> int array -> int
(** [box_distinct ~counts c] is the number of distinct values of
    [sum_l c.(l) * k_l] over the box [0 <= k_l < counts.(l)]: the size of
    a sumset of arithmetic progressions. Coefficients are taken in
    absolute value, zero coefficients and unit trip counts dropped, and
    the rest divided by their gcd; reachable offsets are then marked level
    by level with a sliding-window OR per residue class, in one byte per
    offset of the sum's span. When that span is wider than the box's
    points would take as words (a sparse, huge-stride reference) the box's
    sums are sorted and counted instead, so no count allocates more than
    the box it counts. The box's point count and the sum's range must fit
    in an int; {!Srfa_ir.Nest.make} guarantees both for a nest's boxes. *)

val info : t -> int -> info
(** By group id. @raise Invalid_argument when out of range. *)

val element_index : info -> int array -> int
(** Linearised element index touched at an iteration point. *)

val num_groups : t -> int

val window_start : t -> info -> int
(** First (0-based) loop level swept inside one reuse window of the group:
    the levels below it are the window coordinates the {!Tracker} watches.
    [depth] for groups without reuse. *)

val window_ranks : t -> info -> int array
(** The group's first-touch ranks over one reuse window: entry [n] is the
    {!Tracker.slot_rank} at the [n]-th point, in execution order, of the
    box whose levels from {!window_start} on sweep their full range.
    Windows restart whenever a coordinate above them changes and first
    touches are unchanged by adding one constant to every element, so the
    rank at any iteration point is the entry at that point's inner-box
    index (its execution-order rank modulo the array length). Groups
    without reuse get [[| max_int |]]. *)

val rank_affine : t -> info -> int array option
(** Per-level coefficients [r] such that the group's slot rank at every
    iteration point equals [sum_l r.(l) * point.(l)]. The candidate — a
    mixed-radix index over the in-window loop levels the reference actually
    depends on — is validated against {!window_ranks}; [None] when the window's first-touch order is not affine (e.g.
    coupled 2-D stencils like BIC's image reference), in which case code
    generation falls back to RAM for the partial range. *)

val total_registers_full : t -> int
(** Sum of [nu] over all groups: the register demand of aggressive full
    scalar replacement. *)

(** Sequential residency tracker. Walk the iteration space in execution
    order and ask, per group, whether the current access is served by a
    pinned register. *)
module Tracker : sig
  type tracker

  val create : t -> tracker

  val reset : tracker -> unit
  (** Return the tracker to its initial state (as if freshly created) so
      one tracker can be reused across walks of the same nest — the
      simulator scratch does this per evaluation. O(groups); does not
      shrink the rank tables, preserving their warmed-up capacity. *)

  val step : tracker -> int array -> unit
  (** Advance to the given iteration point (must follow execution order;
      windows reset as outer coordinates change). *)

  val analysis : tracker -> t
  (** The analysis the tracker was created from. *)

  val slot_rank : tracker -> int -> int
  (** [slot_rank tr gid] is the first-touch rank of the element the group
      touches at the current point, within the current reuse window. Groups
      without reuse report [max_int]. *)

  val resident : tracker -> int -> beta:int -> pinned:bool -> bool
  (** Whether the group's access at the current point is served by a
      register under the given allocation entry. *)
end

val pp_info : Format.formatter -> info -> unit
