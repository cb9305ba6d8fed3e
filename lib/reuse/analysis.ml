open Srfa_ir
module Arena = Srfa_util.Arena

type info = {
  group : Group.t;
  reuse : Kernelspace.t;
  has_reuse : bool;
  window_level : int;
  nu : int;
  accesses : int;
  distinct : int;
  saved_full : int;
  benefit_cost : float;
  lin_coeffs : int array;
  lin_const : int;
}

type t = { nest : Nest.t; groups : Group.t array; infos : info array }

(* The element index of an affine reference linearises (row-major) into a
   single affine function of the iteration point; precomputing its
   coefficients makes the per-iteration analyses cheap. *)
let linearise nest (r : Expr.ref_) =
  let vars = Array.of_list (Nest.loop_vars nest) in
  let depth = Array.length vars in
  let coeffs = Array.make depth 0 in
  let const = ref 0 in
  let dims = Array.of_list r.Expr.decl.Decl.dims in
  let stride = Array.make (Array.length dims) 1 in
  for d = Array.length dims - 2 downto 0 do
    stride.(d) <- stride.(d + 1) * dims.(d + 1)
  done;
  let add_dim d ix =
    const := !const + (stride.(d) * Affine.constant ix);
    for l = 0 to depth - 1 do
      coeffs.(l) <- coeffs.(l) + (stride.(d) * Affine.coeff ix vars.(l))
    done
  in
  List.iteri add_dim r.Expr.index;
  (coeffs, !const)

let element_of coeffs const point =
  let acc = ref const in
  for l = 0 to Array.length coeffs - 1 do
    acc := !acc + (coeffs.(l) * point.(l))
  done;
  !acc

(* Closed-form element counts. The elements a group touches over a
   rectangular box [0 <= k_l < counts.(l)] are the values of
   [const + sum_l c_l * k_l], so their number is the size of the sumset of
   the progressions [{c_l * k : 0 <= k < counts.(l)}]. Negating a
   coefficient only translates its progression, a level with a zero
   coefficient or a single iteration adds nothing, and a common factor
   scales every sum, so only [|c_l| / g] over the moving levels matters. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Dense path: mark the reachable offsets [0, span) level by level. After
   level (a, n) offset x is reachable iff some x - j*a (0 <= j < n) was, a
   sliding-window OR along x's residue class mod a; tracking the last
   reachable offset seen lets the pass run in place, ascending. *)
let count_dense levels span =
  let reach = Bytes.make span '\000' in
  Bytes.unsafe_set reach 0 '\001';
  let top = ref 0 in
  List.iter
    (fun (a, n) ->
      top := !top + (a * (n - 1));
      let width = a * n in
      for r = 0 to a - 1 do
        let last = ref (-width) in
        let x = ref r in
        while !x <= !top do
          if Bytes.unsafe_get reach !x <> '\000' then last := !x
          else if !x - !last < width then Bytes.unsafe_set reach !x '\001';
          x := !x + a
        done
      done)
    levels;
  let count = ref 0 in
  for x = 0 to !top do
    if Bytes.unsafe_get reach x <> '\000' then incr count
  done;
  !count

(* Sparse path, for spans far wider than the box (huge strides): list the
   box's sums in one array, sort, count the runs. *)
let count_sparse levels box =
  let sums = Array.make box 0 in
  let len = ref 1 in
  List.iter
    (fun (a, n) ->
      let m = !len in
      for k = 1 to n - 1 do
        let shift = k * a in
        for i = 0 to m - 1 do
          sums.((k * m) + i) <- sums.(i) + shift
        done
      done;
      len := m * n)
    levels;
  Array.sort Int.compare sums;
  let count = ref 1 in
  for i = 1 to box - 1 do
    if sums.(i) <> sums.(i - 1) then incr count
  done;
  !count

let box_distinct ~counts coeffs =
  let levels = ref [] in
  Array.iteri
    (fun l c -> if c <> 0 && counts.(l) > 1 then levels := (abs c, counts.(l)) :: !levels)
    coeffs;
  match !levels with
  | [] -> 1
  | levels ->
    let g = List.fold_left (fun g (a, _) -> gcd g a) 0 levels in
    let levels = List.map (fun (a, n) -> (a / g, n)) levels in
    let span = List.fold_left (fun s (a, n) -> s + (a * (n - 1))) 1 levels in
    let box = List.fold_left (fun b (_, n) -> b * n) 1 levels in
    (* One byte per offset against one word per point: take whichever
       buffer is smaller, so no count allocates more than its box. *)
    if span / (Sys.word_size / 8) <= box then count_dense levels span
    else count_sparse levels box

(* The reuse window is one iteration of the carrying loop's body, scaled
   by the carry distance (delta consecutive iterations for coupled indices
   with non-unit steps): outer levels pinned, the carrying level sweeping
   [0, delta), inner levels over their full ranges. *)
let window_counts ~counts ~level ~delta =
  Array.mapi
    (fun l n -> if l < level - 1 then 1 else if l = level - 1 then min delta n else n)
    counts

let analyze nest =
  let groups = Group.collect nest in
  let loop_vars = Nest.loop_vars nest in
  let counts = Array.of_list (Nest.trip_counts nest) in
  let depth = Array.length counts in
  (* Every group is touched each iteration (straight-line body), so
     accesses = iterations. *)
  let iterations = Nest.iterations nest in
  let info_of (g : Group.t) =
    let coeffs, const = linearise nest g.Group.ref_ in
    let reuse = Kernelspace.of_index ~loop_vars g.Group.ref_.Expr.index in
    let has_reuse = Kernelspace.has_reuse reuse in
    let window_level, delta =
      match (Kernelspace.carry_level reuse, Kernelspace.carry_distance reuse) with
      | Some l, Some d -> (l, d)
      | _ -> (depth + 1, 1)
    in
    let nu =
      if not has_reuse then 1
      else
        box_distinct
          ~counts:(window_counts ~counts ~level:window_level ~delta)
          coeffs
    in
    let accesses = iterations in
    let distinct = box_distinct ~counts coeffs in
    let saved_full = if has_reuse then accesses - distinct else 0 in
    {
      group = g;
      reuse;
      has_reuse;
      window_level;
      nu;
      accesses;
      distinct;
      saved_full;
      benefit_cost = float_of_int saved_full /. float_of_int nu;
      lin_coeffs = coeffs;
      lin_const = const;
    }
  in
  { nest; groups; infos = Array.map info_of groups }

let info t gid =
  if gid < 0 || gid >= Array.length t.infos then
    invalid_arg "Analysis.info: group id out of range";
  t.infos.(gid)

let element_index i point = element_of i.lin_coeffs i.lin_const point
let num_groups t = Array.length t.infos

let total_registers_full t =
  Array.fold_left (fun acc i -> acc + i.nu) 0 t.infos

let window_start t (i : info) = min i.window_level (Nest.depth t.nest)

(* Visit the points of the box whose levels below [from] are pinned to 0,
   in execution order. [point] is reused between calls. *)
let iter_box counts ~from f =
  let depth = Array.length counts in
  let point = Array.make depth 0 in
  let rec walk l =
    if l = depth then f point
    else
      for c = 0 to (if l < from then 0 else counts.(l) - 1) do
        point.(l) <- c;
        walk (l + 1)
      done
  in
  walk 0

(* One reuse window's first-touch ranks. The tracker restarts its rank
   table whenever a coordinate above the window changes, and adding the
   same constant to every element leaves first-touch order alone, so this
   one walk (outer coordinates at 0) is every window's rank sequence. *)
let window_ranks t (i : info) =
  let counts = Array.of_list (Nest.trip_counts t.nest) in
  let from = window_start t i in
  let size = ref 1 in
  for l = from to Array.length counts - 1 do
    size := !size * counts.(l)
  done;
  if not i.has_reuse then Array.make !size max_int
  else begin
    let ranks = Array.make !size 0 in
    let seen = Arena.Table.create ~capacity:64 () in
    let idx = ref 0 in
    iter_box counts ~from (fun point ->
        let e = element_of i.lin_coeffs i.lin_const point in
        let r =
          match Arena.Table.find seen e ~default:(-1) with
          | -1 ->
            let r = Arena.Table.cardinal seen in
            Arena.Table.set seen e r;
            r
          | r -> r
        in
        ranks.(!idx) <- r;
        incr idx);
    ranks
  end

(* Candidate slot-rank expression: a mixed-radix index over the in-window
   levels the reference depends on. Verified against the true first-touch
   order of one window; coupled index maps (where later iterations revisit
   elements out of radix order) fail the check and return None. *)
let rank_affine t (i : info) =
  if not i.has_reuse then None
  else begin
    let counts = Array.of_list (Nest.trip_counts t.nest) in
    let depth = Array.length counts in
    let from = window_start t i in
    let coeffs = Array.make depth 0 in
    let radix = ref 1 in
    for l = depth - 1 downto from do
      if i.lin_coeffs.(l) <> 0 then begin
        coeffs.(l) <- !radix;
        radix := !radix * counts.(l)
      end
    done;
    let ranks = window_ranks t i in
    let ok = ref true and idx = ref 0 in
    iter_box counts ~from (fun point ->
        let predicted = ref 0 in
        for l = from to depth - 1 do
          predicted := !predicted + (coeffs.(l) * point.(l))
        done;
        if !predicted <> ranks.(!idx) then ok := false;
        incr idx);
    if !ok then Some coeffs else None
  end

module Tracker = struct
  (* Per-group first-touch ranks within the current reuse window. The
     rank table is an Arena.Table so the per-window clear (every time an
     outer coordinate changes — the inner hot loop of the simulator) is a
     generation bump, not a bucket-array wipe, and rank lookups allocate
     nothing. *)
  type gstate = {
    ranks : Arena.Table.t;
    mutable next_rank : int;
    window : int array; (* coords of levels 1..window_level *)
    mutable current_rank : int;
  }

  type tracker = { analysis : t; states : gstate array }

  let create analysis =
    let depth = List.length (Nest.trip_counts analysis.nest) in
    let mk (i : info) =
      let wl = min i.window_level depth in
      {
        ranks = Arena.Table.create ~capacity:64 ();
        next_rank = 0;
        window = Array.make (max wl 0) (-1);
        current_rank = max_int;
      }
    in
    { analysis; states = Array.map mk analysis.infos }

  let reset tr =
    Array.iter
      (fun st ->
        Arena.Table.reset st.ranks;
        st.next_rank <- 0;
        Array.fill st.window 0 (Array.length st.window) (-1);
        st.current_rank <- max_int)
      tr.states

  let step tr point =
    let infos = tr.analysis.infos in
    for gi = 0 to Array.length infos - 1 do
      let i = infos.(gi) in
      if i.has_reuse then begin
        let st = tr.states.(gi) in
        let wl = Array.length st.window in
        let changed = ref false in
        for l = 0 to wl - 1 do
          if st.window.(l) <> point.(l) then changed := true
        done;
        if !changed then begin
          Array.blit point 0 st.window 0 wl;
          Arena.Table.reset st.ranks;
          st.next_rank <- 0
        end;
        let e = element_index i point in
        let rank =
          match Arena.Table.find st.ranks e ~default:(-1) with
          | -1 ->
            let r = st.next_rank in
            Arena.Table.set st.ranks e r;
            st.next_rank <- r + 1;
            r
          | r -> r
        in
        st.current_rank <- rank
      end
    done

  let analysis tr = tr.analysis

  let slot_rank tr gid =
    let i = tr.analysis.infos.(gid) in
    if i.has_reuse then tr.states.(gid).current_rank else max_int

  let resident tr gid ~beta ~pinned =
    pinned && slot_rank tr gid < beta
end

let pp_info ppf i =
  Format.fprintf ppf
    "%s: reuse=%b level=%d nu=%d accesses=%d distinct=%d saved=%d b/c=%.2f"
    (Group.name i.group) i.has_reuse i.window_level i.nu i.accesses
    i.distinct i.saved_full i.benefit_cost
