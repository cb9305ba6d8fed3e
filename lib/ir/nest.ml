type loop = { var : string; count : int }

type t = {
  name : string;
  arrays : Decl.t list;
  loops : loop list;
  body : Expr.stmt list;
}

let loop var count =
  if var = "" then invalid_arg "Nest.loop: empty variable name";
  if count <= 0 then invalid_arg "Nest.loop: non-positive trip count";
  { var; count }

let fail fmt = Format.kasprintf invalid_arg fmt

(* [a * b] (for [b >= 0]) and [a + b], or [None] when the result leaves
   the int range. *)
let mul_opt a b =
  if b = 0 then Some 0
  else if a > max_int / b || a < min_int / b then None
  else Some (a * b)

let add_opt a b =
  let s = a + b in
  if (a >= 0) = (b >= 0) && (s >= 0) <> (a >= 0) then None else Some s

(* Product of positive factors, or [None] on overflow. *)
let product factors =
  List.fold_left
    (fun acc n -> Option.bind acc (fun acc -> mul_opt acc n))
    (Some 1) factors

(* Extremes of an affine expression over the iteration box: each variable
   ranges over [0, count-1] independently, so the bound decomposes per
   term. [None] when a bound leaves the int range. *)
let affine_range loops ix =
  let term range (v, c) =
    match List.find_opt (fun l -> l.var = v) loops with
    | None -> fail "index uses unknown loop variable %s" v
    | Some l ->
      Option.bind range (fun (lo, hi) ->
          Option.bind (mul_opt c (l.count - 1)) (fun b ->
              match (add_opt lo (min 0 b), add_opt hi (max 0 b)) with
              | Some lo, Some hi -> Some (lo, hi)
              | _ -> None))
  in
  let base = Affine.constant ix in
  List.fold_left term (Some (base, base)) (Affine.coeffs ix)

let validate t =
  if t.loops = [] then fail "nest %s: no loops" t.name;
  if t.body = [] then fail "nest %s: empty body" t.name;
  let vars = List.map (fun l -> l.var) t.loops in
  if List.length (List.sort_uniq String.compare vars) <> List.length vars
  then fail "nest %s: duplicate loop variables" t.name;
  let names = List.map (fun d -> d.Decl.name) t.arrays in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then fail "nest %s: duplicate array declarations" t.name;
  (* Every count downstream is an int: reject sizes that do not fit. *)
  if product (List.map (fun l -> l.count) t.loops) = None then
    fail "nest %s: iteration count (product of trip counts %s) overflows"
      t.name
      (String.concat " x " (List.map (fun l -> string_of_int l.count) t.loops));
  let check_size (d : Decl.t) =
    if product (d.Decl.bits :: d.Decl.dims) = None then
      fail "nest %s: array %s has too many elements (size in bits overflows)"
        t.name d.Decl.name
  in
  List.iter check_size t.arrays;
  let check_ref (r : Expr.ref_) =
    let declared =
      List.exists (fun d -> Decl.equal d r.Expr.decl) t.arrays
    in
    if not declared then
      fail "nest %s: reference to undeclared array %s" t.name
        r.Expr.decl.Decl.name;
    let check_dim extent ix =
      match affine_range t.loops ix with
      | None ->
        fail "nest %s: %s index %s overflows, extent %d" t.name
          r.Expr.decl.Decl.name (Affine.to_string ix) extent
      | Some (lo, hi) ->
        if lo < 0 || hi >= extent then
          fail "nest %s: %s index %s ranges over [%d,%d], extent %d" t.name
            r.Expr.decl.Decl.name (Affine.to_string ix) lo hi extent
    in
    List.iter2 check_dim r.Expr.decl.Decl.dims r.Expr.index
  in
  List.iter (fun s -> List.iter check_ref (Expr.stmt_refs s)) t.body

let make ~name ~arrays ~loops ~body =
  let t = { name; arrays; loops; body } in
  validate t;
  t

let depth t = List.length t.loops
let trip_counts t = List.map (fun l -> l.count) t.loops
let iterations t = List.fold_left ( * ) 1 (trip_counts t)
let loop_vars t = List.map (fun l -> l.var) t.loops
let refs t = List.concat_map Expr.stmt_refs t.body

let find_array t name =
  List.find (fun d -> d.Decl.name = name) t.arrays

let pp ppf t =
  Format.fprintf ppf "@[<v>// kernel %s@," t.name;
  List.iter (fun d -> Format.fprintf ppf "%a;@," Decl.pp d) t.arrays;
  let emit_loop depth l =
    Format.fprintf ppf "%sfor (%s = 0; %s < %d; %s++)@,"
      (String.make (2 * depth) ' ')
      l.var l.var l.count l.var
  in
  List.iteri emit_loop t.loops;
  let indent = String.make (2 * depth t) ' ' in
  let emit_stmt s = Format.fprintf ppf "%s%a@," indent Expr.pp_stmt s in
  List.iter emit_stmt t.body;
  Format.fprintf ppf "@]"
