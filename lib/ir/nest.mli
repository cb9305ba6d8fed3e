(** Perfectly nested loops with compile-time constant bounds.

    This is the program representation the paper's analyses operate on:
    a perfect nest of counted loops around a straight-line body of array
    assignments. Loops are normalized ([0 .. count-1], unit stride). *)

type loop = private { var : string; count : int }

type t = private {
  name : string;
  arrays : Decl.t list;  (** every array/scalar used by the body *)
  loops : loop list;     (** outermost first; never empty *)
  body : Expr.stmt list; (** executed once per iteration point; never empty *)
}

val loop : string -> int -> loop
(** @raise Invalid_argument if the trip count is not positive or the
    variable name is empty. *)

val make : name:string -> arrays:Decl.t list -> loops:loop list ->
  body:Expr.stmt list -> t
(** Builds and validates a nest. Checks performed:
    - at least one loop and one statement;
    - loop variables are distinct;
    - every reference's array appears in [arrays], with matching rank;
    - index expressions use only enclosing loop variables;
    - every access is in bounds for every iteration (affine extremes);
    - no two declarations share a name;
    - the iteration count, each array's size in bits and each index's
      extremes fit in an int.
    @raise Invalid_argument with a descriptive message otherwise. *)

val depth : t -> int
val trip_counts : t -> int list
val iterations : t -> int
(** Product of the trip counts. *)

val loop_vars : t -> string list
(** Outermost first. *)

val refs : t -> Expr.ref_ list
(** All references of the body in program order (reads of each statement,
    then its write), duplicates kept. *)

val find_array : t -> string -> Decl.t
(** @raise Not_found if no declaration has that name. *)

val pp : Format.formatter -> t -> unit
(** C-like rendering of the nest. *)
