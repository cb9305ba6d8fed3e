(** The tree's one JSON implementation: a value type, a reader, a string
    escaper, a tree printer, and the joiners fixed-layout emitters use
    to embed preformatted numbers or pre-rendered JSON.

    Diagnostics, trace events, serve responses, frontiers, the CLI's
    [--json] output and the bench artifacts are all written through
    this module, so an escaping or number-format rule means one thing
    everywhere. No JSON library is installed; this is small on
    purpose. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Malformed of string
(** The reader's error, with the byte offset where it gave up. *)

val parse : string -> t
(** Recursive-descent reader for one complete JSON text (surrounding
    whitespace allowed). Integral number literals that fit an [int] are
    [Int]; every other number is [Float]. String escapes decode to
    UTF-8; a [\u] escape takes exactly four hex digits, and a UTF-16
    surrogate pair decodes to one 4-byte sequence.
    @raise Malformed on invalid input, an unpaired surrogate included. *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] for absent keys and non-objects. *)

val string_token : string -> int -> string * int
(** [string_token s i] decodes the string token whose opening quote is
    [s.[i]], with the same decoder as {!parse}: its contents and the
    index one past its closing quote. For scanners that read tokens out
    of text that need not parse as a whole.
    @raise Malformed when no quote opens at [i], or on a truncated or
    malformed token. *)

val add_string : Buffer.t -> string -> unit
(** The escaper: appends [s] as a quoted JSON string. A double quote
    or a backslash gets a backslash, newline and tab print as [\n] and
    [\t], every other byte below 0x20 as a [\u] escape of four
    lowercase hex digits; bytes from 0x80 up pass through untouched. *)

val to_string : t -> string
(** The tree printer, on one line with [", "] and [": "] separators.
    A finite float prints in the fewest digits that read back as the
    same float, with [.0] appended when it would otherwise read as an
    integer; a non-finite float prints as [null]. *)

(** {2 Joiners for fixed-layout emitters}

    A [writer] appends one rendered JSON value to a buffer. Emitters
    whose layout fixes a number's precision ([%.3f] and friends) or that
    embed already-rendered JSON build their objects from writers, in one
    buffer, with the tree printer's separators. *)

type writer = Buffer.t -> unit

val value : t -> writer
(** A tree, as {!to_string} prints it. *)

val raw : string -> writer
(** Text that is already JSON, embedded verbatim. *)

val fixed : int -> float -> writer
(** [fixed d x] — [x] with exactly [d] decimals ([%.*f]). *)

val obj : (string * writer) list -> writer
(** [{"k1": v1, "k2": v2}]. *)

val render : writer -> string
(** A writer's output as a string. *)
