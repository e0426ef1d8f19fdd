(** Minimal JSON emission (no external dependencies) for machine-readable
    CLI output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Pretty-printed with two-space indentation by default; [minify] emits
    a single line. Floats that are whole numbers keep a trailing [.0];
    NaN and infinities are emitted as [null] (JSON has no encoding for
    them).
    @raise Invalid_argument when an [Obj], at any depth, repeats a
    key. *)
