(** Functional-unit pools for resource dependencies (paper Figure 4).

    When limits are finite, an operation that is data-ready at level [l]
    issues at the least level [l' >= l] at which every pool it draws from
    — the total pool and its class pool, whichever are limited — has a
    free unit, and every unit it acquires is held for that level only
    (fully pipelined units). The paper's two-generic-FU example in
    Figure 4 corresponds to [{ total = Some 2; ... }].

    Each pool counts its units per level in a flat array. Each distinct
    pool set (a class pool, alone or under the total; the total alone)
    keeps one path-compressed "next level with room" array, so a search
    skips every level that is full in any pool of its set. Memory is
    O(deepest placed level) words per pool and per pool set. *)

type t

val create : Config.fu_limits -> t
(** @raise Invalid_argument when a limit is below 1. *)

val unlimited : t -> bool

val place : t -> Ddg_isa.Opclass.t -> int -> int
(** [place t cls ready_level] finds the issue level for an operation of
    class [cls] that is ready at [ready_level], acquires the units, and
    returns the level. With no limited pool for [cls] this is the
    identity on [ready_level]; otherwise [ready_level] must be >= 0. *)
