(** O(1)-per-interval accumulation into a level profile, at bounded
    memory.

    The storage (memory-requirement) profile needs one unit added to
    every level in each value's live range. Doing that directly is
    proportional to range length — quadratic over a trace whose values
    live for millions of levels — and keeping the raw intervals until
    the end is proportional to value count, which breaks the streaming
    analyzer's bounded-memory guarantee. This accumulator buckets
    online: each interval costs O(1) (two exact edge-bucket updates plus
    a difference-array pair for the middle), memory is capped at 65536
    buckets, and when the level range outgrows the cap the buckets are
    coalesced pairwise — exactly, since each holds an exact level-unit
    total. The resolved profile is identical to what resolving the raw
    interval multiset at the end would produce, for any [slots] up to
    the 65536-bucket cap (finer resolutions were never requested and are
    no longer representable). *)

type t

val create : unit -> t

val add : t -> lo:int -> hi:int -> unit
(** Record one closed interval. @raise Invalid_argument if [lo < 0] or
    [hi < lo]. *)

val count : t -> int
(** Intervals recorded. *)

val to_profile : ?slots:int -> t -> Profile.t
(** Resolve into a profile of "units live per level", bucketed exactly
    like {!Profile.create} [~slots] would bucket it ([slots] at most
    the 65536 cap). The accumulator remains usable afterwards. *)
