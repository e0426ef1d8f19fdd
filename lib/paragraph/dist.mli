(** Compact integer sample distributions.

    Used for the paper's secondary DDG analyses (section 2.3): the
    distribution of value lifetimes and of the degree of sharing of each
    computed value. Samples are accumulated into power-of-two buckets so
    that memory stays O(1) regardless of trace length, while count, sum,
    min and max stay exact. *)

type t

val create : unit -> t
val add : t -> int -> unit
(** Add one sample. Negative samples are clamped to 0. *)

val count : t -> int
val total : t -> int
val mean : t -> float
(** 0 when empty. *)

val min_value : t -> int
(** @raise Invalid_argument when empty. *)

val max_value : t -> int
(** @raise Invalid_argument when empty. *)

val buckets : t -> (int * int * int) list
(** [(lo, hi, count)] for every non-empty power-of-two bucket
    [lo..hi] (inclusive); bucket 0 is [0..0], then [1..1], [2..3],
    [4..7], ... *)

val of_raw :
  count:int ->
  total:int ->
  min_value:int ->
  max_value:int ->
  (int * int) list ->
  t
(** Reconstruct a distribution from serialised data: a list of
    [(representative sample, count)] pairs, one per non-empty bucket (each
    count lands in the bucket containing its representative — pair
    naturally with the [lo] values of {!buckets}). The moments are trusted
    rather than recomputed, so a round trip through
    [of_raw ~count ~total ~min_value ~max_value] preserves {!mean},
    {!min_value} and {!max_value} exactly. For {!Stats_codec} and other
    deserialisers.
    @raise Invalid_argument when the bucket counts do not sum to [count]
    or a field is out of range. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0..1]: an upper bound on the q-quantile
    (the high edge of the bucket containing it). @raise Invalid_argument
    when empty or [q] out of range. *)

val pp : Format.formatter -> t -> unit
