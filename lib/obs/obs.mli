(** Observability: spans, counters, gauges and latency histograms with a
    global registry and Prometheus text exposition.

    The layer follows the {!Ddg_fault.Fault} discipline: one global
    on/off flag behind an [Atomic.t], so every probe on a disabled
    instrumentation site costs a single atomic load (a few ns) and the
    uninstrumented behaviour of the program is bit-identical. Sites are
    static: a counter or histogram is registered once (normally at
    module initialisation) and the handle is reused on every hit.

    Recording is exact under full parallelism. Counters are sharded
    [Atomic.t] cells indexed by the running domain, histograms are
    sharded mutex-guarded bucket arrays; shards are merged at snapshot
    time, so N domains ({m \times} M systhreads each) recording K events
    yield a count of exactly N·M·K — sharding spreads contention, the
    atomics/mutexes rule out lost updates.

    Histograms are log-bucketed base 2 with exact count/sum/min/max,
    the same scheme as {!Ddg_paragraph.Dist}: bucket 0 holds value 0,
    bucket [i >= 1] holds values in [[2^(i-1), 2^i - 1]]. Snapshots are
    mergeable ({!merge} is associative and commutative) and support
    quantile estimation from the bucket boundaries.

    Time comes from {!Clock}, an injectable source defaulting to a
    monotonic [clock_gettime] read; tests swap in a deterministic fake
    so span durations and histogram contents are bit-stable. *)

(** {1 Clock} *)

module Clock : sig
  val monotonic_ns : unit -> int
  (** Raw monotonic clock: nanoseconds since an arbitrary epoch.
      Allocation-free. *)

  val now_ns : unit -> int
  (** Read the installed source (default: {!monotonic_ns}). *)

  val set_source : (unit -> int) -> unit
  (** Install a custom time source. It must be thread-safe: spans read
      it concurrently from every domain. *)

  val use_monotonic : unit -> unit
  (** Restore the default monotonic source. *)

  val use_fake : ?start_ns:int -> ?step_ns:int -> unit -> unit
  (** Install a deterministic source: every read atomically advances
      the fake time by [step_ns] (default 1) from [start_ns] (default
      0) and returns the advanced value. With a deterministic sequence
      of reads, every span duration is a fixed multiple of [step_ns]. *)
end

(** {1 Global gate} *)

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** Recording happens only while enabled; a probe on a disabled site is
    one atomic load and no clock read. *)

(** {1 Metrics and spans} *)

type counter
type histogram
type gauge

type span = histogram
(** A span site is a histogram of durations in nanoseconds. *)

val counter : ?labels:(string * string) list -> string -> counter
(** [counter name] finds or creates the counter registered under
    [name] and [labels]. Names must match the Prometheus grammar
    [[a-zA-Z_:][a-zA-Z0-9_:]*], label names [[a-zA-Z_][a-zA-Z0-9_]*].
    @raise Invalid_argument on a malformed name or if [name]+[labels]
    is already registered as a histogram. *)

val histogram : ?labels:(string * string) list -> string -> histogram
(** Find or create, as {!counter}. *)

val span_site : ?labels:(string * string) list -> string -> span
(** Alias for {!histogram}, documenting intent: durations in ns. *)

val gauge : ?labels:(string * string) list -> string -> gauge
(** Find or create, as {!counter}. A gauge holds the last value {!set}
    on it: a level read from elsewhere, not a count of events. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** No-ops while disabled. [add] with a negative amount is a no-op. *)

val set : gauge -> int -> unit
(** No-op while disabled. *)

val observe : histogram -> int -> unit
(** Record one sample (negative samples clamp to 0). No-op while
    disabled. *)

val time : span -> (unit -> 'a) -> 'a
(** [time site f] runs [f] and records its duration (in ns, by
    {!Clock.now_ns}) into [site] — also when [f] raises. While
    disabled this is exactly [f ()] after one atomic load. *)

(** {1 Buckets} *)

val buckets : int
(** Number of base-2 buckets (63): every non-negative OCaml int lands
    in exactly one. *)

val bucket_index : int -> int
(** 0 for values [<= 0], otherwise [floor(log2 v) + 1]. *)

val bucket_lower : int -> int
(** Inclusive lower edge of a bucket: 0, 1, 2, 4, 8, ... *)

val bucket_upper : int -> int
(** Inclusive upper edge of a bucket: 0, 1, 3, 7, 15, ...; the last
    bucket's edge is [max_int]. *)

(** {1 Snapshots} *)

type counter_snapshot = {
  cs_name : string;
  cs_labels : (string * string) list;
  cs_value : int;
}

type hist_snapshot = {
  hs_name : string;
  hs_labels : (string * string) list;
  hs_count : int;
  hs_sum : int;
  hs_min : int;  (** 0 when [hs_count = 0] *)
  hs_max : int;  (** 0 when [hs_count = 0] *)
  hs_buckets : int array;  (** length {!buckets}, per-bucket counts *)
}

type snapshot = {
  counters : counter_snapshot list;  (** sorted by name, then labels *)
  histograms : hist_snapshot list;  (** sorted by name, then labels *)
  gauges : counter_snapshot list;  (** sorted by name, then labels *)
}

val snapshot : unit -> snapshot
(** Merge every shard of every registered metric. Registered sites
    appear even when they have recorded nothing. *)

val reset : unit -> unit
(** Zero every registered metric's values (registrations persist).
    Test harness hook. *)

val merge : hist_snapshot -> hist_snapshot -> hist_snapshot
(** Pointwise bucket/count/sum addition, min of mins, max of maxes
    (empty operands are the identity). Keeps the left operand's name
    and labels. Associative and commutative over equal-named
    snapshots. *)

val hist_of_samples :
  name:string -> ?labels:(string * string) list -> int list -> hist_snapshot
(** Pure constructor (no registry, no gate): the snapshot a fresh
    histogram would yield after observing the samples. *)

val quantile : hist_snapshot -> float -> int
(** [quantile h q] for [q] in [[0, 1]]: the upper edge of the bucket
    containing the [ceil (q * count)]-th smallest sample (the same
    convention as {!Ddg_paragraph.Dist.quantile}); 0 when empty. *)

val hist_mean : hist_snapshot -> float
(** Exact mean from the exact sum, 0 when empty. *)

(** {1 Exposition} *)

val prometheus_of_snapshot : snapshot -> string
(** Prometheus text exposition format, version 0.0.4: one [# TYPE]
    comment per metric name, counters as [name{labels} value],
    histograms as cumulative [_bucket{le="..."}] series ending in
    [le="+Inf"] plus [_sum] and [_count], then gauges as counters are. Deterministic: byte-identical
    output for equal snapshots. *)

val validate_exposition : string -> (unit, string) result
(** Grammar check for exposition text: every non-comment line must be
    [metric{label="v",...} value] (or unlabelled [metric value]) with
    well-formed names and escapes, every [_bucket] series must be
    cumulative (non-decreasing) and end in [le="+Inf"], and when the
    matching [_count] series is present its value must equal the
    [+Inf] bucket. Returns the first violation. *)

(** {1 Process memory} *)

val peak_rss_bytes : unit -> int option
(** Peak resident set size of this process in bytes — Linux [VmHWM]
    from [/proc/self/status]. [None] where procfs is unavailable. *)

val reset_peak_rss : unit -> bool
(** Re-arm the kernel's resident-set high-water mark ([Gc.compact]
    then writing ["5"] to [/proc/self/clear_refs]) so a following
    {!peak_rss_bytes} measures only work done after the reset. [false]
    where unsupported; the previous mark then remains in force. *)
