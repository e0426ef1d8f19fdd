(** Shared infrastructure for the table/figure experiments: a three-layer
    cache facade — memory, then the persistent artifact store
    ({!Ddg_store.Store}), then compute — over traces and analysis
    results, with a dependency-aware parallel job engine
    ({!Ddg_jobs.Engine}) filling it. Regenerating every table and figure
    costs one simulation plus one fused analysis pass per distinct
    configuration the {e first} time; against a warm store it costs zero
    simulations and zero analyses. *)

type t

(** A snapshot of the runner's work and cache counters, for daemon
    observability and cache-hot assertions: how many simulations and
    per-configuration analyses actually ran, against how many memory and
    store hits they were avoided, and the trace LRU's eviction count and
    resident footprint. *)
type counters = {
  simulations : int;
  analyses : int;
  trace_store_hits : int;
  stats_store_hits : int;
  trace_mem_hits : int;
  trace_evictions : int;
  trace_resident_bytes : int;
  artifact_quarantines : int;
      (** corrupt artifacts the store moved aside (0 without a store) *)
  remote_fetches : int;
      (** artifacts imported from a cluster peer via the {!set_fetch}
          hook instead of recomputed (0 outside cluster mode) *)
}

val create :
  ?size:Ddg_workloads.Workload.size ->
  ?progress:(string -> unit) ->
  ?store:Ddg_store.Store.t ->
  ?workers:int ->
  ?trace_budget:int ->
  unit ->
  t
(** [size] defaults to [Default]; [progress] (default silent) receives
    one-line status messages as traces are generated, analyses run, and
    store artifacts are hit or written. [store] (default none: memory
    cache only) persists traces and stats across runs. [workers] (default
    1: sequential, deterministic order) sizes the domain pool
    {!prefetch} executes its job graph on; results are bit-identical for
    every worker count. [trace_budget] (default none: unbounded) caps
    the bytes of decoded traces held resident: the memory trace cache
    becomes an LRU that evicts least-recently-used traces past the
    budget (the entry just loaded always stays, so an over-budget
    single trace is held alone rather than thrashed). *)

val counters : t -> counters

val set_fetch : t -> (kind:string -> key:string -> bool) -> unit
(** Wire in a cluster fetch-through hook: on an artifact-store miss the
    hook is called with the missing (kind, key); returning [true] means
    the artifact was imported into this runner's store (typically
    pulled from the owning peer into {!Ddg_store.Store.import}) and
    the local lookup is retried once. A
    [false] return, or any store-less runner, falls back to computing
    locally — the hook can only save work, never change results. *)

val store : t -> Ddg_store.Store.t option
(** The artifact store this runner persists to, if any — the daemon's
    [fsck] verb runs against it. *)

val size : t -> Ddg_workloads.Workload.size

val workloads : t -> Ddg_workloads.Workload.t list
(** The full registry, in Table 2 order. *)

val trace_key : t -> Ddg_workloads.Workload.t -> string
(** The artifact-store key for a workload's trace at this runner's size:
    workload name / size class / {!Ddg_sim.Trace_io.format_version} /
    software version ({!Ddg_version.Version.current}). *)

val stats_key :
  t -> Ddg_workloads.Workload.t -> Ddg_paragraph.Config.t -> string
(** The artifact-store key for an analysis result: {!trace_key} /
    {!Ddg_paragraph.Config.describe} /
    [analyzer-v]{!Ddg_paragraph.Stats_codec.version} — so a new trace
    encoding, a different switch setting, or an analyzer semantics bump
    each land in a fresh key and stale artifacts are never misread. *)

val marked_trace_key : t -> Ddg_workloads.Workload.t -> string
(** {!trace_key} with a ["+marks"] suffix: the loop-marked trace of a
    workload is a distinct artifact (format v2, marks side channel)
    cached under its own key. *)

val advise_key :
  t -> Ddg_workloads.Workload.t -> Ddg_paragraph.Config.t -> string
(** The artifact-store key for an advisor report: {!marked_trace_key} /
    {!Ddg_paragraph.Config.describe} /
    [advise-v]{!Ddg_advise.Advise_codec.version}. *)

val trace :
  t -> Ddg_workloads.Workload.t -> Ddg_sim.Machine.result * Ddg_sim.Trace.t
(** Simulate (memory cache → disk store → simulate). *)

val marked_trace :
  t -> Ddg_workloads.Workload.t -> Ddg_sim.Machine.result * Ddg_sim.Trace.t
(** {!trace} of the loop-marked build of the workload (compiler marks
    on, loop table and marks side channel populated), cached under
    {!marked_trace_key}. *)

val analyze_bytes :
  t -> Ddg_workloads.Workload.t -> Ddg_paragraph.Config.t -> string
(** Analyze a workload's trace under a configuration (memory cache →
    disk store → {!Ddg_paragraph.Analyzer.analyze} on the calling
    domain) and return the result's canonical
    {!Ddg_paragraph.Stats_codec} bytes — the form the memory cache
    holds, the store persists and the daemon serves. A fresh result is
    encoded once; a memory hit returns the cached string itself. A
    store hit is digest-checked and decoded once before it is cached,
    so a malformed artifact is quarantined and recomputed. *)

val analyze :
  t ->
  Ddg_workloads.Workload.t ->
  Ddg_paragraph.Config.t ->
  Ddg_paragraph.Analyzer.stats
(** {!analyze_bytes}, decoded. *)

val advise_bytes :
  t -> Ddg_workloads.Workload.t -> Ddg_paragraph.Config.t -> string
(** Classify the workload's loops ({!Ddg_advise.Advise.analyze} over
    its loop-marked trace) and return the report's canonical
    {!Ddg_advise.Advise_codec} bytes, with the same memory → store →
    compute discipline as {!analyze_bytes} (store kind ["advise"]).
    Deterministic: the bytes are identical wherever they are
    computed. *)

val advise :
  t ->
  Ddg_workloads.Workload.t ->
  Ddg_paragraph.Config.t ->
  Ddg_advise.Advise.t
(** {!advise_bytes}, decoded. *)

val prefetch :
  t -> (Ddg_workloads.Workload.t * Ddg_paragraph.Config.t) list -> unit
(** Fill the analysis cache for the given jobs. Duplicates and memory
    hits are dropped; disk-store stats hits are loaded without touching
    any trace; the rest become a dependency graph — one simulate job per
    workload feeding one fused {!Ddg_paragraph.Analyzer.analyze_many}
    job for that workload's pending configurations — executed on the
    runner's domain pool, so distinct workloads simulate and analyze
    concurrently. Subsequent {!analyze} calls for these jobs hit the
    memory cache. *)
