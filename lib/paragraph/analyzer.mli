(** The Paragraph placement engine.

    One kernel places every operation: it is fed row ranges of packed
    trace columns and maintains the live well, the firewall state
    ([highestLevel], [deepestLevelYetUsed]), the instruction window,
    optional resource pools and branch predictor, the parallelism profile
    and the value-lifetime / degree-of-sharing distributions. Its live
    well is a flat array indexed by the trace's dense location ids, so
    memory is bounded by the number of distinct locations, never by
    trace length: {!analyze_stream} analyzes arbitrarily long traces from
    disk in one forward pass (the paper's single-forward-pass mode), and
    {!Two_pass} evicts dead locations as it goes.

    Placement semantics (validated against the paper's worked examples —
    Figure 1: critical path 4, profile 4,2,1,1; Figure 2: critical path 6,
    profile 2,1,2,1,1,1; Figure 5's live-well state):

    - DDG levels are 0-based; [highestLevel] is the topologically highest
      level at which an operation may currently be placed (0 initially).
    - A source value is available at the level its producer completed;
      pre-existing values materialise at [highestLevel - 1].
    - [ready = max(highestLevel - 1, source levels)];
      [Ldest = ready + t_op].
    - Storage dependency (renaming disabled for the destination's class):
      [Ldest = max(Ldest, Ddest + 1)] where [Ddest] is the deepest level
      at which the previous value in the destination location was created
      or used.
    - Resource limits move [Ldest] down to the first level with a free
      functional unit.
    - A conservative system call places itself at
      [deepestLevelYetUsed + t] and raises [highestLevel] to the level
      after it (the firewall); an optimistic system call is ignored.
    - An event displaced from the instruction window raises
      [highestLevel] to one past its completion level.
    - A mispredicted branch (extension; off by default) raises
      [highestLevel] to the branch's resolution level. *)

(** Results of one analysis. *)
type stats = {
  events : int;           (** trace events processed *)
  placed_ops : int;       (** operations placed in the DDG *)
  syscalls : int;         (** system calls encountered *)
  critical_path : int;    (** DDG levels used = length of critical path *)
  available_parallelism : float;  (** placed_ops / critical_path *)
  profile : Profile.t;    (** the parallelism profile *)
  storage_profile : Profile.t;
      (** live computed values per DDG level — the paper's section 2.3
          "amount of temporary storage required to exploit the
          parallelism" ([Profile.average_parallelism] of this profile is
          the mean number of simultaneously live values) *)
  lifetimes : Dist.t;     (** value lifetimes in DDG levels *)
  sharing : Dist.t;       (** uses per computed value *)
  live_locations : int;   (** distinct storage locations in the live well *)
  mispredicts : int;      (** 0 under perfect branch handling *)
}

(** {1 The kernel state}

    [analyze], [analyze_stream] and {!Two_pass} are built from these
    functions. *)

type t
(** One configuration's analyzer state over a trace's location ids. *)

val create : Config.t -> num_locs:int -> classes:Bytes.t -> t
(** A state for location ids [0 .. num_locs - 1]; byte [id] of [classes]
    is the {!Ddg_isa.Loc.storage_class_tag} of location [id], as in
    {!Ddg_sim.Trace.storage_classes}.
    @raise Invalid_argument when {!Config.validate} rejects the
    configuration, as does every [analyze] entry point below, or when
    [classes] is shorter than [num_locs]. *)

val feed :
  t ->
  Ddg_sim.Trace.columns ->
  extra:(int -> int array) ->
  lo:int ->
  hi:int ->
  unit
(** Place rows [lo .. hi - 1] of the columns, in order. [extra i] gives
    the fourth and later sources of row [i] when its flags carry
    {!Ddg_sim.Trace.flags_extra} (as {!Ddg_sim.Trace.extra_srcs} does).
    Every operand id must be below the state's [num_locs]: the packed
    trace and the flat-file readers guarantee it.
    @raise Invalid_argument unless [0 <= lo <= hi <= n]. *)

val evict : t -> int -> unit
(** Drop a location id from the live well, retiring its computed value
    into the statistics. Only sound when the location is never referenced
    again in the trace — the two-pass mode ({!Two_pass}) establishes that
    with its reverse pass.
    @raise Invalid_argument when the id is not below [num_locs]. *)

val live_locations : t -> int
(** Current live-well occupancy (distinct locations held). *)

val finish : t -> stats
(** Retire remaining live values into the distributions and report. The
    state must not be fed after [finish]. *)

(** {1 Whole-trace analyses} *)

val analyze : Config.t -> Ddg_sim.Trace.t -> stats
(** [create], then [feed] the whole packed (or mapped) trace, then
    [finish]: one pass over the columns that hashes nothing and
    allocates nothing per event. The stats equal those of
    {!analyze_stream} over the same trace written flat, and of the
    reference interpreter the test suite transcribes from DESIGN.md
    §6.0. *)

val analyze_stream :
  ?verify:bool -> ?window:int -> Config.t -> string -> stats
(** Stream a {e flat} (v3) trace file through the kernel in bounded
    memory via {!Ddg_sim.Trace_io.stream_file}: columns are read through
    fixed [window]-row buffers, never mapped and never materialised, and
    each window is fed as one row range, so peak resident memory is the
    live well plus the windows — independent of trace size. Agrees
    exactly with {!analyze} of the mapped trace. [verify] is the digest
    pass (default [true]; structural validation always runs).
    @raise Ddg_sim.Trace_io.Corrupt on malformed input. *)

val analyze_many :
  ?max_domains:int -> Config.t list -> Ddg_sim.Trace.t -> stats list
(** Fused analysis: run one independent analyzer state per configuration
    down a {e single} pass of the trace, reading each packed row once and
    feeding it to every state. Returns the stats in the order of the
    configurations. Equivalent to [List.map (fun c -> analyze c trace)]
    but touches the trace columns once, so N configurations cost one
    trace traversal plus N live-well updates per event.

    [max_domains] caps the number of domains used to spread the fused
    config groups (default: [Domain.recommended_domain_count () - 1]).
    Pass a small cap when calling from inside an outer domain pool — e.g.
    the experiment job engine — so that nested parallelism composes
    without oversubscribing the machine. The cap changes only the
    execution schedule, never the grouping, so results are bit-identical
    across caps. *)

val pp_stats : Format.formatter -> stats -> unit
