(** Assembling a self-healing sharded fleet: per-node backend daemons
    (in-process or forked) wired for fetch-through replication, live
    membership, anti-entropy scrubbing and crash supervision.

    Each backend owns a private artifact store and announces its ring
    identity in the protocol handshake. Artifacts move between nodes
    one way only: a {e pull}, which requests [forward-range] slices of
    the artifact on one connection and streams each straight into
    {!Ddg_store.Store.import} — checksummed end to end, so a corrupted
    or interrupted transfer installs nothing, and at most one slice is
    held in memory whatever the artifact's size. Three callers share
    it:
    - fetch-through: a runner store miss on a key another node owns
      pulls the artifact from that ring owner; misses on keys the
      backend owns itself (or any failed pull) recompute as before, so
      replication is an optimisation, never a correctness dependency;
    - the [pull] verb: a router draining a node, or a peer's scrub,
      asks this backend to pull an artifact from a named peer;
    - the anti-entropy scrub, which re-verifies the store under a token
      bucket, re-pulls a quarantined artifact from the first holder in
      ring order, and asks the ring owner of each intact artifact it
      does not own to pull it, once per membership generation.

    Membership is live: each backend's view of the ring is swapped
    atomically whenever a router broadcasts a [ring-update], so
    fetch-through, [locate] answers and the scrub all re-aim at the
    new ring without a restart.

    A {!supervisor} keeps forked backends alive: a dedicated
    single-threaded spawner child (forked before the parent grows
    threads, because only the forking thread survives a fork) spawns
    and reaps them, and a watcher thread respawns crashed nodes with
    exponential backoff — until a flap cap decommissions a node that
    keeps dying. *)

type member = {
  node : string;  (** ring node id, e.g. ["node0"] *)
  endpoint : Ddg_server.Server.endpoint;
  store_dir : string;  (** this node's private artifact store *)
}

val members :
  nodes:int -> base_socket:string -> base_store:string -> member list
(** The canonical fleet layout: node ids [node0..nodeN-1], Unix socket
    [<base_socket>.<id>], store [<base_store>/<id>].
    @raise Invalid_argument when [nodes < 1]. *)

type view
(** One backend's mutable, mutex-guarded view of the fleet: the ring,
    the peer endpoints and a generation counter bumped on every
    membership update. *)

type scrubber
(** A running anti-entropy scrub thread. *)

(** {2 One backend} *)

type backend = {
  server : Ddg_server.Server.t;
  runner : Ddg_experiments.Runner.t;
  store : Ddg_store.Store.t;
  view : view;
  scrubber : scrubber option;
}

val backend :
  ?vnodes:int ->
  ?workers:int ->
  ?trace_budget:int ->
  ?max_inflight:int ->
  ?default_deadline_s:float ->
  ?connect_timeout_s:float ->
  ?scrub_rate:float ->
  ?log:(string -> unit) ->
  size:Ddg_workloads.Workload.size ->
  members:member list ->
  self:member ->
  unit ->
  backend
(** Build one member's daemon: store at [self.store_dir], runner with
    the fetch-through hook installed, server listening on
    [self.endpoint] and announcing [self.node], with [locate], [pull]
    and membership updates wired to a fresh {!view}. [scrub_rate]
    (default none) additionally starts an anti-entropy scrub that
    re-verifies at most that many artifacts per second (bursts of up
    to 20, a 50 ms pause between passes). Repairs and owner pulls
    count in [ddg_scrub_repairs_total]; each pass's duration lands in
    the [ddg_scrub_pass_ns] span. Fault sites: [cluster.forward.fail]
    fails a pull as if its peer were unreachable,
    [cluster.fetch.corrupt] corrupts a pulled artifact before import
    (the digest check must reject it), and [store.verify.bitflip]
    (inside the store) corrupts an artifact just before the scrub
    checks it. Run the backend with {!Ddg_server.Server.run} (usually
    on its own thread or in a forked child).
    @raise Invalid_argument when [scrub_rate <= 0]. *)

val stop_backend : backend -> unit
(** {!Ddg_server.Server.stop}, then stop and join the scrub thread when
    one is running. *)

val fork_backend :
  ?vnodes:int ->
  ?workers:int ->
  ?trace_budget:int ->
  ?max_inflight:int ->
  ?default_deadline_s:float ->
  ?connect_timeout_s:float ->
  ?scrub_rate:float ->
  ?log:(string -> unit) ->
  size:Ddg_workloads.Workload.size ->
  members:member list ->
  self:member ->
  unit ->
  int
(** Fork a child process that builds the backend, installs SIGINT/
    SIGTERM handlers, serves until stopped, and exits. Returns the
    child pid (to signal and reap). Fork before creating any domains
    or threads in the parent: the child inherits only the calling
    thread. In child processes the metric registry, fault counters and
    store are genuinely per-process, so federation aggregates distinct
    registries — the production cluster shape. *)

(** {2 Supervision} *)

type supervisor
(** Keeps forked backends alive. Forks a dedicated single-threaded
    {e spawner} child immediately (create the supervisor {e before}
    any thread or domain exists in this process); the spawner forks,
    signals and reaps backend processes on command. A later
    {!supervisor_watch} thread in the parent turns death events into
    delayed respawns (exponential backoff from [backoff_base_s]
    doubling to [backoff_max_s]) — unless a node dies [flap_max]
    times within [flap_window_s], in which case it is decommissioned
    via the [on_decommission] callback instead of respawned forever.
    Respawns count in [ddg_backend_respawns_total]. *)

val supervisor :
  ?backoff_base_s:float ->
  ?backoff_max_s:float ->
  ?flap_window_s:float ->
  ?flap_max:int ->
  ?log:(string -> unit) ->
  spawn:(member -> int) ->
  members:member list ->
  unit ->
  supervisor
(** Fork the spawner. [spawn] runs {e inside the spawner child} (which
    stays single-threaded, so it may fork) and must start the named
    member's backend process and return its pid — normally a closure
    over {!fork_backend}. Defaults: backoff 0.1 s doubling to 5 s,
    flap cap 5 deaths in 10 s.
    @raise Invalid_argument when [flap_max < 1]. *)

val supervisor_spawn : supervisor -> string -> unit
(** Start (or restart, if it died and was reaped) the named member.
    Unknown node ids are ignored by the spawner. *)

val supervisor_kill : ?signal:int -> supervisor -> string -> unit
(** Deliver [signal] (default [SIGKILL]: a crash, not a drain) to the
    named member's process — the chaos lever. The death flows back as
    an event and triggers the normal respawn/flap logic. *)

val supervisor_watch :
  ?on_decommission:(string -> unit) -> supervisor -> unit
(** Start the watcher thread: respawn crashed backends after backoff,
    call [on_decommission] (e.g. {!Router.decommission}) when a node
    trips the flap cap. Also the chaos host: each watch tick asks
    fault site [cluster.backend.kill] whether to kill a running
    backend (victims rotate round-robin).
    @raise Invalid_argument when already watching. *)

val supervisor_status :
  supervisor -> (string * [ `Running of int | `Restarting | `Decommissioned ]) list
(** Every known member with its state, sorted by node id: running
    (with pid), waiting for a respawn, or decommissioned. *)

val supervisor_respawns : supervisor -> int
(** Respawns the watcher has issued since creation. *)

val supervisor_decommissioned : supervisor -> string -> unit
(** Tell the supervisor a node was decommissioned externally (e.g. a
    [client drain]): its next death is final — no respawn. *)

val supervisor_stop : supervisor -> unit
(** Stop everything: the spawner terminates every backend (SIGTERM,
    then SIGKILL after a grace period), the watcher thread joins, the
    spawner is reaped. *)
