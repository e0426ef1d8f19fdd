(** The cluster coordinator: one daemon-shaped process that owns no
    runner, speaks the same framed protocol as {!Ddg_server.Server},
    and relays every request to the backend the consistent-hash ring
    assigns it.

    Requests with a routing key ({!Route.of_request}) go to the key's
    ring owner; if the owner's circuit is open or the relay fails at
    the transport level, the router retries the next distinct ring
    successor within the same request, so one dead backend degrades a
    key's locality (a successor recomputes or fetch-throughs) without
    failing the call. The backend's ok-response relays as raw payload
    bytes, never decoded or re-encoded, so a routed answer is the
    owner's bytes. Typed error frames from a backend relay to the
    client unchanged — a refusal is an answer, not a failure — except
    [Shutting_down] from a draining backend, which moves on to the next
    successor (without counting against the breaker) while one is left.

    Keyless verbs the router answers itself: [ping] locally (router
    liveness), [locate] from the ring, [fsck] by fanning out to every
    backend and summing the decoded reports, [metrics] by federating
    every node's snapshot plus its own through
    {!Federate.merge_snapshots}, and [shutdown] by acking, broadcasting
    shutdown to the backends, and draining.

    A health thread pings each backend every [health_interval_s] with a
    bounded connect timeout. [failure_threshold] consecutive failures
    (probe or relay) open that backend's circuit for [cooldown_s]:
    while open, the backend is skipped in routing order (tried only
    when no alternative remains) and excluded from fan-outs. The first
    success after cooldown closes the circuit — and a success after
    {e any} failure re-pushes the current membership to that backend,
    so a respawned daemon (booted with its fork-time member list)
    catches up on joins and decommissions it slept through.

    Membership is live (protocol v6): {!join} adds a backend and
    {!decommission} retires one, first asking each of its artifacts'
    new ring owners to pull the artifact from the retiree (the streamed,
    digest-checked transfer {!Fleet} uses everywhere), then telling the
    retiree to drain and exit. Both swap the ring atomically and
    broadcast a [ring-update] to every backend. An empty fleet is a
    served state, not a crash: every routed request gets a typed
    [No_backends] error.

    Deadlines are budgets: a request's [deadline_ms] is measured from
    the moment the router reads it, and every relay — including
    failover retries after a dead owner burned part of it — carries
    only the remainder, so the fleet never spends longer on a request
    than its caller allowed. *)

type t

val create :
  ?vnodes:int ->
  ?node_id:string ->
  ?retry:Ddg_server.Client.retry ->
  ?retry_for_s:float ->
  ?connect_timeout_s:float ->
  ?health_interval_s:float ->
  ?failure_threshold:int ->
  ?cooldown_s:float ->
  ?max_connections:int ->
  ?on_retire:(string -> unit) ->
  ?log:(string -> unit) ->
  size:Ddg_workloads.Workload.size ->
  backends:(string * Ddg_server.Server.endpoint) list ->
  Ddg_server.Server.endpoint list ->
  t
(** A router over the given [(node id, endpoint)] backends, listening
    on the given endpoints. The ring is built from the backend ids with
    [vnodes] virtual nodes each (default 64, as {!Ring.create}).
    [node_id] (default ["router"]) is announced in the Hello handshake.
    [retry]/[retry_for_s] (default 5 s)/[connect_timeout_s] (default
    1 s) shape the relay sessions — the generous [retry_for_s] rides
    out backends that are still binding their sockets at fleet start.
    Health checks run every [health_interval_s] (default 0.5 s);
    [failure_threshold] (default 3) consecutive failures open a
    circuit for [cooldown_s] (default 2 s). An empty backend list is
    allowed: the router serves [No_backends] until a {!join}.
    [on_retire] is called with the node id at every {!decommission}
    (before the retiree is told to drain) — wire it to
    {!Fleet.supervisor_decommissioned} so a drained node's exit is
    final rather than a crash the supervisor respawns.
    @raise Invalid_argument on duplicate ids. *)

val ring : t -> Ring.t option
(** The routing ring now in force (for tests and the [locate] CLI);
    [None] when the fleet is empty. *)

val members : t -> (string * string) list
(** Current membership as (node id, endpoint string) pairs in node-id
    order — the same list [join]/[decommission]/[ring-update] frames
    carry. *)

val join : t -> node:string -> endpoint:Ddg_server.Server.endpoint ->
  (string * string) list
(** Add a backend to the ring (idempotent: re-joining an existing id is
    a no-op) and broadcast the new membership to every backend. Keys
    move only to the joiner, and nothing is migrated: it recomputes a
    key it now owns until a scrub on an old holder asks it to pull
    that key. Returns the membership now in force. *)

val decommission : t -> node:string -> (string * string) list
(** Retire a backend: ask each of its artifacts' new ring owners to
    pull the artifact from it (best-effort — a dead node has nothing to
    list; each failed pull is logged and counted in the
    [decommission: ...] log line), swap the ring,
    broadcast the new membership, and tell the retiree to drain and
    exit. Idempotent; removing the last member leaves an empty,
    [No_backends]-serving fleet. Also the flap-cap action of
    {!Fleet.supervisor}: a backend that keeps dying is decommissioned
    instead of respawned forever. Returns the membership now in
    force. *)

val run : t -> unit
(** Bind, serve until {!stop}, then drain: close listeners, shut down
    open connections' read sides, wait for handlers, stop the health
    thread. Runs the accept loop on the calling thread. *)

val stop : t -> unit
(** Signal-safe graceful stop (self-pipe write). *)

val install_signal_handlers : t -> unit
(** SIGINT/SIGTERM call {!stop}. *)
