(** [paragraphd]: the resident analysis daemon.

    A server owns one {!Ddg_experiments.Runner.t} (the warm cache: trace
    LRU + stats memory cache + optional persistent store) and a
    {!Ddg_jobs.Engine.Pool} of domain workers, and serves the
    {!Ddg_protocol.Protocol} verbs over any number of Unix-domain or TCP
    endpoints. Each accepted connection gets a lightweight handler
    thread that parses frames and blocks on socket I/O; the actual
    simulation/analysis work runs on the domain pool, so concurrent
    requests genuinely compute in parallel while repeated requests are
    answered from the runner's caches without recomputation.

    Overload and failure are typed, never hangs: when [max_inflight]
    requests are already queued or running, new work is refused with a
    [Busy] error frame; a request that exceeds its deadline gets
    [Deadline_exceeded] (the worker's result is discarded); a malformed
    frame gets [Bad_frame] and the connection stays usable; a client
    disconnecting mid-request only ends its own handler. *)

type t

type endpoint = [ `Unix of string | `Tcp of string * int ]
(** [`Unix path] listens on a Unix-domain socket at [path] (an existing
    socket file is replaced). [`Tcp (addr, port)] listens on a numeric
    address, e.g. ["127.0.0.1"]. *)

type cluster = {
  node_id : string;
  locate : string -> string;
  update : (string * string) list -> unit;
  pull :
    kind:string ->
    key:string ->
    source:string ->
    (unit, Ddg_protocol.Protocol.error) result;
}
(** Cluster-mode identity for a daemon that is one shard of a fleet:
    [node_id] is carried in the server's Hello and [locate] answers the
    [Locate] verb (routing key -> owning node id, normally a
    {!Ddg_cluster.Ring} lookup — the server itself stays ring-agnostic).
    [update] receives a router's [Ring_update] broadcast — the full
    membership as (node id, endpoint string) pairs — so live joins and
    decommissions reach the daemon's ring without a restart. [pull]
    answers the [Pull] verb: copy the artifact into this daemon's store
    from the peer named [source], or say why not; its [Error] is sent
    back as the error frame. Fetch-through replication is wired
    separately, via {!Ddg_experiments.Runner.set_fetch} on the daemon's
    runner. *)

val endpoint_to_string : endpoint -> string
(** ["unix:<path>"] or ["tcp:<addr>:<port>"] — the format membership
    endpoints travel in over the wire ([join], [ring-update]). *)

val endpoint_of_string : string -> endpoint option
(** Inverse of {!endpoint_to_string}; [None] on anything else. *)

val create :
  runner:Ddg_experiments.Runner.t ->
  ?cluster:cluster ->
  ?workers:int ->
  ?max_inflight:int ->
  ?max_connections:int ->
  ?default_deadline_s:float ->
  ?log:(string -> unit) ->
  endpoint list ->
  t
(** [cluster] (default none) makes the daemon answer [Locate] and
    [Pull] and carry its node id in the handshake; without it both are
    refused with an [Internal] error. [Forward_range] (one slice of a
    stored artifact, the transfer primitive behind every pull) is
    served by any daemon with a store, clustered or not.
    [workers] (default: domain count - 1, min 1) sizes the compute
    pool. [max_inflight] (default 64) bounds queued-plus-running
    requests before [Busy] refusals. [max_connections] (default 256)
    bounds concurrent connection handlers — excess connections are
    closed at accept, which also keeps every fd the daemon [select]s on
    safely below [FD_SETSIZE]. [default_deadline_s] (default 600.)
    applies to requests that carry no deadline of their own. [log]
    (default silent) receives one-line lifecycle messages. *)

val run : t -> unit
(** Bind the endpoints and serve until {!stop} is called (or a Shutdown
    verb arrives), then drain: stop accepting, nudge idle connections,
    wait for in-flight handlers, and shut the pool down. Returns after
    the drain completes. *)

val stop : t -> unit
(** Request shutdown. Async-signal-safe (only writes to a pipe), so it
    can be called from a signal handler, another thread, or a request
    handler. Idempotent. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!stop} for graceful drain. *)

val table_names : string list
(** Names accepted by the [Table] verb, e.g. ["table3"], ["fig7"]. *)
