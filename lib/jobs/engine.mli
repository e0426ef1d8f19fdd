(** A small dependency-aware parallel job engine over OCaml 5 domains.

    Jobs declare their inputs as dependencies on previously added jobs
    (the graph is acyclic by construction — a job can only depend on jobs
    that already exist). {!run} executes the graph on a fixed pool of
    domains: every job whose dependencies have completed is {e ready};
    workers repeatedly pull the oldest ready job, so independent chains —
    distinct workloads simulating and analyzing, in the experiment
    suite's case — proceed concurrently while each analysis still waits
    for its trace.

    Job bodies run on worker domains and must therefore synchronise any
    shared mutable state themselves (the experiment runner guards its
    caches with a mutex). Jobs that spread work over domains internally
    should be given a bounded domain budget (see
    {!Ddg_paragraph.Analyzer.analyze_many}'s [max_domains]) so the pools
    compose without oversubscription.

    Failure is contained: a job that raises marks itself failed, its
    transitive dependents are skipped, every other job still runs, and
    {!run} re-raises the first failure once the pool has drained. *)

type t
type job

(** Progress events, delivered to {!run}'s [progress] callback. The
    callback runs on worker domains while the engine's internal lock is
    held: it must be quick and must not call back into the engine. *)
type event =
  | Job_started of string
  | Job_done of string * float  (** name, wall-clock seconds *)
  | Job_failed of string * exn
  | Job_skipped of string       (** a transitive dependent of a failure *)

val create : unit -> t

val add : t -> ?deps:job list -> name:string -> (unit -> unit) -> job
(** Add a job that may start once every job in [deps] has completed.
    [deps] must belong to the same engine.
    @raise Invalid_argument on a foreign dependency or while {!run} is
    executing. *)

val run : ?workers:int -> ?progress:(event -> unit) -> t -> unit
(** Execute all pending jobs on a pool of [workers] domains (default
    [Domain.recommended_domain_count ()]; the calling domain counts as
    one worker, so [workers = 1] runs everything sequentially on the
    caller, in submission order among ready jobs). Returns when every
    job has completed, failed or been skipped; re-raises the first
    failure, if any. May be called again after adding more jobs —
    already-completed dependencies are seen as satisfied. *)

val name : job -> string

val wall : job -> float option
(** Wall-clock seconds the job's body took; [None] unless the job
    completed successfully. *)

(** A persistent domain worker pool for serving daemons.

    Where the graph engine above executes one batch and drains, [Pool]
    keeps its domains alive across submissions: the paragraphd daemon
    dispatches every request body onto one pool for the life of the
    process. Backpressure is explicit — {!Pool.submit} with
    [max_inflight] refuses work when the pool is full (the daemon turns
    that into a typed [Busy] error frame) — and waiting is
    deadline-aware: completion is signalled over a pipe so
    {!Pool.await} can block in [Unix.select] with a timeout. *)
module Pool : sig
  type t

  exception Worker_crashed of string
  (** The typed failure a ticket resolves to when the worker domain
      executing it died (see {!await}'s [`Failed]): only that ticket
      fails, the supervisor replaces the worker, and the pool keeps its
      full size. The string is the original exception. *)

  type 'a ticket
  (** A handle on one submitted closure. Await it exactly once. *)

  val pool : ?workers:int -> unit -> t
  (** Spawn a pool of [workers] domains (default
      [Domain.recommended_domain_count ()], minimum 1). Each domain runs
      under a supervisor: an exception that escapes a task body —
      normally impossible, but asynchronous exceptions and injected
      crashes can — fails only the task that was running (its awaiter
      sees [`Failed (Worker_crashed _)]), and the dead domain is
      replaced immediately, so the pool never shrinks. *)

  val pool_size : t -> int

  val pool_inflight : t -> int
  (** Closures submitted but not yet finished (queued + running). *)

  val pool_respawns : t -> int
  (** Worker domains replaced after a crash since the pool started. *)

  val submit :
    t -> ?max_inflight:int -> ((unit -> bool) -> 'a) -> 'a ticket option
  (** Enqueue a closure. [None] when the pool is shutting down or
      already has [max_inflight] closures in flight — the caller's
      overload signal; nothing was queued. The closure receives a cheap
      cancellation poll that turns [true] once the awaiter abandons the
      ticket (see {!await}): long bodies may check it and return early,
      since nobody will read their result. *)

  val await :
    ?timeout_s:float -> 'a ticket -> ('a, [ `Timeout | `Failed of exn ]) result
  (** Block until the closure finishes (or [timeout_s] elapses; default
      forever). On [`Timeout] the ticket is abandoned and its
      cancellation poll flips to [true]: a closure that never polls
      still runs to completion on its worker (domains cannot be killed
      safely) and keeps holding its inflight slot until then — that is
      the intended backpressure — but its result is discarded either
      way.
      @raise Invalid_argument if the ticket was already awaited *)

  val shutdown : t -> unit
  (** Stop accepting submissions, run everything already queued, and
      join the domains. Idempotent. *)
end
