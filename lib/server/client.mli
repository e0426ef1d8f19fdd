(** Blocking client for the {!Server} daemon: connect, handshake, then
    one {!request} per round trip over the framed binary protocol. Not
    thread-safe; use one client per thread.

    Two layers. {!connect}/{!request} is one connection, one attempt:
    every failure surfaces to the caller. {!session}/{!call} adds
    resilience on top — exponential backoff with decorrelated jitter and
    automatic replay of idempotent verbs across [Busy] refusals, worker
    crashes and connection loss. *)

type t

exception Server_error of Ddg_protocol.Protocol.error
(** The server answered with a typed error frame ([Busy],
    [Deadline_exceeded], [Unknown_workload], ...). [Printexc.to_string]
    renders it as ["<code name>: <message>"]. *)

val connect :
  ?retry_for_s:float -> ?connect_timeout_s:float -> ?node:string ->
  Server.endpoint -> t
(** Connect and exchange Hello frames. [retry_for_s] (default 0: fail
    immediately) keeps retrying a refused/missing endpoint for that many
    seconds — for racing a daemon that is still starting up.
    [connect_timeout_s] (default none: the OS connect timeout, which can
    be minutes) bounds each connect attempt — a routable-but-dead peer
    raises [Unix_error (ETIMEDOUT, _, _)] after that long instead of
    blocking, which keeps cluster health checks responsive. [node]
    (default empty: an ordinary client) is this side's cluster node id,
    carried in the Hello. (Interrupted connects restart unconditionally;
    EINTR is never surfaced.) Raises {!Server_error} if the server
    refuses the protocol version, and [Unix.Unix_error] if no daemon
    answers. *)

val server_software : t -> string
(** The software version string from the server's Hello. *)

val server_node : t -> string
(** The cluster node id from the server's Hello — empty for a
    non-clustered daemon. *)

val request :
  ?deadline_ms:int ->
  t ->
  Ddg_protocol.Protocol.request ->
  Ddg_protocol.Protocol.response
(** One round trip, one attempt. [deadline_ms] (default 0: use the
    server's default) bounds how long the server may spend before
    answering [Deadline_exceeded]. Raises {!Server_error} on error
    frames, [Ddg_protocol.Protocol.Error] on malformed server bytes, and
    [End_of_file] if the server hangs up. *)

val close : t -> unit
(** Close the connection. Idempotent. *)

val with_connection :
  ?retry_for_s:float -> ?connect_timeout_s:float ->
  Server.endpoint -> (t -> 'a) -> 'a
(** [connect], apply, then [close] (also on exceptions). *)

(** {2 Retrying sessions} *)

type retry = {
  attempts : int;  (** total attempts per {!call}, including the first *)
  base_delay_s : float;  (** first backoff sleep *)
  max_delay_s : float;  (** backoff ceiling *)
  seed : int;  (** jitter PRNG seed: the schedule is deterministic *)
}

val default_retry : retry
(** 5 attempts, 10 ms base, 500 ms ceiling, seed 0. *)

type session
(** A lazily (re)connecting handle. The underlying connection is opened
    on first {!call} and replaced transparently after a loss. Not
    thread-safe; use one session per thread. *)

val session :
  ?retry:retry -> ?retry_for_s:float -> ?connect_timeout_s:float ->
  Server.endpoint -> session
(** [retry_for_s] and [connect_timeout_s] are passed to every internal
    {!connect} (helpful when the daemon may still be starting, or
    restarting mid-session; the timeout keeps a dead-but-routable
    endpoint from stalling a {!call} beyond the backoff schedule).
    @raise Invalid_argument if [retry.attempts < 1] *)

val call :
  ?deadline_ms:int ->
  session ->
  Ddg_protocol.Protocol.request ->
  Ddg_protocol.Protocol.response
(** Like {!request}, but resilient: on a [Busy] or [Worker_crashed]
    error frame, or on connection loss ([End_of_file], [Unix_error],
    decode failure — the connection is dropped and reopened), an
    {e idempotent} verb (everything but [Shutdown], see
    {!Ddg_protocol.Protocol.idempotent}) is replayed after an
    exponential backoff with decorrelated jitter, up to
    [retry.attempts] total attempts. Replays carry an incremented wire
    [attempt] so the server can count retries served. Non-idempotent
    verbs and non-retryable errors surface immediately, as do failures
    that outlive the attempt budget. A positive [deadline_ms] also caps
    the {e total} retry wall-time: backoff sleeps are clipped to the
    remaining budget and no replay starts after it is spent, so a call
    never outlives its caller's deadline however many attempts the
    retry policy would otherwise allow. *)

val call_raw :
  ?deadline_ms:int -> session -> Ddg_protocol.Protocol.request -> string
(** {!call} without the decode: the ok-response frame's payload bytes,
    exactly as the server sent them ({!Ddg_protocol.Protocol.decode_response}
    turns them into the response {!call} returns). Error frames still
    raise {!Server_error}, and the retry policy is {!call}'s. A router
    relays these bytes unparsed. *)

val session_retries : session -> int
(** Replays this session has performed (0 when every call succeeded
    first try). *)

val close_session : session -> unit
(** Close the current connection, if any. The session remains usable: a
    later {!call} reconnects. Idempotent. *)

val with_session :
  ?retry:retry ->
  ?retry_for_s:float ->
  ?connect_timeout_s:float ->
  Server.endpoint ->
  (session -> 'a) ->
  'a
(** [session], apply, then [close_session] (also on exceptions). *)
