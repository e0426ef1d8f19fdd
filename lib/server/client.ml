module Protocol = Ddg_protocol.Protocol

exception Server_error of Protocol.error

(* log lines that print a refusal show its code and message *)
let () =
  Printexc.register_printer (function
    | Server_error { code; message } ->
        Some (Printf.sprintf "%s: %s" (Protocol.error_code_name code) message)
    | _ -> None)

type t = {
  fd : Unix.file_descr;
  software : string;
  node : string;
  mutable closed : bool;
}

let sockaddr_of_endpoint : Server.endpoint -> Unix.sockaddr = function
  | `Unix path -> ADDR_UNIX path
  | `Tcp (addr, port) -> ADDR_INET (Unix.inet_addr_of_string addr, port)

let domain_of_endpoint : Server.endpoint -> Unix.socket_domain = function
  | `Unix _ -> PF_UNIX
  | `Tcp _ -> PF_INET

(* With a timeout the connect goes non-blocking: start it, select on
   writability for the remaining budget, then read SO_ERROR for the
   actual outcome. A routable-but-dead peer (no RST, no FIN) surfaces
   as ETIMEDOUT after [connect_timeout_s] instead of blocking on the
   OS connect timeout (minutes on most systems). *)
let timed_connect fd addr ~connect_timeout_s =
  if connect_timeout_s <= 0.0 then Unix.connect fd addr
  else begin
    Unix.set_nonblock fd;
    (match Unix.connect fd addr with
    | () -> ()
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _)
      ->
        let until = Unix.gettimeofday () +. connect_timeout_s in
        let rec wait () =
          let left = until -. Unix.gettimeofday () in
          if left <= 0.0 then
            raise (Unix.Unix_error (ETIMEDOUT, "connect", "timed out"));
          match Unix.select [] [ fd ] [] left with
          | exception Unix.Unix_error (EINTR, _, _) -> wait ()
          | _, [], _ ->
              raise (Unix.Unix_error (ETIMEDOUT, "connect", "timed out"))
          | _, _ :: _, _ -> (
              match Unix.getsockopt_error fd with
              | None -> ()
              | Some err -> raise (Unix.Unix_error (err, "connect", "")))
        in
        wait ());
    Unix.clear_nonblock fd
  end

let rec connect_fd ?(connect_timeout_s = 0.0) endpoint ~deadline =
  let fd = Unix.socket ~cloexec:true (domain_of_endpoint endpoint) SOCK_STREAM 0 in
  match timed_connect fd (sockaddr_of_endpoint endpoint) ~connect_timeout_s with
  | () -> fd
  | exception Unix.Unix_error (EINTR, _, _) ->
      (* interrupted before the connection was established: the attempt
         never happened; restart it on a fresh socket *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      connect_fd ~connect_timeout_s endpoint ~deadline
  | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
    when Unix.gettimeofday () < deadline ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.02;
      connect_fd ~connect_timeout_s endpoint ~deadline
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let connect ?(retry_for_s = 0.0) ?connect_timeout_s ?(node = "") endpoint =
  (* as Server.run: a peer closing mid-write must surface as EPIPE for
     the retry layer, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let fd =
    connect_fd ?connect_timeout_s endpoint
      ~deadline:(Unix.gettimeofday () +. retry_for_s)
  in
  (* a raising handshake (peer drop, torn frame) must not abandon the
     connected socket: Unix fds have no finalizer *)
  let handshake () =
    Protocol.write_frame_fd fd
      (Hello
         { protocol = Protocol.version;
           software = Ddg_version.Version.current;
           node });
    match Protocol.read_frame_fd fd with
    | Hello { protocol = _; software; node } ->
        { fd; software; node; closed = false }
    | Error_response err -> raise (Server_error err)
    | _ -> raise (Protocol.Error "handshake: expected a hello frame")
  in
  try handshake ()
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let server_software t = t.software
let server_node t = t.node

(* One round trip returning the ok-response payload undecoded; only an
   error frame (or a frame of the wrong kind) is decoded here. *)
let request_attempt ~deadline_ms ~attempt t req =
  if t.closed then invalid_arg "Client.request: connection is closed";
  Protocol.write_frame_fd t.fd (Request { deadline_ms; attempt; request = req });
  match Protocol.read_raw_frame_fd t.fd with
  | kind, payload when kind = Protocol.ok_kind -> payload
  | kind, payload -> (
      match Protocol.decode_frame kind payload with
      | Error_response err -> raise (Server_error err)
      | Hello _ | Request _ | Ok_response _ ->
          raise (Protocol.Error "expected a response frame"))

let request ?(deadline_ms = 0) t req =
  Protocol.decode_response (request_attempt ~deadline_ms ~attempt:0 t req)

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection ?retry_for_s ?connect_timeout_s endpoint f =
  let t = connect ?retry_for_s ?connect_timeout_s endpoint in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --- retrying sessions ------------------------------------------------------ *)

type retry = {
  attempts : int;
  base_delay_s : float;
  max_delay_s : float;
  seed : int;
}

let default_retry =
  { attempts = 5; base_delay_s = 0.01; max_delay_s = 0.5; seed = 0 }

type session = {
  endpoint : Server.endpoint;
  retry : retry;
  retry_for_s : float;
  connect_timeout_s : float option;
  mutable conn : t option;
  mutable prev_delay : float;
  mutable prng : int64;
  mutable retries : int;
}

let session ?(retry = default_retry) ?(retry_for_s = 0.0) ?connect_timeout_s
    endpoint =
  if retry.attempts < 1 then invalid_arg "Client.session: attempts < 1";
  { endpoint; retry; retry_for_s; connect_timeout_s; conn = None;
    prev_delay = retry.base_delay_s;
    prng = Int64.of_int (retry.seed lxor 0x6a09e667); retries = 0 }

let session_retries s = s.retries

let close_session s =
  match s.conn with
  | Some c ->
      s.conn <- None;
      close c
  | None -> ()

let drop_connection s =
  match s.conn with
  | Some c ->
      s.conn <- None;
      close c
  | None -> ()

(* splitmix64, same generator the fault injector uses, seeded
   independently: the retry schedule is deterministic per session seed *)
let next_uniform s =
  let z = Int64.add s.prng 0x9E3779B97F4A7C15L in
  s.prng <- z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  float_of_int (Int64.to_int (Int64.shift_right_logical z 11))
  /. 9007199254740992.0

(* decorrelated jitter (the AWS architecture-blog variant): each sleep
   is uniform in [base, prev * 3], clamped to [max_delay_s] — spreads
   concurrent retriers apart instead of re-synchronising them the way
   plain doubling does *)
let backoff ?(until = infinity) s =
  let { base_delay_s = base; max_delay_s = max_d; _ } = s.retry in
  let span = Float.max 0.0 ((s.prev_delay *. 3.0) -. base) in
  let delay = Float.min max_d (base +. (next_uniform s *. span)) in
  s.prev_delay <- delay;
  (* never sleep past the caller's deadline: the schedule's shape (and
     determinism per seed) is preserved, only the final sleep is cut
     short so the total retry wall-time stays inside the budget *)
  let delay = Float.min delay (until -. Unix.gettimeofday ()) in
  if delay > 0.0 then Unix.sleepf delay

(* The retry loop behind [call] and [call_raw]; [decode] runs inside it,
   so a malformed answer is a lost connection like any other. *)
let call_with decode ~deadline_ms s req =
  (* [deadline_ms] is a budget for the whole call, not per attempt:
     attempts x backoff must not overshoot it, so once the clock runs
     out no further replay starts and the last failure propagates *)
  let give_up_at =
    if deadline_ms > 0 then
      Unix.gettimeofday () +. (float_of_int deadline_ms /. 1000.)
    else infinity
  in
  let retryable_frame (err : Protocol.error) =
    (* Busy: the server refused before doing any work. Worker_crashed:
       the server says the pool lost this one request and recovered.
       Both are safe to replay for idempotent verbs. *)
    match err.code with
    | Protocol.Busy | Protocol.Worker_crashed -> true
    | _ -> false
  in
  let may_retry attempt =
    Protocol.idempotent req
    && attempt + 1 < s.retry.attempts
    && Unix.gettimeofday () < give_up_at
  in
  let rec go attempt =
    match
      let conn =
        match s.conn with
        | Some c when not c.closed -> c
        | _ ->
            let c =
              connect ~retry_for_s:s.retry_for_s
                ?connect_timeout_s:s.connect_timeout_s s.endpoint
            in
            s.conn <- Some c;
            c
      in
      decode (request_attempt ~deadline_ms ~attempt conn req)
    with
    | response ->
        s.prev_delay <- s.retry.base_delay_s;
        response
    | exception Server_error err when retryable_frame err && may_retry attempt
      ->
        (* the connection itself is healthy: back off and replay on it *)
        s.retries <- s.retries + 1;
        backoff ~until:give_up_at s;
        go (attempt + 1)
    | exception (End_of_file | Unix.Unix_error _ | Sys_error _
                | Protocol.Error _)
      when may_retry attempt ->
        (* the connection is gone or unsynchronised: drop it, back off,
           reconnect and replay *)
        drop_connection s;
        s.retries <- s.retries + 1;
        backoff ~until:give_up_at s;
        go (attempt + 1)
  in
  go 0

let call_raw ?(deadline_ms = 0) s req = call_with Fun.id ~deadline_ms s req

let call ?(deadline_ms = 0) s req =
  call_with Protocol.decode_response ~deadline_ms s req

let with_session ?retry ?retry_for_s ?connect_timeout_s endpoint f =
  let s = session ?retry ?retry_for_s ?connect_timeout_s endpoint in
  Fun.protect ~finally:(fun () -> close_session s) (fun () -> f s)
