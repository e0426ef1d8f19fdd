module Protocol = Ddg_protocol.Protocol
module Obs = Ddg_obs.Obs
module Fault = Ddg_fault.Fault
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Workload = Ddg_workloads.Workload

let requests_total = Obs.counter "ddg_router_requests_total"
let reroutes_total = Obs.counter "ddg_router_reroutes_total"
let breaker_opens_total = Obs.counter "ddg_router_breaker_opens_total"
let backend_errors_total = Obs.counter "ddg_router_backend_errors_total"
let membership_changes_total = Obs.counter "ddg_membership_changes_total"

type backend = {
  node : string;
  endpoint : Server.endpoint;
  (* breaker state, under the router lock *)
  mutable failures : int;
  mutable open_until : float;
}

type t = {
  vnodes : int option;
  (* live membership, under the router lock: [None] ring means an empty
     fleet — every routed request gets a typed [No_backends], never an
     exception *)
  mutable ring : Ring.t option;
  mutable backends : backend list;  (* sorted by node id *)
  size : Workload.size;
  node_id : string;
  endpoints : Server.endpoint list;
  retry : Client.retry;
  retry_for_s : float;
  connect_timeout_s : float;
  health_interval_s : float;
  failure_threshold : int;
  cooldown_s : float;
  max_connections : int;
  (* how a decommission reaches the supervisor: a drained node's next
     death must be final, not a respawn *)
  on_retire : string -> unit;
  log : string -> unit;
  lock : Mutex.t;
  (* serialises whole membership changes (join/decommission), which
     hold connections open mid-change; never held with [lock] *)
  membership_lock : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable active : int;
  mutable stopping : bool;
  (* Self-pipe, as in Server: [stop] only writes here. *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
}

let sort_backends = List.sort (fun a b -> compare a.node b.node)

let create ?vnodes ?(node_id = "router") ?(retry = Client.default_retry)
    ?(retry_for_s = 5.0) ?(connect_timeout_s = 1.0)
    ?(health_interval_s = 0.5) ?(failure_threshold = 3) ?(cooldown_s = 2.0)
    ?(max_connections = 256) ?(on_retire = ignore) ?(log = ignore) ~size
    ~backends endpoints =
  let ring =
    match backends with
    | [] -> None
    | _ ->
        let r = Ring.create ?vnodes (List.map fst backends) in
        if List.length (Ring.nodes r) <> List.length backends then
          invalid_arg "Router.create: duplicate backend node ids";
        Some r
  in
  let backends =
    sort_backends
      (List.map
         (fun (node, endpoint) ->
           { node; endpoint; failures = 0; open_until = 0. })
         backends)
  in
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  (* like the daemon, a router observes itself: open the obs gate so
     its request/reroute/breaker counters actually record *)
  Obs.enable ();
  { vnodes; ring; backends; size; node_id; endpoints; retry; retry_for_s;
    connect_timeout_s; health_interval_s; failure_threshold; cooldown_s;
    max_connections; on_retire; log; lock = Mutex.create ();
    membership_lock = Mutex.create (); conns = []; active = 0;
    stopping = false; stop_r; stop_w }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ring t = locked t (fun () -> t.ring)

(* one atomic view of the membership: ring and backend list from the
   same instant, so routing plans never mix two generations *)
let snapshot t = locked t (fun () -> (t.ring, t.backends))

let members t =
  locked t (fun () ->
      List.map
        (fun b -> (b.node, Server.endpoint_to_string b.endpoint))
        t.backends)

let stop t = try ignore (Unix.write t.stop_w (Bytes.make 1 '\xff') 0 1) with _ -> ()

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                     *)
(* ------------------------------------------------------------------ *)

let available t b = locked t (fun () -> Unix.gettimeofday () >= b.open_until)

let note_ok t b =
  locked t (fun () ->
      b.failures <- 0;
      b.open_until <- 0.)

let note_failure t b ~why =
  let opened =
    locked t (fun () ->
        b.failures <- b.failures + 1;
        if
          b.failures >= t.failure_threshold
          && Unix.gettimeofday () >= b.open_until
        then begin
          b.open_until <- Unix.gettimeofday () +. t.cooldown_s;
          true
        end
        else false)
  in
  if opened then begin
    Obs.incr breaker_opens_total;
    t.log
      (Printf.sprintf "circuit open: %s for %.1fs after %d failures (%s)"
         b.node t.cooldown_s b.failures why)
  end

(* push the membership now in force to one backend — how a node that
   was down (or freshly respawned with the boot-time member list) learns
   about joins and decommissions it slept through *)
let push_membership t b =
  let members = members t in
  try
    Client.with_connection ~connect_timeout_s:t.connect_timeout_s b.endpoint
      (fun c ->
        ignore
          (Client.request ~deadline_ms:2000 c
             (Protocol.Ring_update { members })))
  with _ -> ()

let broadcast_membership t =
  List.iter (fun b -> push_membership t b) (locked t (fun () -> t.backends))

(* A probe is any successful round trip; a typed error frame still
   proves the backend is alive and decoding frames. A success after
   failures is a recovery: re-push the membership, since a respawned
   backend boots with the member list it was forked with. *)
let probe t b =
  match
    Client.with_connection ~connect_timeout_s:t.connect_timeout_s b.endpoint
      (fun c -> Client.request ~deadline_ms:2000 c (Ping { delay_ms = 0 }))
  with
  | (_ : Protocol.response) | (exception Client.Server_error _) ->
      let recovered =
        locked t (fun () ->
            let r = b.failures > 0 || b.open_until > 0. in
            b.failures <- 0;
            b.open_until <- 0.;
            r)
      in
      if recovered then begin
        t.log (Printf.sprintf "backend %s recovered" b.node);
        push_membership t b
      end
  | exception e -> note_failure t b ~why:("health: " ^ Printexc.to_string e)

let health_loop t () =
  let rec nap left =
    if left > 0. && not (locked t (fun () -> t.stopping)) then begin
      Thread.delay (Float.min left 0.05);
      nap (left -. 0.05)
    end
  in
  while not (locked t (fun () -> t.stopping)) do
    List.iter
      (fun b -> if not (locked t (fun () -> t.stopping)) then probe t b)
      (locked t (fun () -> t.backends));
    nap t.health_interval_s
  done

(* ------------------------------------------------------------------ *)
(* Relaying                                                            *)
(* ------------------------------------------------------------------ *)

let error_frame code message = Protocol.Error_response { code; message }

(* Per-connection session cache: one lazily reconnecting session per
   backend, so a chatty client reuses warm connections end to end. *)
let session_for t sessions b =
  match Hashtbl.find_opt sessions b.node with
  | Some s -> s
  | None ->
      let s =
        Client.session ~retry:t.retry ~retry_for_s:t.retry_for_s
          ~connect_timeout_s:t.connect_timeout_s b.endpoint
      in
      Hashtbl.add sessions b.node s;
      s

let close_sessions sessions =
  Hashtbl.iter (fun _ s -> Client.close_session s) sessions;
  Hashtbl.reset sessions

let is_transport_failure = function
  | End_of_file | Protocol.Error _ | Sys_error _ | Unix.Unix_error _ -> true
  | _ -> false

(* The backend's ok-response payload, undecoded: keyed answers relay
   as these bytes, fan-outs decode them to merge. Error frames raise
   [Client.Server_error]; a frame of another kind is a transport
   failure. *)
let call_backend t sessions ~deadline_ms b req =
  if Fault.fire "cluster.backend.drop" then
    raise (Unix.Unix_error (ECONNRESET, "cluster.backend.drop", b.node));
  Client.call_raw ~deadline_ms (session_for t sessions b) req

(* Deadline-budget propagation: [deadline_ms] is the caller's whole
   budget, measured from [t0] (when the router read the request). Every
   relay — including a failover retry after a dead owner burned part of
   the budget — carries only what remains, so the fleet can never spend
   longer on a request than its caller allowed. [Some 0] means "no
   deadline given, use server defaults"; [None] means the budget is
   spent. *)
let remaining_budget ~deadline_ms ~t0 =
  if deadline_ms <= 0 then Some 0
  else
    let elapsed_ms =
      int_of_float ((Unix.gettimeofday () -. t0) *. 1000.)
    in
    if deadline_ms - elapsed_ms <= 0 then None
    else Some (deadline_ms - elapsed_ms)

(* Keyed dispatch: healthy nodes in ring-successor order first, then —
   only if every circuit is open — the unhealthy ones as a last
   resort (an open circuit is a prediction, not a proof). The answer is
   the owner's ok-response payload, relayed as bytes, or the error to
   send back. *)
let dispatch_keyed t sessions ~deadline_ms ~t0 key req =
  let error code message = Error { Protocol.code; message } in
  match snapshot t with
  | None, _ -> error No_backends "the cluster has no members"
  | Some ring, backends ->
      let plan =
        let order =
          List.filter_map
            (fun node -> List.find_opt (fun b -> b.node = node) backends)
            (Ring.successors ring key)
        in
        let up, down = List.partition (available t) order in
        up @ down
      in
      let owner = Ring.owner ring key in
      let rec go = function
        | [] ->
            error No_backends
              (Printf.sprintf "no backend reachable for key %S" key)
        | b :: rest -> (
            match remaining_budget ~deadline_ms ~t0 with
            | None ->
                error Deadline_exceeded
                  (Printf.sprintf
                     "deadline budget of %dms spent during failover"
                     deadline_ms)
            | Some budget_ms -> (
                match
                  call_backend t sessions ~deadline_ms:budget_ms b req
                with
                | payload ->
                    note_ok t b;
                    if b.node <> owner then begin
                      Obs.incr reroutes_total;
                      t.log
                        (Printf.sprintf "rerouted %s key %s: %s -> %s"
                           (Protocol.verb_name req) key owner b.node)
                    end;
                    Ok payload
                | exception Client.Server_error { code = Shutting_down; _ }
                  when rest <> [] ->
                    (* a draining backend takes no new work, but it is
                       not sick: try the next successor, leave the
                       breaker alone *)
                    go rest
                | exception Client.Server_error err ->
                    (* typed refusal: the backend is alive; relay its
                       answer *)
                    note_ok t b;
                    Error err
                | exception e when is_transport_failure e ->
                    Obs.incr backend_errors_total;
                    note_failure t b ~why:(Printexc.to_string e);
                    go rest))
      in
      go plan

(* Best-effort fan-out to every healthy backend; nodes that fail just
   drop out of the aggregate (and feed their breaker). The budget rule
   applies here too: each relay carries what remains. *)
let fan_out t sessions ~deadline_ms ~t0 req =
  List.filter_map
    (fun b ->
      if not (available t b) then None
      else
        match remaining_budget ~deadline_ms ~t0 with
        | None -> None
        | Some budget_ms -> (
            match
              Protocol.decode_response
                (call_backend t sessions ~deadline_ms:budget_ms b req)
            with
            | resp ->
                note_ok t b;
                Some resp
            | exception Client.Server_error _ ->
                note_ok t b;
                None
            | exception e when is_transport_failure e ->
                Obs.incr backend_errors_total;
                note_failure t b ~why:(Printexc.to_string e);
                None))
    (locked t (fun () -> t.backends))

(* ------------------------------------------------------------------ *)
(* Live membership                                                     *)
(* ------------------------------------------------------------------ *)

let with_membership_lock t f =
  Mutex.lock t.membership_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.membership_lock) f

let join t ~node ~endpoint =
  with_membership_lock t @@ fun () ->
  let added =
    locked t (fun () ->
        if List.exists (fun b -> b.node = node) t.backends then false
        else begin
          t.backends <-
            sort_backends
              ({ node; endpoint; failures = 0; open_until = 0. }
              :: t.backends);
          t.ring <-
            Some
              (match t.ring with
              | Some r -> Ring.add r node
              | None -> Ring.create ?vnodes:t.vnodes [ node ]);
          true
        end)
  in
  if added then begin
    Obs.incr membership_changes_total;
    t.log
      (Printf.sprintf "join: %s at %s" node
         (Server.endpoint_to_string endpoint));
    (* keys move only *to* the joiner (the Ring contract), and nothing
       is migrated: the joiner recomputes a key it now owns until the
       scrub on an old holder asks it to pull that key (fetch-through
       never fires for a node's own keys); survivors keep serving
       everything else *)
    broadcast_membership t
  end;
  members t

(* Migrate the retiring node's artifacts to their new ring owners: ask
   each key's owner under the post-removal ring to [pull] it from the
   retiree — the same streamed, digest-checked transfer as
   fetch-through, so artifacts of any size move. A node decommissioned
   because it is dead has nothing to list; the survivors recompute or
   fetch whatever copies exist elsewhere. Returns the artifact counts
   moved and failed. *)
let migrate t ~from:(b : backend) ~new_ring =
  let request endpoint req =
    Client.with_connection ~connect_timeout_s:t.connect_timeout_s endpoint
      (fun c -> Client.request ~deadline_ms:60_000 c req)
  in
  match new_ring with
  | None -> (0, 0)
  | Some ring -> (
      match request b.endpoint Protocol.Store_list with
      | Protocol.Store_listing { entries } ->
          let backends = locked t (fun () -> t.backends) in
          List.fold_left
            (fun (moved, failed) (kind, key) ->
              (* widen the handover window under chaos: keyed traffic
                 keeps flowing against the old ring while keys move *)
              if Fault.fire "cluster.membership.race" then Thread.delay 0.02;
              let owner = Ring.owner ring (Route.of_store_key key) in
              match
                request
                  (List.find (fun x -> x.node = owner) backends).endpoint
                  (Protocol.Pull { kind; key; source = b.node })
              with
              | Protocol.Pulled _ -> (moved + 1, failed)
              | _ -> (moved, failed + 1)
              | exception e ->
                  t.log
                    (Printf.sprintf "decommission: %s did not pull %s %s (%s)"
                       owner kind key (Printexc.to_string e));
                  (moved, failed + 1))
            (0, 0) entries
      | _ -> (0, 0)
      | exception e ->
          t.log
            (Printf.sprintf "decommission: cannot list %s's store (%s)" b.node
               (Printexc.to_string e));
          (0, 0))

let decommission t ~node =
  with_membership_lock t @@ fun () ->
  match
    locked t (fun () -> List.find_opt (fun b -> b.node = node) t.backends)
  with
  | None -> members t (* a replayed decommission is a no-op, not an error *)
  | Some b ->
      (* the post-removal ring: [None] when this was the last member —
         never lets Ring.remove's last-node Invalid_argument escape *)
      let new_ring =
        locked t (fun () ->
            match t.ring with
            | Some r when List.length (Ring.nodes r) > 1 ->
                Some (Ring.remove r node)
            | _ -> None)
      in
      let moved, failed = migrate t ~from:b ~new_ring in
      locked t (fun () ->
          t.backends <- List.filter (fun x -> x.node <> node) t.backends;
          t.ring <- new_ring);
      Obs.incr membership_changes_total;
      t.log
        (Printf.sprintf "decommission: %s (%d artifacts migrated, %d failed)"
           node moved failed);
      broadcast_membership t;
      (* tell the supervisor first, so the drain-induced death below is
         final rather than a crash to respawn *)
      (try t.on_retire node with _ -> ());
      (* the retiring daemon drains its in-flight work before exiting *)
      (try
         Client.with_connection ~connect_timeout_s:t.connect_timeout_s
           b.endpoint (fun c ->
             ignore (Client.request ~deadline_ms:2000 c Protocol.Shutdown))
       with _ -> ());
      members t

(* ------------------------------------------------------------------ *)
(* Per-connection protocol handler                                     *)
(* ------------------------------------------------------------------ *)

let serve_request t sessions fd ~deadline_ms (req : Protocol.request) =
  Obs.incr requests_total;
  (* the budget clock starts the moment the request is read: everything
     the router burns (failed relays, migrations racing by) counts *)
  let t0 = Unix.gettimeofday () in
  let finish frame = Protocol.write_frame_fd fd frame in
  match req with
  | Ping { delay_ms } ->
      (* answered locally: router liveness, not backend liveness *)
      if delay_ms > 0 then Unix.sleepf (float_of_int delay_ms /. 1000.);
      finish (Ok_response Pong)
  | Locate { key } -> (
      match locked t (fun () -> t.ring) with
      | None -> finish (error_frame No_backends "the cluster has no members")
      | Some ring ->
          finish
            (Ok_response
               (Located { node = Ring.owner ring (Route.of_store_key key) })))
  | Join { node; endpoint } -> (
      match Server.endpoint_of_string endpoint with
      | None ->
          finish
            (error_frame Bad_frame
               (Printf.sprintf
                  "bad endpoint %S (want unix:<path> or tcp:<addr>:<port>)"
                  endpoint))
      | Some ep ->
          finish (Ok_response (Members { members = join t ~node ~endpoint:ep })))
  | Decommission { node } ->
      finish (Ok_response (Members { members = decommission t ~node }))
  | Ring_update _ | Store_list | Pull _ ->
      finish
        (error_frame Internal
           (Printf.sprintf "%s is a backend verb; this is a router"
              (Protocol.verb_name req)))
  | Metrics ->
      (* federation: the fleet's snapshots plus the router's own *)
      let remote =
        List.filter_map
          (function Protocol.Metrics_snapshot s -> Some s | _ -> None)
          (fan_out t sessions ~deadline_ms ~t0 Metrics)
      in
      finish
        (Ok_response
           (Metrics_snapshot
              (Federate.merge_snapshots (Obs.snapshot () :: remote))))
  | Fsck -> (
      let reports =
        List.filter_map
          (function Protocol.Fsck_report r -> Some r | _ -> None)
          (fan_out t sessions ~deadline_ms ~t0 Fsck)
      in
      match reports with
      | [] -> finish (error_frame No_backends "no backend reachable for fsck")
      | reports ->
          let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
          finish
            (Ok_response
               (Fsck_report
                  { scanned = sum (fun r -> r.Protocol.scanned);
                    valid = sum (fun r -> r.Protocol.valid);
                    quarantined = sum (fun r -> r.Protocol.quarantined);
                    missing = sum (fun r -> r.Protocol.missing);
                    swept_temps = sum (fun r -> r.Protocol.swept_temps) })))
  | Shutdown ->
      finish (Ok_response Shutting_down_ack);
      t.log "cluster shutdown requested over the wire";
      List.iter
        (fun b ->
          try
            Client.with_connection ~connect_timeout_s:t.connect_timeout_s
              b.endpoint (fun c ->
                ignore (Client.request ~deadline_ms:2000 c Protocol.Shutdown))
          with _ -> ())
        (locked t (fun () -> t.backends));
      stop t
  | Analyze _ | Simulate _ | Table _ | Forward_range _ | Advise _ -> (
      match Route.of_request ~size:t.size req with
      | Some key -> (
          match dispatch_keyed t sessions ~deadline_ms ~t0 key req with
          | Ok payload ->
              Protocol.write_raw_frame_fd fd Protocol.ok_kind payload
          | Error err -> finish (Error_response err))
      | None -> assert false (* keyless verbs all matched above *))

let handle_connection t fd =
  let safe_write frame = try Protocol.write_frame_fd fd frame with _ -> () in
  let sessions = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () ->
      close_sessions sessions;
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  try
    match Protocol.read_frame_fd fd with
    | Hello { protocol; software = _; node = _ }
      when protocol = Protocol.version ->
        Protocol.write_frame_fd fd
          (Hello
             { protocol = Protocol.version;
               software = Ddg_version.Version.current;
               node = t.node_id });
        let rec loop () =
          match Protocol.read_frame_fd fd with
          | Request { deadline_ms; attempt = _; request } ->
              serve_request t sessions fd ~deadline_ms request;
              if request <> Protocol.Shutdown then loop ()
          | Hello _ | Ok_response _ | Error_response _ ->
              safe_write (error_frame Bad_frame "expected a request frame")
        in
        loop ()
    | Hello { protocol; software = _; node = _ } ->
        safe_write
          (error_frame Unsupported_version
             (Printf.sprintf "router speaks protocol %d, client sent %d"
                Protocol.version protocol))
    | _ -> safe_write (error_frame Bad_frame "expected a hello frame")
  with
  | End_of_file -> ()
  | Protocol.Error message -> safe_write (error_frame Bad_frame message)
  | Sys_error _ | Unix.Unix_error _ -> ()
  | e ->
      t.log
        (Printf.sprintf "router handler error: %s" (Printexc.to_string e));
      safe_write (error_frame Internal "internal error")

(* ------------------------------------------------------------------ *)
(* Accept loop (Server's shape, minus the worker pool)                 *)
(* ------------------------------------------------------------------ *)

let listen_endpoint (ep : Server.endpoint) =
  match ep with
  | `Unix path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.bind fd (ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (addr, port) ->
      let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
      Unix.setsockopt fd SO_REUSEADDR true;
      Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string addr, port));
      Unix.listen fd 64;
      fd

let describe_endpoint = function
  | `Unix path -> Printf.sprintf "unix:%s" path
  | `Tcp (addr, port) -> Printf.sprintf "tcp:%s:%d" addr port

let spawn_handler t fd =
  locked t (fun () ->
      t.conns <- fd :: t.conns;
      t.active <- t.active + 1);
  ignore
    (Thread.create
       (fun () ->
         Fun.protect
           ~finally:(fun () ->
             locked t (fun () ->
                 t.conns <- List.filter (fun c -> c != fd) t.conns;
                 t.active <- t.active - 1))
           (fun () -> handle_connection t fd))
       ())

let run t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let health = Thread.create (health_loop t) () in
  let listeners = List.map listen_endpoint t.endpoints in
  List.iter
    (fun ep ->
      t.log (Printf.sprintf "routing %d backends on %s"
               (List.length t.backends) (describe_endpoint ep)))
    t.endpoints;
  let rec accept_loop () =
    match Unix.select (t.stop_r :: listeners) [] [] (-1.0) with
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (err, _, _) ->
        t.log
          (Printf.sprintf "accept select failed: %s; retrying"
             (Unix.error_message err));
        Thread.delay 0.05;
        accept_loop ()
    | readable, _, _ ->
        if List.memq t.stop_r readable then ()
        else begin
          List.iter
            (fun lfd ->
              if List.memq lfd readable then
                match Unix.accept ~cloexec:true lfd with
                | fd, _ ->
                    if locked t (fun () -> t.active) >= t.max_connections
                    then begin
                      t.log "connection refused: max-connections reached";
                      try Unix.close fd with Unix.Unix_error _ -> ()
                    end
                    else spawn_handler t fd
                | exception Unix.Unix_error _ -> ())
            listeners;
          accept_loop ()
        end
  in
  accept_loop ();
  t.log "draining";
  locked t (fun () -> t.stopping <- true);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  List.iter
    (function
      | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | `Tcp _ -> ())
    t.endpoints;
  locked t (fun () ->
      List.iter
        (fun fd ->
          try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        t.conns);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while locked t (fun () -> t.active > 0) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Thread.join health;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  t.log "stopped"
