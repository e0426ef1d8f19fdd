module Protocol = Ddg_protocol.Protocol
module Runner = Ddg_experiments.Runner
module Pool = Ddg_jobs.Engine.Pool
module Obs = Ddg_obs.Obs

(* Frame codec wall time, either direction, as seen by the handler. *)
let span_decode = Obs.span_site "ddg_server_decode_ns"
let span_encode = Obs.span_site "ddg_server_encode_ns"

(* Typed request failure raised inside pool workers; anything else that
   escapes a worker is reported as [Internal]. *)
exception Reject of Protocol.error_code * string

type endpoint = [ `Unix of string | `Tcp of string * int ]

let endpoint_to_string = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (addr, port) -> Printf.sprintf "tcp:%s:%d" addr port

let endpoint_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" && i + 1 < String.length s ->
      Some (`Unix (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j when j > 0 -> (
          match
            int_of_string_opt
              (String.sub rest (j + 1) (String.length rest - j - 1))
          with
          | Some port -> Some (`Tcp (String.sub rest 0 j, port))
          | None -> None)
      | _ -> None)
  | _ -> None

(* Cluster-mode identity: who this daemon is on the hash ring and how
   to answer "who owns this key". The ring itself lives in the cluster
   library; the server only consults it through [locate], feeds
   membership changes back through [update] and hands [Pull] requests
   to [pull], so the daemon carries no ring dependency. *)
type cluster = {
  node_id : string;
  locate : string -> string;
  update : (string * string) list -> unit;
  pull :
    kind:string -> key:string -> source:string -> (unit, Protocol.error) result;
}

type t = {
  runner : Runner.t;
  cluster : cluster option;
  pool : Pool.t;
  max_inflight : int;
  max_connections : int;
  default_deadline_s : float;
  metrics : Metrics.t;
  log : string -> unit;
  endpoints : endpoint list;
  lock : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable active : int;
  mutable stopping : bool;
  (* Self-pipe: [stop] only writes here, so it is safe in signal
     handlers; the accept loop selects on the read end. *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
}

let create ~runner ?cluster ?workers ?(max_inflight = 64)
    ?(max_connections = 256) ?(default_deadline_s = 600.) ?(log = ignore)
    endpoints =
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let pool = Pool.pool ?workers () in
  { runner; cluster; pool; max_inflight; max_connections;
    default_deadline_s;
    metrics = Metrics.create (); log; endpoints; lock = Mutex.create ();
    conns = []; active = 0; stopping = false; stop_r; stop_w }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let stop t = try ignore (Unix.write t.stop_w (Bytes.make 1 '\xff') 0 1) with _ -> ()

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

let stats t =
  Metrics.snapshot t.metrics
    ~runner:(Runner.counters t.runner)
    ~worker_respawns:(Pool.pool_respawns t.pool)

(* ------------------------------------------------------------------ *)
(* Request execution (runs on the domain pool)                         *)
(* ------------------------------------------------------------------ *)

let tables : (string * (Runner.t -> string)) list =
  [ ("table1", fun _ -> Ddg_experiments.Table1.render ());
    ("table2", Ddg_experiments.Table2.render);
    ("table3", Ddg_experiments.Table3.render);
    ("table4", Ddg_experiments.Table4.render);
    ("fig7", Ddg_experiments.Fig7.render);
    ("fig8", Ddg_experiments.Fig8.render);
    ("compiler", Ddg_experiments.Compiler_fx.render);
    ("resources", Ddg_experiments.Ablation.render_resources);
    ("branches", Ddg_experiments.Ablation.render_branches);
    ("extras", Ddg_experiments.Extras.render) ]

let table_names = List.map fst tables

let find_workload name =
  match Ddg_workloads.Registry.find name with
  | Some w -> w
  | None ->
      raise
        (Reject
           ( Protocol.Unknown_workload,
             Printf.sprintf "unknown workload %S (known: %s)" name
               (String.concat ", " Ddg_workloads.Registry.names) ))

(* The result is the ok-response payload: [Analyze] and [Advise] answer
   with the runner's cached canonical bytes, framed without a codec
   pass. [cancelled] is the pool ticket's abandonment poll: once the
   awaiting handler times out, nobody will read this result, so a job
   still sitting in the queue gives its slot back immediately instead of
   computing into the void. Heavy verbs only check on entry — a
   mid-analysis bail-out would need plumbing through the analyzer — so
   an already-running job holds its slot to completion (the documented
   backpressure). *)
let compute t (req : Protocol.request) cancelled : string =
  if cancelled () then
    raise (Reject (Protocol.Deadline_exceeded, "abandoned before execution"));
  match req with
  | Ping { delay_ms } ->
      let until = Unix.gettimeofday () +. (float_of_int delay_ms /. 1000.) in
      let rec nap () =
        let left = until -. Unix.gettimeofday () in
        if left > 0. && not (cancelled ()) then begin
          Unix.sleepf (Float.min left 0.05);
          nap ()
        end
      in
      if delay_ms > 0 then nap ();
      Protocol.encode_response Pong
  | Analyze { workload; config } ->
      Protocol.answer_payload `Analyzed
        (Runner.analyze_bytes t.runner (find_workload workload) config)
  | Advise { workload; config } ->
      Protocol.answer_payload `Advised
        (Runner.advise_bytes t.runner (find_workload workload) config)
  | Simulate { workload } ->
      let result, trace = Runner.trace t.runner (find_workload workload) in
      Protocol.encode_response
        (Simulated
           { instructions = result.Ddg_sim.Machine.instructions;
             syscalls = result.syscalls;
             output_bytes = String.length result.output;
             memory_footprint = result.memory_footprint;
             trace_events = Ddg_sim.Trace.length trace })
  | Table { name } -> (
      match List.assoc_opt name tables with
      | Some render -> Protocol.encode_response (Rendered (render t.runner))
      | None ->
          raise
            (Reject
               ( Protocol.Unknown_table,
                 Printf.sprintf "unknown table %S (known: %s)" name
                   (String.concat ", " table_names) )))
  | Fsck -> (
      match Runner.store t.runner with
      | None ->
          raise
            (Reject
               ( Protocol.Internal,
                 "no artifact store configured (daemon started with --no-cache)"
               ))
      | Some store ->
          let r = Ddg_store.Store.fsck store in
          Protocol.encode_response
            (Fsck_report
               { scanned = r.Ddg_store.Store.scanned;
                 valid = r.valid;
                 quarantined = r.quarantined;
                 missing = r.missing;
                 swept_temps = r.swept_temps }))
  | Server_stats | Shutdown | Metrics | Locate _ | Forward_range _ | Join _
  | Decommission _ | Ring_update _ | Store_list | Pull _ ->
      (* Handled inline by the connection handler; never queued. *)
      assert false

(* ------------------------------------------------------------------ *)
(* Per-connection protocol handler (runs on a systhread)               *)
(* ------------------------------------------------------------------ *)

let error_frame code message =
  Protocol.Error_response { code; message }

let serve_request t fd ~deadline_ms ~attempt (req : Protocol.request) =
  let verb = Protocol.verb_name req in
  let t0 = Obs.Clock.now_ns () in
  let send (outcome : Metrics.outcome) write =
    Metrics.record t.metrics ~attempt ~verb ~outcome
      ~latency_ns:(Obs.Clock.now_ns () - t0) ();
    Obs.time span_encode write
  in
  let finish outcome frame =
    send outcome (fun () -> Protocol.write_frame_fd fd frame)
  in
  match req with
  | Server_stats -> finish `Ok (Ok_response (Telemetry (stats t)))
  | Metrics -> finish `Ok (Ok_response (Metrics_snapshot (Obs.snapshot ())))
  | Locate { key } -> (
      (* membership query: cheap ring lookup, never queued *)
      match t.cluster with
      | Some c -> finish `Ok (Ok_response (Located { node = c.locate key }))
      | None ->
          finish `Error
            (error_frame Internal "this daemon is not a cluster member"))
  | Forward_range { kind; key; offset; length } -> (
      (* one raw slice per request, so an artifact of any size moves in
         bounded pieces; the puller digest-verifies the reassembled file *)
      match Runner.store t.runner with
      | None ->
          finish `Error
            (error_frame Internal
               "no artifact store configured (daemon started with --no-cache)")
      | Some store -> (
          let length = min length (Protocol.max_frame_bytes - 64) in
          match
            Ddg_store.Store.export_range store ~kind ~key ~offset ~length
          with
          | Some (total, data) ->
              finish `Ok (Ok_response (Fetched_range { total; data }))
          | None ->
              finish `Error
                (error_frame Internal "artifact absent or unreadable")))
  | Store_list -> (
      (* migration/scrub source of truth: cheap header walk, never queued *)
      match Runner.store t.runner with
      | None ->
          finish `Error
            (error_frame Internal
               "no artifact store configured (daemon started with --no-cache)")
      | Some store ->
          let entries = Ddg_store.Store.entries store in
          (* the codec bounds the listing; an over-full store ships its
             stable prefix and repeated passes converge on the rest *)
          let entries =
            List.filteri (fun i _ -> i < Protocol.max_store_entries) entries
          in
          finish `Ok (Ok_response (Store_listing { entries })))
  | Pull { kind; key; source } -> (
      (* the cluster hook streams the artifact from [source] into this
         daemon's store; never queued, so a drain's pulls never wait
         behind analyses *)
      match t.cluster with
      | Some c -> (
          match c.pull ~kind ~key ~source with
          | Ok () -> finish `Ok (Ok_response (Pulled { kind; key }))
          | Error { code; message } -> finish `Error (error_frame code message))
      | None ->
          finish `Error
            (error_frame Internal "this daemon is not a cluster member"))
  | Ring_update { members } -> (
      match t.cluster with
      | Some c ->
          c.update members;
          finish `Ok (Ok_response (Members { members }))
      | None ->
          finish `Error
            (error_frame Internal "this daemon is not a cluster member"))
  | Join _ | Decommission _ ->
      finish `Error
        (error_frame Internal "membership verbs are answered by a cluster router")
  | Shutdown ->
      finish `Ok (Ok_response Shutting_down_ack);
      t.log "shutdown requested over the wire";
      stop t
  | _ when locked t (fun () -> t.stopping) ->
      finish `Error (error_frame Shutting_down "server is draining")
  | _ -> (
      match Pool.submit t.pool ~max_inflight:t.max_inflight (compute t req) with
      | None ->
          finish `Busy
            (error_frame Busy
               (Printf.sprintf "%d requests already in flight" t.max_inflight))
      | Some ticket -> (
          let timeout_s =
            if deadline_ms > 0 then float_of_int deadline_ms /. 1000.
            else t.default_deadline_s
          in
          match Pool.await ~timeout_s ticket with
          | Ok payload ->
              send `Ok (fun () ->
                  Protocol.write_raw_frame_fd fd Protocol.ok_kind payload)
          | Error `Timeout ->
              finish `Deadline
                (error_frame Deadline_exceeded
                   (Printf.sprintf "no result within %.3fs" timeout_s))
          | Error (`Failed (Reject (code, message))) ->
              finish `Error (error_frame code message)
          | Error (`Failed (Pool.Worker_crashed message)) ->
              (* the domain died with this one request; the pool already
                 replaced it — tell the client its retry is safe *)
              finish `Error
                (error_frame Worker_crashed
                   (Printf.sprintf
                      "worker domain died executing this request (%s); \
                       the pool has respawned it"
                      message))
          | Error (`Failed exn) ->
              finish `Error (error_frame Internal (Printexc.to_string exn))))

(* Frames travel over the raw fd (EINTR-restarting, short-transfer
   tolerant — see [Protocol.read_frame_fd]); no channel buffers sit
   between the protocol and the socket, so there is exactly one owner
   to close and nothing to flush on the error paths. *)
let handle_connection t fd =
  let safe_write frame = try Protocol.write_frame_fd fd frame with _ -> () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  try
    match Protocol.read_frame_fd fd with
    | Hello { protocol; software = _; node = _ }
      when protocol = Protocol.version ->
        Protocol.write_frame_fd fd
          (Hello
             { protocol = Protocol.version;
               software = Ddg_version.Version.current;
               node =
                 (match t.cluster with Some c -> c.node_id | None -> "") });
        let rec loop () =
          match Obs.time span_decode (fun () -> Protocol.read_frame_fd fd) with
          | Request { deadline_ms; attempt; request } ->
              serve_request t fd ~deadline_ms ~attempt request;
              (* A served Shutdown closes this connection too. *)
              if request <> Protocol.Shutdown then loop ()
          | Hello _ | Ok_response _ | Error_response _ ->
              safe_write (error_frame Bad_frame "expected a request frame")
        in
        loop ()
    | Hello { protocol; software = _; node = _ } ->
        safe_write
          (error_frame Unsupported_version
             (Printf.sprintf "server speaks protocol %d, client sent %d"
                Protocol.version protocol))
    | _ -> safe_write (error_frame Bad_frame "expected a hello frame")
  with
  | End_of_file -> () (* client closed, possibly mid-frame: fine *)
  | Protocol.Error message ->
      (* Malformed frame: report it; the framing is now unsynchronised,
         so drop the connection rather than guess at a resync. *)
      safe_write (error_frame Bad_frame message)
  | Sys_error _ | Unix.Unix_error _ -> () (* broken pipe etc. *)
  | e ->
      t.log
        (Printf.sprintf "connection handler error: %s" (Printexc.to_string e));
      safe_write (error_frame Internal "internal error")

(* ------------------------------------------------------------------ *)
(* Accept loop and graceful drain                                      *)
(* ------------------------------------------------------------------ *)

let listen_endpoint (ep : endpoint) =
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
  Metrics.connection t.metrics;
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
  (* Writes to sockets whose peer vanished must surface as EPIPE, not
     kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listeners = List.map listen_endpoint t.endpoints in
  List.iter
    (fun ep -> t.log (Printf.sprintf "listening on %s" (describe_endpoint ep)))
    t.endpoints;
  let rec accept_loop () =
    match Unix.select (t.stop_r :: listeners) [] [] (-1.0) with
    | exception Unix.Unix_error (EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error (err, _, _) ->
        (* Unexpected (EBADF, EINVAL, ...): log, back off briefly, and
           keep serving rather than tear the daemon down. *)
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
                match
                  (* transient fd pressure (EMFILE under load): the
                     connection stays pending in the backlog and the
                     next select round retries it *)
                  if Ddg_fault.Fault.fire "server.accept.fail" then
                    raise
                      (Unix.Unix_error (Unix.EMFILE, "accept",
                         "fault-injected"));
                  Unix.accept ~cloexec:true lfd
                with
                | fd, _ ->
                    (* The connection bound keeps handler threads — and
                       with them every fd [select] might watch — well
                       under FD_SETSIZE; past it, shed load at accept
                       instead of risking EINVAL for everyone. *)
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
  (* Unblock handlers parked in [read_frame_fd] waiting for a next request
     so they observe EOF and finish. *)
  locked t (fun () ->
      List.iter
        (fun fd ->
          try Unix.shutdown fd SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        t.conns);
  let deadline = Unix.gettimeofday () +. 60.0 in
  while locked t (fun () -> t.active > 0) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Pool.shutdown t.pool;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  t.log "stopped"
