(* End-to-end daemon tests: a real server on a temp Unix socket, real
   clients over the wire. Served analyses must be bit-identical to
   in-process ones; overload, deadlines, garbage frames and client
   disconnects must all surface as typed outcomes while the daemon keeps
   serving; a warm repeat must do zero new work. *)

module Protocol = Ddg_protocol.Protocol
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Runner = Ddg_experiments.Runner

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg_srv_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?(max_inflight = 8) ?(workers = 2)
    ?(default_deadline_s = 30.0) f =
  let socket = fresh_socket () in
  let runner = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
  let server =
    Server.create ~runner ~workers ~max_inflight ~default_deadline_s
      [ `Unix socket ]
  in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f (`Unix socket) server)

let connect endpoint = Client.connect ~retry_for_s:5.0 endpoint

let workload name =
  match Ddg_workloads.Registry.find name with
  | Some w -> w
  | None -> Alcotest.failf "missing workload %s" name

let direct_stats name config =
  let runner = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
  Runner.analyze runner (workload name) config

let stats_bytes = Ddg_paragraph.Stats_codec.to_string

let request_stats client ?deadline_ms name config =
  match
    Client.request ?deadline_ms client
      (Protocol.Analyze { workload = name; config })
  with
  | Protocol.Analyzed stats -> stats
  | _ -> Alcotest.fail "expected Analyzed"

let test_ping_and_handshake () =
  with_server (fun endpoint _server ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          Alcotest.(check string)
            "server software version" Ddg_version.Version.current
            (Client.server_software client);
          match Client.request client (Protocol.Ping { delay_ms = 0 }) with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong"))

let test_served_analysis_bit_identical () =
  with_server (fun endpoint _server ->
      let config =
        { Ddg_paragraph.Config.default with
          renaming = Ddg_paragraph.Config.rename_registers_only;
          window = Some 64 }
      in
      let client = connect endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          List.iter
            (fun name ->
              Alcotest.(check string)
                (name ^ " served = in-process")
                (stats_bytes (direct_stats name config))
                (stats_bytes (request_stats client name config)))
            [ "mtxx"; "eqnx" ]))

let test_concurrent_clients () =
  with_server ~workers:4 (fun endpoint _server ->
      let names = [ "mtxx"; "eqnx"; "xlispx"; "mtxx" ] in
      let config = Ddg_paragraph.Config.default in
      let results = Array.make (List.length names) "" in
      let threads =
        List.mapi
          (fun i name ->
            Thread.create
              (fun () ->
                Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
                    results.(i) <-
                      stats_bytes (request_stats client name config)))
              ())
          names
      in
      List.iter Thread.join threads;
      List.iteri
        (fun i name ->
          Alcotest.(check string)
            (Printf.sprintf "client %d (%s)" i name)
            (stats_bytes (direct_stats name config))
            results.(i))
        names)

let counters client =
  match Client.request client Protocol.Server_stats with
  | Protocol.Telemetry c -> c
  | _ -> Alcotest.fail "expected Telemetry"

let test_warm_repeat_does_no_work () =
  with_server (fun endpoint _server ->
      let config = Ddg_paragraph.Config.default in
      let client = connect endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let cold = request_stats client "mtxx" config in
          let after_cold = counters client in
          Alcotest.(check int) "one simulation" 1
            after_cold.Protocol.simulations;
          Alcotest.(check int) "one analysis" 1 after_cold.Protocol.analyses;
          let warm = request_stats client "mtxx" config in
          let after_warm = counters client in
          Alcotest.(check string) "identical result" (stats_bytes cold)
            (stats_bytes warm);
          Alcotest.(check int) "still one simulation" 1
            after_warm.Protocol.simulations;
          Alcotest.(check int) "still one analysis" 1
            after_warm.Protocol.analyses))

let test_busy_backpressure () =
  with_server ~workers:1 ~max_inflight:1 (fun endpoint _server ->
      (* a probe ping can win the slot first and refuse the blocker
         itself, so the blocker retries until it holds the slot *)
      let blocker =
        Thread.create
          (fun () ->
            Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
                let rec hold () =
                  match
                    Client.request client (Protocol.Ping { delay_ms = 1000 })
                  with
                  | (_ : Protocol.response) -> ()
                  | exception Client.Server_error { code = Protocol.Busy; _ }
                    ->
                      hold ()
                in
                hold ()))
          ()
      in
      let saw_busy = ref false in
      let client = connect endpoint in
      Fun.protect
        ~finally:(fun () ->
          Client.close client;
          Thread.join blocker)
        (fun () ->
          (* race the blocker: keep pinging until its request occupies
             the single in-flight slot and we get refused *)
          let attempts = ref 0 in
          while (not !saw_busy) && !attempts < 200 do
            incr attempts;
            (match Client.request client (Protocol.Ping { delay_ms = 0 }) with
            | (_ : Protocol.response) -> Thread.delay 0.005
            | exception Client.Server_error { code = Protocol.Busy; _ } ->
                saw_busy := true)
          done;
          Alcotest.(check bool) "a request was refused with Busy" true
            !saw_busy))

let test_session_retries_through_busy () =
  (* one worker, one slot: a long ping occupies the daemon, so a bare
     request sees Busy — but a retrying session backs off and replays
     until the slot frees, then succeeds *)
  with_server ~workers:1 ~max_inflight:1 (fun endpoint _server ->
      let blocker =
        Thread.create
          (fun () ->
            (* a probe ping can win the one slot first: retry on Busy
               until this request holds it *)
            Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
                let rec hold () =
                  match
                    Client.request client (Protocol.Ping { delay_ms = 2000 })
                  with
                  | (_ : Protocol.response) -> ()
                  | exception Client.Server_error { code = Protocol.Busy; _ }
                    ->
                      hold ()
                in
                hold ()))
          ()
      in
      Fun.protect
        ~finally:(fun () -> Thread.join blocker)
        (fun () ->
          (* wait for the blocker's request to occupy the slot: a bare
             one-attempt client keeps probing until it is refused *)
          let saw_busy = ref false in
          Client.with_connection ~retry_for_s:5.0 endpoint (fun probe ->
              let give_up = Unix.gettimeofday () +. 5.0 in
              while (not !saw_busy) && Unix.gettimeofday () < give_up do
                match Client.request probe (Protocol.Ping { delay_ms = 0 }) with
                | (_ : Protocol.response) -> Thread.delay 0.002
                | exception Client.Server_error { code = Protocol.Busy; _ }
                  ->
                    saw_busy := true
              done);
          Alcotest.(check bool) "daemon saturated" true !saw_busy;
          let retry =
            { Client.default_retry with
              Client.attempts = 50;
              base_delay_s = 0.025;
              max_delay_s = 0.1 }
          in
          Client.with_session ~retry ~retry_for_s:5.0 endpoint (fun s ->
              (match Client.call s (Protocol.Ping { delay_ms = 0 }) with
              | Protocol.Pong -> ()
              | _ -> Alcotest.fail "expected Pong");
              Alcotest.(check bool) "session replayed at least once" true
                (Client.session_retries s > 0));
          (* the served retries show up in the daemon's counters *)
          Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
              let c = counters client in
              Alcotest.(check bool) "retries_served counted" true
                (c.Protocol.retries_served > 0))))

let test_deadline_exceeded () =
  with_server (fun endpoint _server ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          match
            Client.request ~deadline_ms:50 client
              (Protocol.Ping { delay_ms = 1000 })
          with
          | (_ : Protocol.response) ->
              Alcotest.fail "slow request beat a 50ms deadline"
          | exception
              Client.Server_error { code = Protocol.Deadline_exceeded; _ } ->
              ()))

let raw_connection endpoint f =
  let path = match endpoint with `Unix p -> p | `Tcp _ -> assert false in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (ADDR_UNIX path);
      f fd)

let test_garbage_gets_bad_frame () =
  with_server (fun endpoint _server ->
      (* wait until the server is actually listening *)
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          ignore (Client.request client (Protocol.Ping { delay_ms = 0 })));
      raw_connection endpoint (fun fd ->
          let garbage = "this is not a DDGP frame at all........." in
          ignore (Unix.write_substring fd garbage 0 (String.length garbage));
          match Protocol.read_frame_fd fd with
          | Protocol.Error_response { code = Protocol.Bad_frame; _ } -> ()
          | _ -> Alcotest.fail "expected a Bad_frame error frame");
      (* the daemon must keep serving after feeding it garbage *)
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          match Client.request client (Protocol.Ping { delay_ms = 0 }) with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong after garbage connection"))

let test_bad_config_gets_bad_frame () =
  (* a zero FU limit must be refused at decode, never reach a pool
     worker, and leave the daemon serving *)
  with_server (fun endpoint _server ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          ignore (Client.request client (Protocol.Ping { delay_ms = 0 })));
      raw_connection endpoint (fun fd ->
          Protocol.write_frame_fd fd
            (Hello { protocol = Protocol.version; software = "t"; node = "" });
          ignore (Protocol.read_frame_fd fd);
          let fu = { Ddg_paragraph.Config.unlimited_fu with total = Some 0 } in
          Protocol.write_frame_fd fd
            (Request
               { deadline_ms = 0; attempt = 0;
                 request =
                   Analyze
                     { workload = "mtxx";
                       config = Ddg_paragraph.Config.(with_fu fu default) } });
          match Protocol.read_frame_fd fd with
          | Protocol.Error_response { code = Protocol.Bad_frame; _ } -> ()
          | _ -> Alcotest.fail "expected a Bad_frame error frame");
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          match Client.request client (Protocol.Ping { delay_ms = 0 }) with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong after a rejected config"))

let test_protocol_version_mismatch () =
  with_server (fun endpoint _server ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          ignore (Client.request client (Protocol.Ping { delay_ms = 0 })));
      raw_connection endpoint (fun fd ->
          Protocol.write_frame_fd fd
            (Hello
               { protocol = Protocol.version + 1; software = "future";
                 node = "" });
          match Protocol.read_frame_fd fd with
          | Protocol.Error_response { code = Protocol.Unsupported_version; _ }
            -> ()
          | _ -> Alcotest.fail "expected Unsupported_version"))

let test_survives_disconnect_mid_request () =
  with_server (fun endpoint _server ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          ignore (Client.request client (Protocol.Ping { delay_ms = 0 })));
      raw_connection endpoint (fun fd ->
          Protocol.write_frame_fd fd
            (Hello { protocol = Protocol.version; software = "t"; node = "" });
          Protocol.write_frame_fd fd
            (Request
               { deadline_ms = 0; attempt = 0; request = Ping { delay_ms = 300 } })
          (* hang up without reading the response *));
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          match Client.request client (Protocol.Ping { delay_ms = 0 }) with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong after abrupt disconnect"))

let test_shutdown_verb_drains () =
  let socket = fresh_socket () in
  let runner = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
  let server =
    Server.create ~runner ~workers:2 ~max_inflight:8 [ `Unix socket ]
  in
  let thread = Thread.create Server.run server in
  let client = Client.connect ~retry_for_s:5.0 (`Unix socket) in
  (match Client.request client Protocol.Shutdown with
  | Protocol.Shutting_down_ack -> ()
  | _ -> Alcotest.fail "expected Shutting_down_ack");
  Client.close client;
  (* run returns only after the drain completes and the socket file is
     removed *)
  Thread.join thread;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists socket)

let test_outcome_counters_partition_requests () =
  (* regression: Busy and Deadline_exceeded used to be double-counted
     into requests_error, breaking the partition. Provoke all four
     outcomes, quiesce, and check the identity — the counters are
     process-global (the obs registry outlives each server), so the
     invariant must hold over the accumulated totals too. *)
  with_server ~workers:1 ~max_inflight:1 (fun endpoint _server ->
      let client = connect endpoint in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* ok *)
          (match Client.request client (Protocol.Ping { delay_ms = 0 }) with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          (* error: unknown workload *)
          (match
             Client.request client
               (Protocol.Analyze
                  { workload = "no_such_workload";
                    config = Ddg_paragraph.Config.default })
           with
          | (_ : Protocol.response) ->
              Alcotest.fail "unknown workload was served"
          | exception Client.Server_error _ -> ());
          (* deadline *)
          (match
             Client.request ~deadline_ms:50 client
               (Protocol.Ping { delay_ms = 500 })
           with
          | (_ : Protocol.response) ->
              Alcotest.fail "slow ping beat a 50ms deadline"
          | exception
              Client.Server_error { code = Protocol.Deadline_exceeded; _ } ->
              ()));
      (* the expired ping's worker still occupies the single slot for up
         to 500ms; let it drain so the blocker below is what saturates *)
      Thread.delay 0.6;
      (* busy: saturate the single slot from a second connection. The
         blocker holds the slot for 2s so the prober is guaranteed to
         collide with it even when a loaded single-core box schedules
         the two threads unkindly — and the blocker itself retries on
         Busy, because a prober ping can own the slot for an instant
         just as the blocker's request lands *)
      let blocker =
        Thread.create
          (fun () ->
            Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
                let rec hold () =
                  match
                    Client.request client (Protocol.Ping { delay_ms = 2000 })
                  with
                  | (_ : Protocol.response) -> ()
                  | exception Client.Server_error { code = Protocol.Busy; _ }
                    ->
                      Thread.delay 0.01;
                      hold ()
                in
                hold ()))
          ()
      in
      let saw_busy = ref false in
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          let attempts = ref 0 in
          while (not !saw_busy) && !attempts < 400 do
            incr attempts;
            match Client.request client (Protocol.Ping { delay_ms = 0 }) with
            | (_ : Protocol.response) -> Thread.delay 0.005
            | exception Client.Server_error { code = Protocol.Busy; _ } ->
                saw_busy := true
          done);
      Thread.join blocker;
      Alcotest.(check bool) "saw Busy" true !saw_busy;
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          let c = counters client in
          Alcotest.(check bool) "every outcome provoked" true
            (c.Protocol.requests_ok > 0
            && c.Protocol.requests_error > 0
            && c.Protocol.busy_rejections > 0
            && c.Protocol.deadline_expirations > 0);
          Alcotest.(check int) "total = ok + error + busy + deadline"
            c.Protocol.requests_total
            (c.Protocol.requests_ok + c.Protocol.requests_error
            + c.Protocol.busy_rejections + c.Protocol.deadline_expirations)))

let test_every_verb_has_a_series () =
  with_server (fun _ _ ->
      let snapshot = Ddg_obs.Obs.snapshot () in
      List.iter
        (fun verb ->
          Alcotest.(check bool)
            (verb ^ " has a request counter series") true
            (List.exists
               (fun (c : Ddg_obs.Obs.counter_snapshot) ->
                 c.Ddg_obs.Obs.cs_name = "ddg_server_requests_verb_total"
                 && c.cs_labels = [ ("verb", verb) ])
               snapshot.Ddg_obs.Obs.counters))
        Protocol.verbs)

let test_pull_needs_a_cluster () =
  with_server (fun endpoint _ ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          match
            Client.request client
              (Protocol.Pull
                 { kind = "trace"; key = "mtxx/tiny"; source = "node0" })
          with
          | _ -> Alcotest.fail "expected a typed refusal"
          | exception Client.Server_error { code = Protocol.Internal; _ } ->
              ()))

let test_trace_lru_evicts () =
  (* daemon-facing runner knob: a 1-byte budget forces every workload's
     trace past the budget, so loading a second evicts the first while
     the just-loaded one stays resident *)
  let runner =
    Runner.create ~size:Ddg_workloads.Workload.Tiny ~trace_budget:1 ()
  in
  ignore (Runner.trace runner (workload "mtxx"));
  ignore (Runner.trace runner (workload "eqnx"));
  let c = Runner.counters runner in
  Alcotest.(check int) "evictions" 1 c.Runner.trace_evictions;
  Alcotest.(check int) "simulations" 2 c.Runner.simulations;
  (* the surviving trace still serves from memory *)
  ignore (Runner.trace runner (workload "eqnx"));
  let c = Runner.counters runner in
  Alcotest.(check int) "memory hit on survivor" 1 c.Runner.trace_mem_hits;
  Alcotest.(check int) "no new simulation" 2 c.Runner.simulations

let tests =
  [ Alcotest.test_case "handshake and ping" `Quick test_ping_and_handshake;
    Alcotest.test_case "served analysis is bit-identical" `Quick
      test_served_analysis_bit_identical;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "warm repeat does zero work" `Quick
      test_warm_repeat_does_no_work;
    Alcotest.test_case "busy backpressure" `Quick test_busy_backpressure;
    Alcotest.test_case "session retries through busy" `Quick
      test_session_retries_through_busy;
    Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
    Alcotest.test_case "garbage frame gets typed error" `Quick
      test_garbage_gets_bad_frame;
    Alcotest.test_case "out-of-range config gets typed error" `Quick
      test_bad_config_gets_bad_frame;
    Alcotest.test_case "protocol version mismatch refused" `Quick
      test_protocol_version_mismatch;
    Alcotest.test_case "survives disconnect mid-request" `Quick
      test_survives_disconnect_mid_request;
    Alcotest.test_case "shutdown verb drains cleanly" `Quick
      test_shutdown_verb_drains;
    Alcotest.test_case "outcome counters partition requests" `Quick
      test_outcome_counters_partition_requests;
    Alcotest.test_case "every verb has a request series" `Quick
      test_every_verb_has_a_series;
    Alcotest.test_case "pull is refused outside a cluster" `Quick
      test_pull_needs_a_cluster;
    Alcotest.test_case "trace LRU evicts past budget" `Quick
      test_trace_lru_evicts ]
