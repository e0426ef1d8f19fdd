(* Chaos suite: a full daemon (server + store + worker pool) driven
   end-to-end while the fault injector fires on every layer — torn and
   failed store writes, bit rot under reads, EINTR and 1-byte transfers
   on the wire, dropped connections, worker-domain crashes and failed
   accepts. Under a fixed seed the run must terminate, leak no file
   descriptors, keep the pool at full strength, and produce responses
   bit-identical to a fault-free run. *)

module Protocol = Ddg_protocol.Protocol
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Runner = Ddg_experiments.Runner
module Store = Ddg_store.Store
module Fault = Ddg_fault.Fault
module Config = Ddg_paragraph.Config

(* --- scratch dirs / sockets ------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir () =
  let path = Filename.temp_file "ddg_chaos" "" in
  Sys.remove path;
  path

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg_chaos_%d_%d.sock" (Unix.getpid ()) !n)

let open_fd_count () =
  if Sys.file_exists "/proc/self/fd" then begin
    (* finalize dropped channels from earlier suites first, so their
       lazily-GC'd fds cannot skew the measurement; twice because
       finalizers can resurrect-and-release across one cycle *)
    Gc.full_major ();
    Gc.full_major ();
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  end
  else None

(* --- one daemon over one store ----------------------------------------------- *)

let with_daemon ~dir f =
  let socket = fresh_socket () in
  let runner =
    Runner.create ~size:Ddg_workloads.Workload.Tiny
      ~store:(Store.open_ ~dir ()) ()
  in
  let server =
    Server.create ~runner ~workers:2 ~max_inflight:8 ~default_deadline_s:30.0
      [ `Unix socket ]
  in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () -> f (`Unix socket))

(* --- the scripted workload ---------------------------------------------------- *)

let config64 =
  { Config.default with
    renaming = Config.rename_registers_only;
    window = Some 64 }

(* deterministic verbs only: Metrics (timing series) and Shutdown are
   exercised separately *)
let script =
  [ Protocol.Ping { delay_ms = 0 };
    Analyze { workload = "mtxx"; config = Config.default };
    Analyze { workload = "eqnx"; config = config64 };
    Simulate { workload = "xlispx" };
    Table { name = "table3" };
    Analyze { workload = "mtxx"; config = Config.default };
    Simulate { workload = "xlispx" } ]

let run_script ~seed endpoint =
  let retry =
    { Client.attempts = 40; base_delay_s = 0.005; max_delay_s = 0.05; seed }
  in
  Client.with_session ~retry ~retry_for_s:5.0 endpoint (fun s ->
      List.map
        (fun req ->
          Protocol.frame_to_string
            (Protocol.Ok_response (Client.call ~deadline_ms:20_000 s req)))
        script)

(* every layer armed, each destructive site on a bounded budget so the
   tail of the run always converges *)
let chaos_sites =
  let site p budget = { Fault.probability = p; budget = Some budget } in
  [ ("store.put.enospc", site 0.05 2);
    ("store.put.torn", site 0.1 2);
    ("store.find.bitflip", site 0.1 3);
    ("proto.read.eintr", site 0.1 50);
    ("proto.write.eintr", site 0.1 50);
    ("proto.read.short", site 0.3 200);
    ("proto.write.short", site 0.3 200);
    ("proto.conn.drop", site 0.03 3);
    ("jobs.worker.crash", site 0.2 2);
    ("server.accept.fail", site 0.2 2) ]

(* the answering daemon sets its worker-respawn gauge from its own pool
   just before it snapshots; a standalone daemon's gauge is unlabelled *)
let respawns_of endpoint =
  Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
      match Client.request client Protocol.Metrics with
      | Protocol.Metrics_snapshot s -> (
          match
            List.find_opt
              (fun (g : Ddg_obs.Obs.counter_snapshot) ->
                g.cs_name = "ddg_server_worker_respawns" && g.cs_labels = [])
              s.gauges
          with
          | Some g -> g.cs_value
          | None -> Alcotest.fail "no worker-respawn gauge")
      | _ -> Alcotest.fail "expected Metrics_snapshot")

let chaos_run seed () =
  Fault.disable ();
  let baseline_dir = fresh_dir () and chaos_dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      List.iter
        (fun d -> if Sys.file_exists d then rm_rf d)
        [ baseline_dir; chaos_dir ])
    (fun () ->
      (* fault-free reference run; also warms up every lazy allocation
         so the fd measurement below is stable *)
      let expected =
        with_daemon ~dir:baseline_dir (fun ep -> run_script ~seed ep)
      in
      let fds_before = open_fd_count () in
      let started = Unix.gettimeofday () in
      let actual, crashes, respawns_seen =
        with_daemon ~dir:chaos_dir (fun ep ->
            Fun.protect ~finally:Fault.disable (fun () ->
                Fault.enable ~seed ~sites:chaos_sites;
                let actual = run_script ~seed ep in
                Fault.disable ();
                (* counters stay readable after disable *)
                let crashes = Fault.injected_at "jobs.worker.crash" in
                (* the dying domain bumps the respawn counter just after
                   failing its ticket: give the supervisor a moment *)
                let rec settle give_up =
                  let respawns = respawns_of ep in
                  if respawns >= crashes || Unix.gettimeofday () > give_up
                  then respawns
                  else begin
                    Thread.delay 0.01;
                    settle give_up
                  end
                in
                (actual, crashes, settle (Unix.gettimeofday () +. 5.0))))
      in
      let elapsed = Unix.gettimeofday () -. started in
      (* terminated, and well inside any reasonable deadline *)
      Alcotest.(check bool)
        (Printf.sprintf "finished in %.1fs" elapsed)
        true (elapsed < 60.0);
      (* bit-identical service under faults *)
      List.iteri
        (fun i (want, got) ->
          Alcotest.(check string)
            (Printf.sprintf "response %d bit-identical" i)
            want got)
        (List.combine expected actual);
      (* every crashed worker was replaced; the pool never shrank *)
      Alcotest.(check int) "one respawn per injected crash" crashes
        respawns_seen;
      (* the chaos schedule actually exercised something *)
      Alcotest.(check bool) "faults were injected" true (Fault.injected () > 0);
      (* no fd leaked across the entire daemon lifecycle; give detached
         teardown (handler threads, pool pipes) a moment to finish *)
      (match fds_before with
      | None -> ()
      | Some before ->
          let give_up = Unix.gettimeofday () +. 5.0 in
          let rec settled () =
            match open_fd_count () with
            | Some after when after > before && Unix.gettimeofday () < give_up
              ->
                Thread.delay 0.02;
                settled ()
            | after -> after
          in
          (match settled () with
          | Some after ->
              Alcotest.(check bool)
                (Printf.sprintf "open fds return to baseline (%d -> %d)"
                   before after)
                true (after <= before)
          | None -> ()));
      (* the store is recoverable: one fsck pass sweeps any torn
         artifacts the run left behind, after which it is clean *)
      let store = Store.open_ ~dir:chaos_dir () in
      let (_ : Store.fsck_report) = Store.fsck store in
      let second = Store.fsck store in
      Alcotest.(check int) "store clean after fsck" 0
        (second.Store.quarantined + second.Store.missing))

let tests =
  [ Alcotest.test_case "daemon e2e under fault seed 1001" `Slow
      (chaos_run 1001);
    Alcotest.test_case "daemon e2e under fault seed 2002" `Slow
      (chaos_run 2002) ]
