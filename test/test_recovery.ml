(* The self-healing fleet end to end, with real forked backends under a
   supervisor: crash respawn with backoff, flap-cap decommission, drain
   without respawn, and a replayable fleet-chaos suite (two fixed seeds)
   that kills every backend at least once under mixed traffic with fault
   sites armed — asserting that no request outlives its deadline budget,
   every successful response is byte-identical to a fault-free run, the
   fleet converges back to all-healthy, per-node fsck is clean, and open
   fds return to baseline.

   This is a separate test binary because the supervisor forks its
   single-threaded spawner child at creation: every context is built at
   the top of the main function, before Alcotest (or anything else)
   creates a thread, so each fork happens from a single-threaded
   process. The spawner children idle on a pipe until their test runs. *)

module Protocol = Ddg_protocol.Protocol
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Store = Ddg_store.Store
module Fault = Ddg_fault.Fault
module Config = Ddg_paragraph.Config
module Ring = Ddg_cluster.Ring
module Router = Ddg_cluster.Router
module Fleet = Ddg_cluster.Fleet

let tiny = Ddg_workloads.Workload.Tiny

(* --- scratch dirs / polling --------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_base name =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg_recovery_%d_%s" (Unix.getpid ()) name)
  in
  if Sys.file_exists path then rm_rf path;
  Unix.mkdir path 0o755;
  path

let open_fd_count () =
  if Sys.file_exists "/proc/self/fd" then begin
    Gc.full_major ();
    Gc.full_major ();
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  end
  else None

let poll_until ?(timeout_s = 20.0) what pred =
  let give_up = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () >= give_up then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* --- contexts: supervisor forked before any thread exists ---------------------- *)

type ctx = { base : string; members : Fleet.member list; sup : Fleet.supervisor }

(* faults armed *inside the spawner child* are inherited by every
   backend it forks: each (re)spawned daemon gets its own deterministic
   per-process fault state, the production cluster shape *)
let make_ctx ?(nodes = 3) ?(flap_max = 50) ?(backoff_base_s = 0.05)
    ?backend_faults name =
  let base = fresh_base name in
  let members =
    Fleet.members ~nodes
      ~base_socket:(Filename.concat base "b.sock")
      ~base_store:(Filename.concat base "stores")
  in
  let sup =
    Fleet.supervisor ~backoff_base_s ~backoff_max_s:0.5 ~flap_window_s:10.0
      ~flap_max
      ~spawn:(fun self ->
        (match backend_faults with
        | Some (seed, sites) -> Fault.enable ~seed ~sites
        | None -> ());
        Fleet.fork_backend ~size:tiny ~workers:1 ~scrub_rate:200.0 ~members
          ~self ())
      ~members ()
  in
  { base; members; sup }

let backend_chaos_sites =
  (* backend-side chaos: fetch-through skips and corrupt transfers (the
     digest check must reject them); both degrade to local recompute *)
  let site p b = { Fault.probability = p; budget = Some b } in
  [ ("cluster.forward.fail", site 0.2 3); ("cluster.fetch.corrupt", site 0.2 3) ]

(* --- fleet plumbing ------------------------------------------------------------ *)

let with_router ctx f =
  List.iter
    (fun (m : Fleet.member) -> Fleet.supervisor_spawn ctx.sup m.Fleet.node)
    ctx.members;
  let endpoint = `Unix (Filename.concat ctx.base "router.sock") in
  let router =
    Router.create ~size:tiny ~retry_for_s:2.0 ~connect_timeout_s:0.5
      ~health_interval_s:0.1 ~failure_threshold:2 ~cooldown_s:0.3
      ~on_retire:(Fleet.supervisor_decommissioned ctx.sup)
      ~backends:
        (List.map
           (fun (m : Fleet.member) -> (m.Fleet.node, m.Fleet.endpoint))
           ctx.members)
      [ endpoint ]
  in
  let thread = Thread.create Router.run router in
  Fleet.supervisor_watch ctx.sup ~on_decommission:(fun node ->
      ignore (Router.decommission router ~node));
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Thread.join thread;
      Fleet.supervisor_stop ctx.sup)
    (fun () -> f router endpoint)

let fsck_clean ctx =
  List.iter
    (fun (m : Fleet.member) ->
      let r = Store.fsck (Store.open_ ~dir:m.Fleet.store_dir ()) in
      Alcotest.(check int)
        (m.Fleet.node ^ " store clean")
        0
        (r.Store.quarantined + r.Store.missing))
    ctx.members

let check_fds_settle = function
  | None -> ()
  | Some before ->
      let give_up = Unix.gettimeofday () +. 5.0 in
      let rec settled () =
        match open_fd_count () with
        | Some after when after > before && Unix.gettimeofday () < give_up ->
            Thread.delay 0.02;
            settled ()
        | after -> after
      in
      (match settled () with
      | Some after ->
          Alcotest.(check bool)
            (Printf.sprintf "open fds return to baseline (%d -> %d)" before
               after)
            true (after <= before)
      | None -> ())

(* --- mixed traffic -------------------------------------------------------------- *)

let script =
  [ Protocol.Ping { delay_ms = 0 };
    Analyze { workload = "mtxx"; config = Config.default };
    Analyze
      { workload = "eqnx";
        config =
          { Config.default with
            renaming = Config.rename_registers_only;
            window = Some 64 } };
    Simulate { workload = "xlispx" };
    Analyze { workload = "mtxx"; config = Config.default } ]

let deadline_ms = 30_000

let run_script ~seed endpoint =
  let retry =
    { Client.attempts = 60; base_delay_s = 0.01; max_delay_s = 0.1; seed }
  in
  Client.with_session ~retry ~retry_for_s:5.0 ~connect_timeout_s:0.5 endpoint
    (fun s ->
      List.map
        (fun req ->
          let t0 = Unix.gettimeofday () in
          let frame =
            Protocol.frame_to_string
              (Protocol.Ok_response (Client.call ~deadline_ms s req))
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          (* zero requests hang past their deadline budget: the retry
             layer is clipped by the request deadline, so even a call
             that rode out kills and respawns lands inside it *)
          if elapsed > (float_of_int deadline_ms /. 1000.) +. 2.0 then
            Alcotest.failf "%s overran its deadline budget: %.1fs"
              (Protocol.verb_name req) elapsed;
          frame)
        script)

(* the fault-free reference responses every chaos round must reproduce
   byte for byte; filled by the first test *)
let reference = ref []

let require_reference () =
  if !reference = [] then Alcotest.fail "reference test did not run first"

(* --- tests ---------------------------------------------------------------------- *)

let test_reference ctx () =
  with_router ctx (fun _router endpoint ->
      reference := run_script ~seed:1 endpoint;
      Alcotest.(check int) "five responses" 5 (List.length !reference);
      (* a warm second pass serves byte-identically from the stores *)
      Alcotest.(check (list string))
        "warm serve byte-identical" !reference (run_script ~seed:2 endpoint));
  fsck_clean ctx;
  rm_rf ctx.base

let parent_chaos_sites =
  (* router/client-side chaos: dropped relays, short transfers, EINTR,
     connection drops, plus the watcher's own backend-killing site *)
  let site p b = { Fault.probability = p; budget = Some b } in
  [ ("cluster.backend.drop", site 0.1 3);
    ("cluster.backend.kill", site 0.03 3);
    ("proto.read.eintr", site 0.1 50);
    ("proto.write.short", site 0.2 100);
    ("proto.conn.drop", site 0.02 2) ]

let test_chaos seed ctx () =
  require_reference ();
  let fds_before = open_fd_count () in
  with_router ctx (fun router endpoint ->
      Fun.protect ~finally:Fault.disable (fun () ->
          Fault.enable ~seed ~sites:parent_chaos_sites;
          (* six rounds of mixed traffic; every backend is killed at
             least once mid-stream (the armed kill site adds more) *)
          for round = 1 to 6 do
            (match round with
            | 2 -> Fleet.supervisor_kill ctx.sup "node0"
            | 4 -> Fleet.supervisor_kill ctx.sup "node1"
            | 6 -> Fleet.supervisor_kill ctx.sup "node2"
            | _ -> ());
            List.iteri
              (fun i (want, got) ->
                Alcotest.(check string)
                  (Printf.sprintf "round %d response %d byte-identical under \
                                   chaos"
                     round i)
                  want got)
              (List.combine !reference (run_script ~seed:(seed + round) endpoint))
          done;
          Fault.disable ();
          (* convergence: every kill respawned, every node answers *)
          poll_until "fleet all-healthy" (fun () ->
              List.for_all
                (fun (_, st) ->
                  match st with `Running _ -> true | _ -> false)
                (Fleet.supervisor_status ctx.sup)
              && List.for_all
                   (fun (m : Fleet.member) ->
                     match
                       Client.with_connection ~connect_timeout_s:0.3
                         m.Fleet.endpoint (fun c ->
                           Client.request ~deadline_ms:1000 c
                             (Protocol.Ping { delay_ms = 0 }))
                     with
                     | Protocol.Pong -> true
                     | _ -> false
                     | exception _ -> false)
                   ctx.members);
          Alcotest.(check bool) "every explicit kill respawned" true
            (Fleet.supervisor_respawns ctx.sup >= 3);
          Alcotest.(check int) "no node was decommissioned" 3
            (List.length (Router.members router));
          (* the converged fleet serves warm and byte-identical *)
          Alcotest.(check (list string))
            "converged serve byte-identical" !reference
            (run_script ~seed:(seed + 99) endpoint)));
  fsck_clean ctx;
  check_fds_settle fds_before;
  rm_rf ctx.base

let test_drain_mid_load ctx () =
  require_reference ();
  with_router ctx (fun _router endpoint ->
      let analyze_mtxx s =
        match
          Client.call ~deadline_ms s
            (Protocol.Analyze { workload = "mtxx"; config = Config.default })
        with
        | Protocol.Analyzed stats -> Ddg_paragraph.Stats_codec.to_string stats
        | _ -> Alcotest.fail "expected Analyzed"
      in
      let warm =
        Client.with_session ~retry_for_s:5.0 endpoint analyze_mtxx
      in
      let owner =
        Ring.owner
          (Ring.create
             (List.map (fun (m : Fleet.member) -> m.Fleet.node)
                ctx.members))
          "mtxx/tiny"
      in
      (* hammer the warm key while its owner is drained out from under
         the load *)
      let stop_load = ref false in
      let served = ref 0 in
      let mismatches = ref 0 in
      let load =
        Thread.create
          (fun () ->
            Client.with_session
              ~retry:
                { Client.attempts = 40; base_delay_s = 0.005;
                  max_delay_s = 0.05; seed = 7 }
              ~retry_for_s:5.0 endpoint
              (fun s ->
                while not !stop_load do
                  match analyze_mtxx s with
                  | bytes ->
                      incr served;
                      if bytes <> warm then incr mismatches
                  | exception Client.Server_error _ ->
                      (* the drain window's typed refusal; the next
                         iteration lands on a survivor *)
                      ()
                done))
          ()
      in
      Thread.delay 0.2;
      (* the client-facing drain verb, through the router *)
      let members_after =
        Client.with_session ~retry_for_s:5.0 endpoint (fun s ->
            match
              Client.call ~deadline_ms:10_000 s
                (Protocol.Decommission { node = owner })
            with
            | Protocol.Members { members } -> List.map fst members
            | _ -> Alcotest.fail "expected Members")
      in
      Thread.delay 0.5;
      stop_load := true;
      Thread.join load;
      Alcotest.(check bool) "owner left the membership" true
        (not (List.mem owner members_after));
      Alcotest.(check int) "two survivors" 2 (List.length members_after);
      Alcotest.(check bool) "the load actually ran" true (!served > 0);
      Alcotest.(check int) "every served response byte-identical" 0
        !mismatches;
      (* a drain is a retirement, not a crash: no respawn, ever *)
      Thread.delay 1.0;
      Alcotest.(check int) "no respawn of the drained node" 0
        (Fleet.supervisor_respawns ctx.sup);
      (match List.assoc owner (Fleet.supervisor_status ctx.sup) with
      | `Decommissioned -> ()
      | `Running _ | `Restarting ->
          Alcotest.fail "drained node was respawned");
      (* the warm key migrated: survivors serve it byte-identically
         without recomputing anything *)
      Client.with_session ~retry_for_s:5.0 endpoint (fun s ->
          Alcotest.(check string) "no warm key lost" warm (analyze_mtxx s));
      (* each forked survivor counts its own simulations *)
      let simulations (m : Fleet.member) =
        Client.with_session ~retry_for_s:5.0 m.Fleet.endpoint (fun s ->
            match Client.call s Protocol.Metrics with
            | Protocol.Metrics_snapshot snap ->
                List.fold_left
                  (fun acc (h : Ddg_obs.Obs.hist_snapshot) ->
                    if h.hs_name = "ddg_runner_simulate_ns" then
                      acc + h.hs_count
                    else acc)
                  0 snap.histograms
            | _ -> Alcotest.fail "expected Metrics_snapshot")
      in
      Alcotest.(check int) "survivors never re-simulated" 0
        (List.fold_left
           (fun acc (m : Fleet.member) ->
             if List.mem m.Fleet.node members_after then acc + simulations m
             else acc)
           0 ctx.members));
  fsck_clean ctx;
  rm_rf ctx.base

let test_flap_decommission ctx () =
  with_router ctx (fun router endpoint ->
      let victim = "node0" in
      let give_up = Unix.gettimeofday () +. 20.0 in
      (* kill the victim every time it comes back until the flap cap
         (2 deaths in 10 s here) retires it *)
      let rec churn () =
        if Unix.gettimeofday () > give_up then
          Alcotest.fail "flap cap never tripped";
        match List.assoc victim (Fleet.supervisor_status ctx.sup) with
        | `Decommissioned -> ()
        | `Running _ ->
            Fleet.supervisor_kill ctx.sup victim;
            Thread.delay 0.05;
            churn ()
        | `Restarting ->
            Thread.delay 0.02;
            churn ()
      in
      churn ();
      Alcotest.(check bool) "it was respawned before the cap tripped" true
        (Fleet.supervisor_respawns ctx.sup >= 1);
      (* the decommission flowed into the router: the ring dropped the
         flapping node and the survivors keep serving *)
      poll_until ~timeout_s:5.0 "router dropped the flapping node" (fun () ->
          not (List.mem_assoc victim (Router.members router)));
      Client.with_session ~retry_for_s:5.0 endpoint (fun s ->
          match
            Client.call ~deadline_ms s
              (Protocol.Analyze { workload = "mtxx"; config = Config.default })
          with
          | Protocol.Analyzed _ -> ()
          | _ -> Alcotest.fail "survivors stopped serving"));
  rm_rf ctx.base

(* [list], [--help] and [--version] run no test, so they build no
   context: no scratch directory, no spawner. Otherwise every context is
   built here, before Alcotest runs anything, so each fork still happens
   before the first thread exists. *)
let runs_tests =
  match Array.to_list Sys.argv with
  | _ :: ("list" | "--version") :: _ -> false
  | _ :: arg :: _ -> not (String.starts_with ~prefix:"--help" arg)
  | _ -> true

let () =
  let ctx ?flap_max ?backoff_base_s ?backend_faults name =
    if not runs_tests then None
    else Some (make_ctx ?flap_max ?backoff_base_s ?backend_faults name)
  in
  let case name ctx test =
    Alcotest.test_case name `Quick (fun () -> test (Option.get ctx) ())
  in
  let ref_ = ctx "ref" in
  let chaos_a = ctx "chaosa" ~backend_faults:(4101, backend_chaos_sites) in
  let chaos_b = ctx "chaosb" ~backend_faults:(4202, backend_chaos_sites) in
  let drain = ctx "drain" in
  let flap = ctx "flap" ~flap_max:2 ~backoff_base_s:0.02 in
  Alcotest.run "ddg-recovery"
    [ ( "recovery",
        [ case "fault-free supervised fleet (reference)" ref_ test_reference;
          case "fleet chaos seed 4101: kill every backend" chaos_a
            (test_chaos 4101);
          case "fleet chaos seed 4202: kill every backend" chaos_b
            (test_chaos 4202);
          case "decommission mid-load loses no warm key" drain
            test_drain_mid_load;
          case "a flapping backend is retired, not respawned" flap
            test_flap_decommission ] ) ]
