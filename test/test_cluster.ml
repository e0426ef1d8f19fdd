(* Cluster mode end to end: the consistent-hash ring's determinism,
   balance and minimal-remap properties (qcheck), metric federation
   exactness, fetch-through replication between live backends, the
   router's failover when a backend dies mid-run, and a chaos pass with
   the router-level fault sites armed. Backends here run in-process on
   threads — same wire protocol as the forked production shape, with
   the one caveat that all nodes share the process-global obs registry
   (so federation exactness is asserted on synthetic snapshots, and
   e2e federation is asserted on validity, per-node gauges and
   per-runner counters). *)

module Protocol = Ddg_protocol.Protocol
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Runner = Ddg_experiments.Runner
module Store = Ddg_store.Store
module Fault = Ddg_fault.Fault
module Config = Ddg_paragraph.Config
module Obs = Ddg_obs.Obs
module Ring = Ddg_cluster.Ring
module Route = Ddg_cluster.Route
module Federate = Ddg_cluster.Federate
module Router = Ddg_cluster.Router
module Fleet = Ddg_cluster.Fleet
module Metrics = Ddg_server.Metrics

let tiny = Ddg_workloads.Workload.Tiny

(* --- scratch dirs / sockets ------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir () =
  let path = Filename.temp_file "ddg_cluster" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg_cluster_%d_%d" (Unix.getpid ()) !n)

let open_fd_count () =
  if Sys.file_exists "/proc/self/fd" then begin
    Gc.full_major ();
    Gc.full_major ();
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  end
  else None

(* --- ring units -------------------------------------------------------------- *)

let test_ring_deterministic () =
  let ring1 = Ring.create [ "a"; "b"; "c" ] in
  let ring2 = Ring.create [ "c"; "a"; "b" ] in
  let keys = List.init 200 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun k ->
      Alcotest.(check string)
        (Printf.sprintf "owner of %s independent of member order" k)
        (Ring.owner ring1 k) (Ring.owner ring2 k))
    keys;
  Alcotest.(check (list string))
    "members sorted" [ "a"; "b"; "c" ] (Ring.nodes ring1)

let test_ring_successors () =
  let ring = Ring.create [ "a"; "b"; "c"; "d" ] in
  List.iter
    (fun k ->
      let succ = Ring.successors ring k in
      Alcotest.(check string)
        "successors start at the owner" (Ring.owner ring k) (List.hd succ);
      Alcotest.(check (list string))
        "successors cover every node once"
        (Ring.nodes ring)
        (List.sort compare succ))
    (List.init 50 (fun i -> Printf.sprintf "k%d" i))

let test_ring_add_remove () =
  let ring = Ring.create [ "a"; "b" ] in
  Alcotest.(check (list string))
    "add is functional" [ "a"; "b"; "c" ]
    (Ring.nodes (Ring.add ring "c"));
  Alcotest.(check (list string))
    "original unchanged" [ "a"; "b" ] (Ring.nodes ring);
  Alcotest.(check (list string))
    "adding a member is the identity" [ "a"; "b" ]
    (Ring.nodes (Ring.add ring "a"));
  Alcotest.check_raises "removing the last node raises"
    (Invalid_argument "Ring.remove: cannot remove the last node") (fun () ->
      ignore (Ring.remove (Ring.create [ "solo" ]) "solo"));
  Alcotest.check_raises "empty ring raises"
    (Invalid_argument "Ring.create: no nodes") (fun () ->
      ignore (Ring.create []))

(* --- ring properties (qcheck) ------------------------------------------------ *)

let gen_nodes =
  QCheck.Gen.(
    map
      (fun n -> List.init n (fun i -> Printf.sprintf "node%d" i))
      (int_range 2 8))

let arb_nodes =
  QCheck.make gen_nodes ~print:(String.concat ",")

let many_keys = List.init 4096 (fun i -> Printf.sprintf "workload-%d/size" i)

let prop_ring_balanced =
  QCheck.Test.make ~name:"64+ vnodes keep load within 2x of fair share"
    ~count:30 arb_nodes (fun nodes ->
      let ring = Ring.create ~vnodes:64 nodes in
      let tally = Hashtbl.create 8 in
      List.iter
        (fun k ->
          let o = Ring.owner ring k in
          Hashtbl.replace tally o (1 + Option.value ~default:0 (Hashtbl.find_opt tally o)))
        many_keys;
      let fair = float_of_int (List.length many_keys) /. float_of_int (List.length nodes) in
      List.for_all
        (fun n ->
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally n))
          <= 2.0 *. fair)
        nodes)

let prop_ring_minimal_remap_remove =
  QCheck.Test.make
    ~name:"removing a node never moves a key between survivors" ~count:30
    arb_nodes (fun nodes ->
      QCheck.assume (List.length nodes >= 2);
      let ring = Ring.create nodes in
      let gone = List.nth nodes (List.length nodes / 2) in
      let smaller = Ring.remove ring gone in
      List.for_all
        (fun k ->
          let before = Ring.owner ring k in
          let after = Ring.owner smaller k in
          if before = gone then after <> gone (* must move somewhere *)
          else after = before (* survivors keep their keys *))
        many_keys)

let prop_ring_minimal_remap_add =
  QCheck.Test.make ~name:"adding a node only moves keys onto it" ~count:30
    arb_nodes (fun nodes ->
      let ring = Ring.create nodes in
      let bigger = Ring.add ring "joiner" in
      List.for_all
        (fun k ->
          let before = Ring.owner ring k in
          let after = Ring.owner bigger k in
          after = before || after = "joiner")
        many_keys)

(* --- routing keys ------------------------------------------------------------- *)

let test_routing_keys () =
  Alcotest.(check string)
    "store key truncates to workload/size" "mtxx/tiny"
    (Route.of_store_key "mtxx/tiny/ddg-v1/sim-v3/deadbeef");
  Alcotest.(check string)
    "short keys pass through" "mtxx" (Route.of_store_key "mtxx");
  (let req =
     Protocol.Analyze { workload = "mtxx"; config = Config.default }
   in
   Alcotest.(check (option string))
     "analyze routes by workload/size" (Some "mtxx/tiny")
     (Route.of_request ~size:tiny req));
  Alcotest.(check (option string))
    "ping has no key" None
    (Route.of_request ~size:tiny (Protocol.Ping { delay_ms = 0 }));
  (* the invariant fetch-through relies on: a runner's store keys route
     exactly where the request routed *)
  let runner = Runner.create ~size:tiny () in
  let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
  Alcotest.(check (option string))
    "trace store key routes with the analyze verb"
    (Some (Route.of_store_key (Runner.trace_key runner w)))
    (Route.of_request ~size:tiny
       (Protocol.Analyze { workload = "mtxx"; config = Config.default }))

(* --- federation --------------------------------------------------------------- *)

let test_federate_merge () =
  let c name labels v =
    { Obs.cs_name = name; cs_labels = labels; cs_value = v }
  in
  let snap_a =
    { Obs.counters =
        [ c "ddg_a_total" [] 3;
          c "ddg_shared_total" [ ("verb", "ping") ] 10 ];
      histograms =
        [ Obs.hist_of_samples ~name:"ddg_lat_ns" [ 1; 2; 3 ] ];
      gauges = [] }
  in
  let snap_b =
    { Obs.counters =
        [ c "ddg_b_total" [] 4;
          c "ddg_shared_total" [ ("verb", "ping") ] 32 ];
      histograms =
        [ Obs.hist_of_samples ~name:"ddg_lat_ns" [ 10; 20 ] ];
      gauges = [] }
  in
  let merged = Federate.merge_snapshots [ snap_a; snap_b ] in
  let value name =
    List.fold_left
      (fun acc (cs : Obs.counter_snapshot) ->
        if cs.Obs.cs_name = name then acc + cs.cs_value else acc)
      0 merged.Obs.counters
  in
  Alcotest.(check int) "same-series counters sum" 42 (value "ddg_shared_total");
  Alcotest.(check int) "unique series pass through (a)" 3 (value "ddg_a_total");
  Alcotest.(check int) "unique series pass through (b)" 4 (value "ddg_b_total");
  (match merged.Obs.histograms with
  | [ h ] ->
      Alcotest.(check int) "histograms merge counts" 5 h.Obs.hs_count;
      Alcotest.(check int) "histograms merge sums" 36 h.Obs.hs_sum;
      Alcotest.(check int) "histograms merge max" 20 h.Obs.hs_max
  | hs -> Alcotest.failf "expected 1 merged histogram, got %d" (List.length hs));
  (* the merged snapshot must render as one valid exposition *)
  (match Obs.validate_exposition (Obs.prometheus_of_snapshot merged) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid merged exposition: %s" msg);
  (* merging is order-independent *)
  Alcotest.(check bool) "commutative" true
    (Federate.merge_snapshots [ snap_b; snap_a ] = merged);
  (* and the empty list is the empty snapshot *)
  Alcotest.(check bool) "empty" true
    (Federate.merge_snapshots []
    = { Obs.counters = []; histograms = []; gauges = [] })

(* a cluster member labels its gauges with its node id, so federation
   keeps one series per node, and [client stats] takes the largest
   uptime; a gauge two snapshots share sums like a counter *)
let test_federate_node_gauges () =
  let g name labels v = { Obs.cs_name = name; cs_labels = labels; cs_value = v } in
  let member id uptime_s =
    { Obs.counters = []; histograms = [];
      gauges =
        [ g "ddg_server_trace_resident_bytes" [] 2;
          g "ddg_server_uptime_ns" [ ("node", id) ] (uptime_s * 1_000_000_000) ]
    }
  in
  let merged =
    Federate.merge_snapshots
      [ member "node1" 30; member "node0" 20;
        { Obs.counters = []; histograms = []; gauges = [] } ]
  in
  Alcotest.(check string) "one series per node"
    "# TYPE ddg_server_trace_resident_bytes gauge\n\
     ddg_server_trace_resident_bytes 4\n\
     # TYPE ddg_server_uptime_ns gauge\n\
     ddg_server_uptime_ns{node=\"node0\"} 20000000000\n\
     ddg_server_uptime_ns{node=\"node1\"} 30000000000\n"
    (Obs.prometheus_of_snapshot merged);
  match Metrics.stats_report ~json:false merged with
  | Ok text ->
      Alcotest.(check string) "the fleet's uptime is the largest"
        "uptime: 30.0s, connections: 0"
        (List.hd (String.split_on_char '\n' text))
  | Error msg -> Alcotest.failf "stats refused: %s" msg

(* --- in-process fleets --------------------------------------------------------- *)

(* [scrubbed] picks the node ids that run a scrub when [scrub_rate] is
   given (default: every node) *)
let with_fleet ?(size = tiny) ?(nodes = 2) ?scrub_rate
    ?(scrubbed = fun _ -> true) ?router f =
  let base = fresh_base () in
  Unix.mkdir base 0o755;
  let members =
    Fleet.members ~nodes
      ~base_socket:(Filename.concat base "backend.sock")
      ~base_store:(Filename.concat base "stores")
  in
  let backends =
    List.map
      (fun (self : Fleet.member) ->
        let scrub_rate =
          if scrubbed self.Fleet.node then scrub_rate else None
        in
        Fleet.backend ?scrub_rate ~size ~members ~self ())
      members
  in
  let threads =
    List.map
      (fun (b : Fleet.backend) -> Thread.create Server.run b.server)
      backends
  in
  let router_t, router_thread =
    match router with
    | None -> (None, None)
    | Some () ->
        let r =
          Router.create ~size ~retry_for_s:2.0 ~connect_timeout_s:0.5
            ~health_interval_s:0.2 ~failure_threshold:2 ~cooldown_s:0.5
            ~backends:
              (List.map
                 (fun (m : Fleet.member) -> (m.Fleet.node, m.Fleet.endpoint))
                 members)
            [ `Unix (Filename.concat base "router.sock") ]
        in
        (Some r, Some (Thread.create Router.run r))
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Router.stop router_t;
      Option.iter Thread.join router_thread;
      List.iter Fleet.stop_backend backends;
      List.iter Thread.join threads;
      rm_rf base)
    (fun () ->
      f ~members ~backends
        ~router_endpoint:(`Unix (Filename.concat base "router.sock")))

let analyze_via endpoint workload =
  Client.with_session ~retry_for_s:5.0 endpoint (fun s ->
      match
        Client.call ~deadline_ms:30_000 s
          (Protocol.Analyze { workload; config = Config.default })
      with
      | Protocol.Analyzed stats -> Ddg_paragraph.Stats_codec.to_string stats
      | _ -> Alcotest.fail "expected Analyzed")

(* The work one member's runner did. In-process nodes share the obs
   registry, so their metrics cannot tell the nodes apart; each
   backend's own runner can. *)
let work_of ~members ~backends node =
  Runner.counters
    (List.assoc node
       (List.map2
          (fun (m : Fleet.member) (b : Fleet.backend) ->
            (m.Fleet.node, b.Fleet.runner))
          members backends))

let test_fetch_through () =
  with_fleet ~nodes:2 (fun ~members ~backends ~router_endpoint:_ ->
      let ring = Ring.create (List.map (fun (m : Fleet.member) -> m.Fleet.node) members) in
      let owner_node = Ring.owner ring "mtxx/tiny" in
      let find node =
        List.find (fun (m : Fleet.member) -> m.Fleet.node = node) members
      in
      let owner = find owner_node in
      let other =
        List.find
          (fun (m : Fleet.member) -> m.Fleet.node <> owner_node)
          members
      in
      (* warm the owner: simulate + analyze land trace and stats in its
         private store *)
      let reference = analyze_via owner.Fleet.endpoint "mtxx" in
      (* the non-owner serves the same key by pulling both artifacts
         from the owner instead of recomputing *)
      let routed = analyze_via other.Fleet.endpoint "mtxx" in
      Alcotest.(check string) "fetch-through result byte-identical" reference
        routed;
      let c = work_of ~members ~backends other.Fleet.node in
      Alcotest.(check int) "non-owner ran no simulation" 0 c.Runner.simulations;
      Alcotest.(check int) "non-owner ran no analysis" 0 c.Runner.analyses;
      (* one fetch: the stats blob alone answers the analyze, so the
         trace is never pulled *)
      Alcotest.(check int) "the stats artifact was fetched from the owner" 1
        c.Runner.remote_fetches;
      (* both stores now hold the artifacts; fsck is clean everywhere *)
      List.iter
        (fun (m : Fleet.member) ->
          let r = Store.fsck (Store.open_ ~dir:m.Fleet.store_dir ()) in
          Alcotest.(check int)
            (m.Fleet.node ^ " store clean")
            0
            (r.Store.quarantined + r.Store.missing))
        members)

let test_router_end_to_end () =
  (* a reference result from a plain non-cluster runner *)
  let reference =
    let runner = Runner.create ~size:tiny () in
    let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
    Ddg_paragraph.Stats_codec.to_string (Runner.analyze runner w Config.default)
  in
  with_fleet ~nodes:3 ~router:() (fun ~members ~backends ~router_endpoint ->
      Client.with_session ~retry_for_s:5.0 router_endpoint (fun s ->
          (* liveness *)
          (match Client.call s (Protocol.Ping { delay_ms = 0 }) with
          | Protocol.Pong -> ()
          | _ -> Alcotest.fail "expected Pong");
          (* locate agrees with a locally built ring *)
          let ring =
            Ring.create
              (List.map (fun (m : Fleet.member) -> m.Fleet.node) members)
          in
          (match Client.call s (Protocol.Locate { key = "mtxx/tiny" }) with
          | Protocol.Located { node } ->
              Alcotest.(check string) "locate agrees with the ring"
                (Ring.owner ring "mtxx/tiny") node
          | _ -> Alcotest.fail "expected Located");
          (* routed analyze matches the plain runner byte for byte *)
          (match
             Client.call ~deadline_ms:30_000 s
               (Protocol.Analyze { workload = "mtxx"; config = Config.default })
           with
          | Protocol.Analyzed stats ->
              Alcotest.(check string) "routed analyze byte-identical"
                reference
                (Ddg_paragraph.Stats_codec.to_string stats)
          | _ -> Alcotest.fail "expected Analyzed");
          (* the fleet counts the work once *)
          let fleet_work f =
            List.fold_left
              (fun acc (m : Fleet.member) ->
                acc + f (work_of ~members ~backends m.Fleet.node))
              0 members
          in
          Alcotest.(check int) "one simulation fleet-wide" 1
            (fleet_work (fun c -> c.Runner.simulations));
          Alcotest.(check int) "one analysis fleet-wide" 1
            (fleet_work (fun c -> c.Runner.analyses));
          (* federated metrics validate as one exposition, keep every
             member's gauges apart and render as [client stats] *)
          (match Client.call s Protocol.Metrics with
          | Protocol.Metrics_snapshot snap -> (
              List.iter
                (fun (m : Fleet.member) ->
                  Alcotest.(check bool)
                    (m.Fleet.node ^ " has its uptime gauge")
                    true
                    (List.exists
                       (fun (g : Obs.counter_snapshot) ->
                         g.Obs.cs_name = "ddg_server_uptime_ns"
                         && g.cs_labels = [ ("node", m.Fleet.node) ])
                       snap.Obs.gauges))
                members;
              (match Metrics.stats_report ~json:false snap with
              | Ok _ -> ()
              | Error msg -> Alcotest.failf "stats refused: %s" msg);
              match
                Obs.validate_exposition (Obs.prometheus_of_snapshot snap)
              with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "invalid federated exposition: %s" msg)
          | _ -> Alcotest.fail "expected Metrics_snapshot");
          (* kill the owner of the warmed key: the router must re-route
             to a surviving successor and still answer byte-identically *)
          let ring =
            Ring.create
              (List.map (fun (m : Fleet.member) -> m.Fleet.node) members)
          in
          let owner_node = Ring.owner ring "mtxx/tiny" in
          List.iteri
            (fun i (m : Fleet.member) ->
              if m.Fleet.node = owner_node then begin
                let b = List.nth backends i in
                Server.stop b.Fleet.server
              end)
            members;
          (match
             Client.call ~deadline_ms:30_000 s
               (Protocol.Analyze { workload = "mtxx"; config = Config.default })
           with
          | Protocol.Analyzed stats ->
              Alcotest.(check string)
                "rerouted analyze still byte-identical" reference
                (Ddg_paragraph.Stats_codec.to_string stats)
          | _ -> Alcotest.fail "expected Analyzed after failover")))

(* --- live membership over the wire ---------------------------------------------- *)

let counter_value ?(labels = []) name =
  List.fold_left
    (fun acc (c : Obs.counter_snapshot) ->
      if c.Obs.cs_name = name && c.cs_labels = labels then acc + c.cs_value
      else acc)
    0 (Obs.snapshot ()).Obs.counters

let test_membership_wire () =
  with_fleet ~nodes:2 ~router:() (fun ~members ~backends ~router_endpoint ->
      let ring =
        Ring.create (List.map (fun (m : Fleet.member) -> m.Fleet.node) members)
      in
      let owner_node = Ring.owner ring "mtxx/tiny" in
      let owner =
        List.find (fun (m : Fleet.member) -> m.Fleet.node = owner_node) members
      in
      let survivor =
        List.find (fun (m : Fleet.member) -> m.Fleet.node <> owner_node)
        members
      in
      Client.with_session ~retry_for_s:5.0 router_endpoint (fun s ->
          (* warm the key on its owner through the router *)
          let reference =
            match
              Client.call ~deadline_ms:30_000 s
                (Protocol.Analyze { workload = "mtxx"; config = Config.default })
            with
            | Protocol.Analyzed stats ->
                Ddg_paragraph.Stats_codec.to_string stats
            | _ -> Alcotest.fail "expected Analyzed"
          in
          (* retire the owner: its keys must migrate to the survivor *)
          (match Client.call s (Protocol.Decommission { node = owner_node }) with
          | Protocol.Members { members } ->
              Alcotest.(check (list string))
                "post-decommission membership" [ survivor.Fleet.node ]
                (List.map fst members)
          | _ -> Alcotest.fail "expected Members");
          (* a replayed decommission is a no-op, not an error *)
          (match Client.call s (Protocol.Decommission { node = owner_node }) with
          | Protocol.Members { members } ->
              Alcotest.(check int) "idempotent" 1 (List.length members)
          | _ -> Alcotest.fail "expected Members");
          (* the stale owner stops serving: its daemon drains and exits *)
          let give_up = Unix.gettimeofday () +. 5.0 in
          let rec wait_dead () =
            match
              Client.with_connection ~connect_timeout_s:0.2
                owner.Fleet.endpoint (fun c ->
                  Client.request ~deadline_ms:500 c
                    (Protocol.Ping { delay_ms = 0 }))
            with
            | _ when Unix.gettimeofday () < give_up ->
                Thread.delay 0.05;
                wait_dead ()
            | _ -> Alcotest.fail "decommissioned backend still serving"
            | exception _ -> ()
          in
          wait_dead ();
          (* the warm key survived the decommission: the survivor serves
             the migrated artifact byte-identically, without recomputing *)
          (match
             Client.call ~deadline_ms:30_000 s
               (Protocol.Analyze { workload = "mtxx"; config = Config.default })
           with
          | Protocol.Analyzed stats ->
              Alcotest.(check string) "no warm key lost" reference
                (Ddg_paragraph.Stats_codec.to_string stats)
          | _ -> Alcotest.fail "expected Analyzed");
          Alcotest.(check int) "survivor never re-simulated" 0
            (work_of ~members ~backends survivor.Fleet.node).Runner.simulations;
          (* retiring the last member leaves an empty fleet serving a
             typed No_backends — Ring.remove's Invalid_argument must not
             escape *)
          (match
             Client.call s (Protocol.Decommission { node = survivor.Fleet.node })
           with
          | Protocol.Members { members } ->
              Alcotest.(check (list (pair string string)))
                "empty fleet" [] members
          | _ -> Alcotest.fail "expected Members");
          (match
             Client.call ~deadline_ms:5000 s
               (Protocol.Analyze { workload = "mtxx"; config = Config.default })
           with
          | _ -> Alcotest.fail "expected No_backends"
          | exception Client.Server_error { code = Protocol.No_backends; _ } ->
              ());
          (match Client.call s (Protocol.Locate { key = "mtxx/tiny" }) with
          | _ -> Alcotest.fail "expected No_backends"
          | exception Client.Server_error { code = Protocol.No_backends; _ } ->
              ());
          (* a join brings the fleet back from empty *)
          (match
             Client.call s
               (Protocol.Join
                  { node = "node9"; endpoint = "unix:/tmp/ddg-node9.sock" })
           with
          | Protocol.Members { members } ->
              Alcotest.(check (list string)) "join from empty" [ "node9" ]
                (List.map fst members)
          | _ -> Alcotest.fail "expected Members");
          (match Client.call s (Protocol.Locate { key = "mtxx/tiny" }) with
          | Protocol.Located { node } ->
              Alcotest.(check string) "locate after rejoin" "node9" node
          | _ -> Alcotest.fail "expected Located");
          (* a malformed join endpoint is a typed refusal *)
          match
            Client.call s
              (Protocol.Join { node = "nodeX"; endpoint = "not-an-endpoint" })
          with
          | _ -> Alcotest.fail "expected Bad_frame"
          | exception Client.Server_error { code = Protocol.Bad_frame; _ } -> ()))

(* A drain must move artifacts of any size: at default size the spicex
   trace (~23 MiB) is over the 16 MiB frame cap, so it only survives
   the drain if the new owner pulls it in ranged slices. *)
let test_drain_moves_large_trace () =
  let size = Ddg_workloads.Workload.Default in
  let spicex = Option.get (Ddg_workloads.Registry.find "spicex") in
  let window64 = { Config.default with window = Some 64 } in
  let reference =
    Ddg_paragraph.Stats_codec.to_string
      (Runner.analyze (Runner.create ~size ()) spicex window64)
  in
  with_fleet ~size ~nodes:2 ~router:()
    (fun ~members ~backends ~router_endpoint ->
      let ring =
        Ring.create (List.map (fun (m : Fleet.member) -> m.Fleet.node) members)
      in
      let owner_node =
        Ring.owner ring
          (Option.get
             (Route.of_request ~size
                (Protocol.Analyze { workload = "spicex"; config = window64 })))
      in
      let survivor =
        List.find (fun (m : Fleet.member) -> m.Fleet.node <> owner_node)
          members
      in
      Client.with_session ~retry_for_s:5.0 router_endpoint (fun s ->
          (* warm the owner: a >16 MiB trace and a stats blob *)
          (match
             Client.call ~deadline_ms:120_000 s
               (Protocol.Analyze
                  { workload = "spicex"; config = Config.default })
           with
          | Protocol.Analyzed _ -> ()
          | _ -> Alcotest.fail "expected Analyzed");
          (match Client.call s (Protocol.Decommission { node = owner_node }) with
          | Protocol.Members { members } ->
              Alcotest.(check (list string))
                "post-decommission membership" [ survivor.Fleet.node ]
                (List.map fst members)
          | _ -> Alcotest.fail "expected Members");
          let store = Store.open_ ~dir:survivor.Fleet.store_dir () in
          Alcotest.(check (list string))
            "trace and stats both migrated" [ "stats"; "trace" ]
            (List.sort compare (List.map fst (Store.entries store)));
          (match
             Client.call ~deadline_ms:120_000 s
               (Protocol.Analyze { workload = "spicex"; config = window64 })
           with
          | Protocol.Analyzed stats ->
              Alcotest.(check string) "window 64 byte-identical" reference
                (Ddg_paragraph.Stats_codec.to_string stats)
          | _ -> Alcotest.fail "expected Analyzed");
          Alcotest.(check int) "survivor never simulated" 0
            (work_of ~members ~backends survivor.Fleet.node).Runner.simulations)
    )

let test_pull_refusals () =
  with_fleet ~nodes:2 (fun ~members ~backends:_ ~router_endpoint:_ ->
      let target = List.hd members in
      let peer = List.nth members 1 in
      let store = Store.open_ ~dir:target.Fleet.store_dir () in
      let pull source =
        Client.with_connection ~retry_for_s:5.0 target.Fleet.endpoint (fun c ->
            Client.request c
              (Protocol.Pull { kind = "trace"; key = "mtxx/tiny/x"; source }))
      in
      (match pull "node9" with
      | _ -> Alcotest.fail "expected Unknown_node"
      | exception Client.Server_error { code = Protocol.Unknown_node; _ } ->
          ());
      (* a known peer that lacks the artifact: a typed failure too *)
      (match pull peer.Fleet.node with
      | _ -> Alcotest.fail "expected an error for an absent artifact"
      | exception Client.Server_error { code = Protocol.Internal; _ } -> ());
      Alcotest.(check int) "nothing installed" 0
        (List.length (Store.entries store));
      Alcotest.(check bool) "no temp file left behind" false
        (Array.exists
           (fun f -> String.starts_with ~prefix:"tmp." f)
           (Sys.readdir target.Fleet.store_dir)))

(* --- anti-entropy scrub ---------------------------------------------------------- *)

let flip_last_byte path =
  let fd = Unix.openfile path [ O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).st_size in
      ignore (Unix.lseek fd (size - 1) SEEK_SET);
      let b = Bytes.create 1 in
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
      ignore (Unix.lseek fd (size - 1) SEEK_SET);
      ignore (Unix.write fd b 0 1))

let poll_until ?(timeout_s = 10.0) what pred =
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

(* Warm answers travel as canonical bytes. For one analyze and one
   advise key, with the owner fresh, warm in memory, and warm only in its
   store (its runner restarted on the same store), the payload the router
   relays equals the owner's direct payload, ends in the in-process codec
   bytes, and frames to exactly the typed frame's bytes. *)
let test_routed_answers_are_canonical_bytes () =
  let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
  let local = Runner.create ~size:tiny () in
  let stats =
    Ddg_paragraph.Stats_codec.to_string (Runner.analyze local w Config.default)
  in
  let report =
    Ddg_advise.Advise_codec.to_string (Runner.advise local w Config.default)
  in
  let answers =
    [ ( Protocol.Analyze { workload = "mtxx"; config = Config.default },
        stats,
        Protocol.Analyzed (Ddg_paragraph.Stats_codec.of_string stats) );
      ( Protocol.Advise { workload = "mtxx"; config = Config.default },
        report,
        Protocol.Advised (Ddg_advise.Advise_codec.of_string report) ) ]
  in
  let ok_frame payload =
    let len = Bytes.create 4 in
    Bytes.set_int32_be len 0 (Int32.of_int (String.length payload));
    "DDGP\x03" ^ Bytes.to_string len ^ payload
  in
  let advise_store_hits () =
    counter_value ~labels:[ ("cache", "advise_store") ]
      "ddg_runner_cache_hits_total"
  in
  with_fleet ~nodes:2 ~router:() (fun ~members ~backends ~router_endpoint ->
      let ring =
        Ring.create (List.map (fun (m : Fleet.member) -> m.Fleet.node) members)
      in
      let owner, (owner_backend : Fleet.backend) =
        List.find
          (fun ((m : Fleet.member), _) ->
            m.Fleet.node = Ring.owner ring "mtxx/tiny")
          (List.combine members backends)
      in
      let raw endpoint req =
        Client.with_session ~retry_for_s:5.0 endpoint (fun s ->
            Client.call_raw ~deadline_ms:60_000 s req)
      in
      let check state =
        List.iter
          (fun (req, bytes, typed) ->
            let what = Protocol.verb_name req ^ " " ^ state in
            let routed = raw router_endpoint req in
            let direct = raw owner.Fleet.endpoint req in
            Alcotest.(check string) (what ^ ": routed = direct") direct routed;
            let n = String.length bytes in
            Alcotest.(check string)
              (what ^ ": canonical codec bytes")
              bytes
              (String.sub routed (String.length routed - n) n);
            Alcotest.(check string)
              (what ^ ": frame unchanged")
              (Protocol.frame_to_string (Ok_response typed))
              (ok_frame routed))
          answers
      in
      let work (r : Runner.t) =
        let c = Runner.counters r in
        (c.Runner.simulations, c.analyses, c.stats_store_hits)
      in
      let work_t = Alcotest.(triple int int int) in
      check "fresh";
      Alcotest.check work_t "owner computed both once" (2, 1, 0)
        (work owner_backend.runner);
      check "memory hit";
      Alcotest.check work_t "memory hits recompute nothing" (2, 1, 0)
        (work owner_backend.runner);
      (* restart the owner's runner on the same store: once the old
         daemon has unlinked its socket, a fresh backend takes it over *)
      Fleet.stop_backend owner_backend;
      let path =
        match owner.Fleet.endpoint with `Unix p -> p | `Tcp _ -> assert false
      in
      poll_until "old owner released its socket" (fun () ->
          not (Sys.file_exists path));
      let restarted =
        Fleet.backend ~size:tiny ~members ~self:owner ()
      in
      let thread = Thread.create Server.run restarted.server in
      Fun.protect
        ~finally:(fun () ->
          Fleet.stop_backend restarted;
          Thread.join thread)
        (fun () ->
          (* let a health probe close any circuit the restart opened, so
             the router asks the owner first *)
          Thread.delay 0.8;
          let advise_hits = advise_store_hits () in
          check "store hit";
          Alcotest.check work_t "answered from the store" (0, 0, 1)
            (work restarted.runner);
          Alcotest.(check int) "advice answered from the store" 1
            (advise_store_hits () - advise_hits)))

(* Served and routed answers against the reference transcription of the
   placement rule (test/reference.ml): for drawn tiny workloads and
   configurations, a backend asked directly and a 2-node router both
   answer the reference's stats bytes. One fleet serves every case; a
   1-node fleet (one owner for every key) and a 4-node one then check
   the router half on a few cases each. *)
let test_wire_matches_reference () =
  let local = Runner.create ~size:tiny () in
  let events = Hashtbl.create 16 in
  let reference (w : Ddg_workloads.Workload.t) config =
    let evs =
      match Hashtbl.find_opt events w.name with
      | Some evs -> evs
      | None ->
          let evs = Ddg_sim.Trace.to_list (snd (Runner.trace local w)) in
          Hashtbl.replace events w.name evs;
          evs
    in
    Ddg_paragraph.Stats_codec.to_string (Reference.analyze config evs)
  in
  let case =
    QCheck.make
      QCheck.Gen.(pair (oneofl Ddg_workloads.Registry.all) Test_props.gen_config)
      ~print:(fun ((w : Ddg_workloads.Workload.t), config) ->
        w.name ^ " under " ^ Config.describe config)
  in
  let answer endpoint (w : Ddg_workloads.Workload.t) config =
    Client.with_session ~retry_for_s:5.0 endpoint (fun s ->
        match
          Client.call ~deadline_ms:60_000 s
            (Protocol.Analyze { workload = w.name; config })
        with
        | Protocol.Analyzed stats -> Ddg_paragraph.Stats_codec.to_string stats
        | _ -> Alcotest.fail "expected Analyzed")
  in
  with_fleet ~nodes:2 ~router:() (fun ~members ~backends:_ ~router_endpoint ->
      let backend = (List.hd members).Fleet.endpoint in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:20
           ~name:"served and routed analyses equal the reference" case
           (fun (w, config) ->
             let want = reference w config in
             answer backend w config = want
             && answer router_endpoint w config = want)));
  List.iter
    (fun nodes ->
      with_fleet ~nodes ~router:()
        (fun ~members:_ ~backends:_ ~router_endpoint ->
          QCheck.Test.check_exn
            (QCheck.Test.make ~count:4
               ~name:
                 (Printf.sprintf "routed analyses equal the reference at %d \
                                  node(s)" nodes)
               case
               (fun (w, config) ->
                 answer router_endpoint w config = reference w config))))
    [ 1; 4 ]

let test_scrub_repair () =
  with_fleet ~nodes:2 ~scrub_rate:500.0
    (fun ~members ~backends ~router_endpoint:_ ->
      let ring =
        Ring.create (List.map (fun (m : Fleet.member) -> m.Fleet.node) members)
      in
      let owner_node = Ring.owner ring "mtxx/tiny" in
      let owner =
        List.find (fun (m : Fleet.member) -> m.Fleet.node = owner_node) members
      in
      let other =
        List.find (fun (m : Fleet.member) -> m.Fleet.node <> owner_node)
        members
      in
      let base = counter_value "ddg_scrub_repairs_total" in
      (* warm the owner, then fetch-through to the non-owner: its store
         now holds one artifact (the stats blob) whose ring owner is a
         peer, so the scrub pushes it back once per generation *)
      let reference = analyze_via owner.Fleet.endpoint "mtxx" in
      let routed = analyze_via other.Fleet.endpoint "mtxx" in
      Alcotest.(check string) "fetch-through byte-identical" reference routed;
      poll_until "the scrub's one replication push" (fun () ->
          counter_value "ddg_scrub_repairs_total" >= base + 1);
      (* flip one payload bit of the non-owner's artifact on disk: the
         scrub must quarantine it and re-fetch the good copy from the
         ring owner *)
      let store = Store.open_ ~dir:other.Fleet.store_dir () in
      (match Store.entries store with
      | [ (kind, key) ] ->
          flip_last_byte (Store.artifact_path store ~kind ~key)
      | entries ->
          Alcotest.failf "expected 1 artifact on the non-owner, found %d"
            (List.length entries));
      poll_until "the scrub's quarantine-and-refetch repair" (fun () ->
          counter_value "ddg_scrub_repairs_total" >= base + 2);
      (* the corrupt copy went to quarantine, the repaired one serves
         byte-identically without recomputation *)
      Alcotest.(check bool) "corrupt copy quarantined" true
        (Array.length (Sys.readdir (Store.quarantine_dir store)) > 0);
      Alcotest.(check string) "repaired artifact byte-identical" reference
        (analyze_via other.Fleet.endpoint "mtxx");
      Alcotest.(check int) "repair never recomputed" 0
        (work_of ~members ~backends other.Fleet.node).Runner.analyses;
      (* both stores end clean *)
      List.iter
        (fun (m : Fleet.member) ->
          let r = Store.fsck (Store.open_ ~dir:m.Fleet.store_dir ()) in
          Alcotest.(check int)
            (m.Fleet.node ^ " store clean")
            0
            (r.Store.quarantined + r.Store.missing))
        members)

let pull_requests () =
  counter_value ~labels:[ ("verb", "pull") ] "ddg_server_requests_verb_total"

let scrub_passes () =
  List.fold_left
    (fun acc (h : Obs.hist_snapshot) ->
      if h.Obs.hs_name = "ddg_scrub_pass_ns" then acc + h.hs_count else acc)
    0 (Obs.snapshot ()).Obs.histograms

(* An artifact over the 16 MiB frame cap on a node that does not own it
   reaches its owner through the scrub, and the scrub asks only once:
   only the non-owner scrubs, so every pass and every pull request
   counted below is its own. *)
let test_scrub_hands_large_artifact_to_owner () =
  let key = "scrubbed/large/blob" in
  let owner_node =
    Ring.owner (Ring.create [ "node0"; "node1" ]) "scrubbed/large"
  in
  with_fleet ~nodes:2 ~scrub_rate:500.0 ~scrubbed:(fun n -> n <> owner_node)
    (fun ~members ~backends:_ ~router_endpoint:_ ->
      let store_of node =
        Store.open_
          ~dir:
            (List.find (fun (m : Fleet.member) -> m.Fleet.node = node) members)
              .Fleet.store_dir ()
      in
      let owner = store_of owner_node in
      let holder =
        store_of (if owner_node = "node0" then "node1" else "node0")
      in
      let base = counter_value "ddg_scrub_repairs_total" in
      Store.put holder ~kind:"blob" ~key (fun oc ->
          output_string oc
            (String.init (20 * 1024 * 1024) (fun i ->
                 Char.chr ((i * 7919) lxor (i lsr 13) land 0xff))));
      let bytes store =
        In_channel.with_open_bin
          (Store.artifact_path store ~kind:"blob" ~key)
          In_channel.input_all
      in
      poll_until ~timeout_s:30.0 "the owner's pull of the 20 MiB artifact"
        (fun () -> counter_value "ddg_scrub_repairs_total" >= base + 1);
      Alcotest.(check bool) "owner holds a byte-identical copy" true
        (bytes owner = bytes holder);
      let pulls = pull_requests () in
      let passes = scrub_passes () in
      poll_until "five more scrub passes" (fun () ->
          scrub_passes () >= passes + 5);
      Alcotest.(check int) "no further pull requests" pulls (pull_requests ());
      List.iter
        (fun store ->
          let r = Store.fsck store in
          Alcotest.(check int) "store clean" 0
            (r.Store.quarantined + r.Store.missing))
        [ owner; holder ])

(* --- the self-healing metrics federate ------------------------------------------- *)

let test_federate_recovery_metrics () =
  let c name v = { Obs.cs_name = name; cs_labels = []; cs_value = v } in
  let node_a =
    { Obs.counters =
        [ c "ddg_backend_respawns_total" 2;
          c "ddg_membership_changes_total" 1;
          c "ddg_scrub_repairs_total" 3 ];
      histograms = [ Obs.hist_of_samples ~name:"ddg_scrub_pass_ns" [ 1; 3 ] ];
      gauges = [] }
  in
  let node_b =
    { Obs.counters =
        [ c "ddg_membership_changes_total" 1; c "ddg_scrub_repairs_total" 4 ];
      histograms = [ Obs.hist_of_samples ~name:"ddg_scrub_pass_ns" [ 9 ] ];
      gauges = [] }
  in
  let merged = Federate.merge_snapshots [ node_a; node_b ] in
  let text = Obs.prometheus_of_snapshot merged in
  let golden =
    "# TYPE ddg_backend_respawns_total counter\n\
     ddg_backend_respawns_total 2\n\
     # TYPE ddg_membership_changes_total counter\n\
     ddg_membership_changes_total 2\n\
     # TYPE ddg_scrub_repairs_total counter\n\
     ddg_scrub_repairs_total 7\n\
     # TYPE ddg_scrub_pass_ns histogram\n\
     ddg_scrub_pass_ns_bucket{le=\"0\"} 0\n\
     ddg_scrub_pass_ns_bucket{le=\"1\"} 1\n\
     ddg_scrub_pass_ns_bucket{le=\"3\"} 2\n\
     ddg_scrub_pass_ns_bucket{le=\"7\"} 2\n\
     ddg_scrub_pass_ns_bucket{le=\"15\"} 3\n\
     ddg_scrub_pass_ns_bucket{le=\"+Inf\"} 3\n\
     ddg_scrub_pass_ns_sum 13\n\
     ddg_scrub_pass_ns_count 3\n"
  in
  Alcotest.(check string) "federated recovery metrics golden" golden text;
  match Obs.validate_exposition text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid federated exposition: %s" msg

(* --- membership churn (qcheck) ---------------------------------------------------- *)

let churn_pool = List.init 6 (fun i -> Printf.sprintf "n%d" i)

let gen_churn_ops =
  QCheck.Gen.(
    list_size (int_range 1 20)
      (pair bool (map (List.nth churn_pool) (int_range 0 5))))

let arb_churn_ops =
  QCheck.make gen_churn_ops
    ~print:
      (QCheck.Print.list (fun (join, node) ->
           (if join then "join " else "drain ") ^ node))

let churn_keys = List.init 64 (fun i -> Printf.sprintf "workload-%d/tiny" i)

let prop_router_churn =
  (* after any sequence of joins and decommissions, every key lands on
     exactly [Ring.owner] of a ring freshly built over the survivors —
     the invariant the scrub's push-to-owner and the router's keyed
     dispatch both rely on. Endpoints are dead on purpose: membership
     changes must not depend on reachable backends. *)
  QCheck.Test.make ~name:"router churn keeps keys on Ring.owner" ~count:15
    arb_churn_ops (fun ops ->
      let router =
        Router.create ~size:tiny ~connect_timeout_s:0.2 ~health_interval_s:0.05
          ~backends:[] []
      in
      let thread = Thread.create Router.run router in
      let model =
        Fun.protect
          ~finally:(fun () ->
            Router.stop router;
            Thread.join thread)
          (fun () ->
            List.fold_left
              (fun model (join, node) ->
                if join then begin
                  ignore
                    (Router.join router ~node
                       ~endpoint:(`Unix "/nonexistent/ddg-churn.sock"));
                  if List.mem node model then model
                  else List.sort compare (node :: model)
                end
                else begin
                  ignore (Router.decommission router ~node);
                  List.filter (fun n -> n <> node) model
                end)
              [] ops)
      in
      let names = List.map fst (Router.members router) in
      names = model
      &&
      match Router.ring router with
      | None -> model = []
      | Some ring ->
          model <> []
          &&
          let fresh = Ring.create model in
          List.for_all
            (fun k -> Ring.owner ring k = Ring.owner fresh k)
            churn_keys)

(* --- chaos with router fault sites --------------------------------------------- *)

let chaos_script =
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

let run_chaos_script ~seed endpoint =
  let retry =
    { Client.attempts = 40; base_delay_s = 0.005; max_delay_s = 0.05; seed }
  in
  Client.with_session ~retry ~retry_for_s:5.0 endpoint (fun s ->
      List.map
        (fun req ->
          Protocol.frame_to_string
            (Protocol.Ok_response (Client.call ~deadline_ms:30_000 s req)))
        chaos_script)

let cluster_chaos_sites =
  let site p budget = { Fault.probability = p; budget = Some budget } in
  [ ("cluster.backend.drop", site 0.15 4);
    ("cluster.forward.fail", site 0.3 3);
    ("cluster.fetch.corrupt", site 0.3 3);
    ("proto.read.eintr", site 0.1 50);
    ("proto.write.short", site 0.2 100);
    ("proto.conn.drop", site 0.02 2) ]

let test_cluster_chaos seed () =
  Fault.disable ();
  (* fault-free reference through a router *)
  let expected =
    with_fleet ~nodes:3 ~router:() (fun ~members:_ ~backends:_ ~router_endpoint ->
        run_chaos_script ~seed router_endpoint)
  in
  let fds_before = open_fd_count () in
  let actual, store_dirs =
    with_fleet ~nodes:3 ~router:()
      (fun ~members ~backends:_ ~router_endpoint ->
        Fun.protect ~finally:Fault.disable (fun () ->
            Fault.enable ~seed ~sites:cluster_chaos_sites;
            let out = run_chaos_script ~seed router_endpoint in
            Fault.disable ();
            Alcotest.(check bool) "faults were injected" true
              (Fault.injected () > 0);
            ( out,
              List.map (fun (m : Fleet.member) -> m.Fleet.store_dir) members
              |> List.map (fun dir ->
                     (* fsck before teardown deletes the stores *)
                     let r = Store.fsck (Store.open_ ~dir ()) in
                     r.Store.quarantined + r.Store.missing) )))
  in
  List.iteri
    (fun i (want, got) ->
      Alcotest.(check string)
        (Printf.sprintf "response %d bit-identical under router faults" i)
        want got)
    (List.combine expected actual);
  List.iteri
    (fun i dirty ->
      Alcotest.(check int) (Printf.sprintf "node%d store clean" i) 0 dirty)
    store_dirs;
  (match fds_before with
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
      | None -> ()))

let tests =
  [ Alcotest.test_case "ring owners are order-independent" `Quick
      test_ring_deterministic;
    Alcotest.test_case "ring successors cover all nodes" `Quick
      test_ring_successors;
    Alcotest.test_case "ring add/remove are functional" `Quick
      test_ring_add_remove;
    Alcotest.test_case "routing keys agree across layers" `Quick
      test_routing_keys;
    Alcotest.test_case "federation sums counters, merges histograms" `Quick
      test_federate_merge;
    Alcotest.test_case "federation keeps per-node gauges apart" `Quick
      test_federate_node_gauges;
    Alcotest.test_case "fetch-through replicates instead of recomputing"
      `Slow test_fetch_through;
    Alcotest.test_case "router e2e: route, aggregate, federate, failover"
      `Slow test_router_end_to_end;
    Alcotest.test_case "routed answers are the owner's canonical bytes"
      `Slow test_routed_answers_are_canonical_bytes;
    Alcotest.test_case "served and routed analyses equal the reference"
      `Slow test_wire_matches_reference;
    Alcotest.test_case "self-healing metrics federate (golden)" `Quick
      test_federate_recovery_metrics;
    Alcotest.test_case "membership: drain, No_backends, rejoin" `Slow
      test_membership_wire;
    Alcotest.test_case "scrub repairs corruption from a peer" `Slow
      test_scrub_repair;
    Alcotest.test_case "drain moves a >16 MiB trace to the survivor" `Slow
      test_drain_moves_large_trace;
    Alcotest.test_case "pull refuses unknown sources, installs nothing"
      `Quick test_pull_refusals;
    Alcotest.test_case "scrub hands a >16 MiB artifact to its owner once"
      `Slow test_scrub_hands_large_artifact_to_owner;
    Alcotest.test_case "cluster chaos seed 3003" `Slow
      (test_cluster_chaos 3003) ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_ring_balanced;
        prop_ring_minimal_remap_remove;
        prop_ring_minimal_remap_add;
        prop_router_churn ]
