(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 1-4, Figures 7-8), the section 2.3
   secondary analyses, two ablations (finite functional units; branch
   misprediction firewalls), and a set of Bechamel microbenchmarks of the
   tool itself. Results land both on stdout and in BENCH.json
   (machine-readable: events/s per microbenchmark, wall time per
   section, and the seed-revision baselines they are compared against).

   Usage: main.exe [--size tiny|default|large] [--only SECTION]
   [--no-micro] [--json PATH] [-j N] [--cache-dir DIR] [--no-cache]
   [--cache-bench] [--serve-bench] [--fault-bench]
   where SECTION is one of table1 table2 table3 table4 fig7 fig8 extras
   resources branches compiler.

   The harness runs uncached unless --cache-dir is given (committed
   BENCH.json numbers must measure compute, not cache hits); -j sizes
   the prefetch job-engine domain pool. --cache-bench additionally
   benchmarks the store + job engine themselves — cold prefetch at -j 1,
   cold at -j N, then a warm-store prefetch that must be fully cache-hot
   (zero simulations, zero analyses; the harness exits nonzero
   otherwise) — and records all three wall times in BENCH.json.
   --serve-bench spins up the paragraphd daemon on a temp socket and
   measures cold-start analysis (fresh process state) against the
   resident daemon's first and warm repeat requests; the warm repeats
   must be answered with zero new simulations/analyses (checked over the
   wire via the stats verb; nonzero exit otherwise). --fault-bench
   measures the fault-injection layer itself: the per-probe cost of
   Fault.fire with the injector disabled and with every site armed at
   probability 0, plus a store put+find roundtrip (the hottest
   probe-bearing path) under both, recording the overhead ratio in
   BENCH.json — the disabled injector must cost nothing. --recovery-bench
   measures the self-healing fleet: a 3-node supervised forked cluster,
   one backend killed under warm traffic; records time-to-healthy
   (respawn observed and every workload serving byte-identical responses
   again) plus the request failure count during the churn in BENCH.json
   (it runs first, before the harness grows threads, so the supervisor's
   spawner child forks from a clean single-threaded image). On a
   single-core runner, --cluster-bench records {"skipped": "cores=1"} in
   BENCH.json instead of committing meaningless <=1x speedups.
   --analyze-bench measures the zero-copy trace pipeline: the fused
   engine fed from a stored v1 trace (digest + decode) against the same
   engine over an mmapped v3 trace consumed in place (byte-checked
   first), then generates a >1 GiB flat trace and streams it through the
   analyzer in bounded memory, recording events/s and the peak-RSS
   growth (VmHWM over a re-armed baseline) in a BENCH.json "zero_copy"
   block; a runner without ~2 GiB of free
   temp space records {"skipped": "disk"} instead, same idiom as the
   cores=1 markers. The microbenchmark section also asserts the advisor's loop marks are
   strictly opt-in: the default (unmarked) trace must carry zero marks
   and serialize in the seed's v1 byte format. *)

open Ddg_experiments

type opts = {
  size : Ddg_workloads.Workload.size;
  only : string option;
  micro : bool;
  json_path : string;
  jobs : int;
  cache_dir : string option;
  no_cache : bool;
  cache_bench : bool;
  serve_bench : bool;
  cluster_bench : bool;
  fault_bench : bool;
  obs_bench : bool;
  recovery_bench : bool;
  analyze_bench : bool;
}

let parse_args () =
  let o =
    ref
      { size = Ddg_workloads.Workload.Default; only = None; micro = true;
        json_path = "BENCH.json"; jobs = 1; cache_dir = None;
        no_cache = false; cache_bench = false; serve_bench = false;
        cluster_bench = false; fault_bench = false; obs_bench = false;
        recovery_bench = false; analyze_bench = false }
  in
  let rec go = function
    | [] -> ()
    | "--size" :: s :: rest ->
        o :=
          { !o with
            size =
              (match s with
              | "tiny" -> Ddg_workloads.Workload.Tiny
              | "default" -> Ddg_workloads.Workload.Default
              | "large" -> Ddg_workloads.Workload.Large
              | _ -> failwith ("unknown size " ^ s)) };
        go rest
    | "--only" :: s :: rest ->
        o := { !o with only = Some s };
        go rest
    | "--no-micro" :: rest ->
        o := { !o with micro = false };
        go rest
    | "--json" :: p :: rest ->
        o := { !o with json_path = p };
        go rest
    | "-j" :: n :: rest | "--jobs" :: n :: rest ->
        o := { !o with jobs = max 1 (int_of_string n) };
        go rest
    | "--cache-dir" :: d :: rest ->
        o := { !o with cache_dir = Some d };
        go rest
    | "--no-cache" :: rest ->
        o := { !o with no_cache = true };
        go rest
    | "--cache-bench" :: rest ->
        o := { !o with cache_bench = true };
        go rest
    | "--serve-bench" :: rest ->
        o := { !o with serve_bench = true };
        go rest
    | "--cluster-bench" :: rest ->
        o := { !o with cluster_bench = true };
        go rest
    | "--fault-bench" :: rest ->
        o := { !o with fault_bench = true };
        go rest
    | "--obs-bench" :: rest ->
        o := { !o with obs_bench = true };
        go rest
    | "--recovery-bench" :: rest ->
        o := { !o with recovery_bench = true };
        go rest
    | "--analyze-bench" :: rest ->
        o := { !o with analyze_bench = true };
        go rest
    | arg :: _ -> failwith ("unknown argument " ^ arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

let section_banner name =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n\n" bar name bar

(* Throughput of the seed revision on this harness's fixed microbenchmark
   input (eqnx tiny, 15490 events), kept here so BENCH.json always
   carries the baseline the current numbers are measured against. *)
let seed_baseline =
  [ ("analyze trace (full renaming) events/s", 4_710_000.0);
    ("prefetch 210 tiny jobs seconds", 3.397) ]

(* --- Bechamel microbenchmarks ------------------------------------------- *)

(* Run one Bechamel test and return the OLS ns/run estimate. *)
let estimate_ns cfg instances ols test =
  let open Bechamel in
  let results = Benchmark.all cfg instances test in
  let analyzed = Analyze.all ols (List.hd instances) results in
  Hashtbl.fold
    (fun _ ols_result acc ->
      match Bechamel.Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Some est
      | Some _ | None -> acc)
    analyzed None

(* Loop marks (the advisor's side channel) are strictly opt-in: a
   default (unmarked) compile must carry zero marks and serialize in the
   seed's v1 trace format, byte for byte — no marks section, no version
   bump — so every events/s figure below is measured on the same trace
   bytes the seed revision produced. Exits nonzero if marks leak in. *)
let assert_marks_are_opt_in trace =
  if Ddg_sim.Trace.num_marks trace <> 0 then begin
    Printf.eprintf "bench: unmarked trace carries loop marks\n%!";
    exit 1
  end;
  let tmp = Filename.temp_file "ddg-bench-trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Ddg_sim.Trace_io.write_file tmp trace;
      let ic = open_in_bin tmp in
      let magic =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic 8)
      in
      if magic <> "DDGTRC01" then begin
        Printf.eprintf
          "bench: unmarked trace serialized with magic %S, not the seed's \
           v1 format\n%!"
          magic;
        exit 1
      end)

(* the harness's default configuration list: the renaming sweep the
   paper's Table 3 is built from, plus the dataflow limit and an
   optimistic-syscall variant — all windowless/unlimited, the shape
   analyze_many fuses best *)
let fused_configs =
  let open Ddg_paragraph.Config in
  [ default; dataflow;
    with_renaming rename_none default;
    with_renaming rename_registers_only default;
    with_renaming rename_registers_stack default;
    with_syscall_stall false (with_renaming rename_none default) ]

let microbenchmarks () =
  let open Bechamel in
  let open Toolkit in
  (* a small fixed trace for the analysis benchmarks *)
  let w = Option.get (Ddg_workloads.Registry.find "eqnx") in
  let _, trace = Ddg_workloads.Workload.trace w Ddg_workloads.Workload.Tiny in
  assert_marks_are_opt_in trace;
  let events = Ddg_sim.Trace.length trace in
  let program =
    Ddg_workloads.Workload.program w Ddg_workloads.Workload.Tiny
  in
  let minic_source = w.Ddg_workloads.Workload.source Ddg_workloads.Workload.Tiny in
  let nconfigs = List.length fused_configs in
  let fused_name = Printf.sprintf "analyze_many (%d configs, fused)" nconfigs in
  let seq_name = Printf.sprintf "%d sequential analyze calls" nconfigs in
  (* (label, per-run trace passes for the events/s column, thunk) *)
  let tests =
    [ ("analyze trace (full renaming)", 1,
       fun () ->
         ignore
           (Ddg_paragraph.Analyzer.analyze Ddg_paragraph.Config.default
              trace));
      ("analyze trace (no renaming)", 1,
       fun () ->
         ignore
           (Ddg_paragraph.Analyzer.analyze
              Ddg_paragraph.Config.(with_renaming rename_none default)
              trace));
      ("analyze trace (window=100)", 1,
       fun () ->
         ignore
           (Ddg_paragraph.Analyzer.analyze
              Ddg_paragraph.Config.(with_window (Some 100) default)
              trace));
      (fused_name, nconfigs,
       fun () ->
         ignore (Ddg_paragraph.Analyzer.analyze_many fused_configs trace));
      (seq_name, nconfigs,
       fun () ->
         List.iter
           (fun c -> ignore (Ddg_paragraph.Analyzer.analyze c trace))
           fused_configs);
      ("simulate program", 0,
       fun () -> ignore (Ddg_sim.Machine.run program));
      ("compile Mini-C workload", 0,
       fun () -> ignore (Ddg_minic.Driver.compile minic_source));
      ("explicit DDG build", 1,
       fun () ->
         ignore (Ddg_paragraph.Ddg.build Ddg_paragraph.Config.default trace))
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true
      ~compaction:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  Printf.printf
    "Microbenchmarks (eqnx tiny: %d trace events; ns per run):\n" events;
  Printf.printf
    "  (unmarked trace checked: zero loop marks, seed v1 byte format)\n\n";
  let measured =
    List.map
      (fun (name, passes, thunk) ->
        let test = Test.make ~name (Staged.stage thunk) in
        match estimate_ns cfg instances ols test with
        | Some est ->
            (* rows with no trace pass (simulate, compile) have no rate *)
            let events_per_s =
              if est > 0.0 && passes > 0 then
                Some (float_of_int (passes * events) /. (est /. 1e9))
              else None
            in
            (match events_per_s with
            | Some rate ->
                Printf.printf "  %-40s %14s ns/run  (%10.0f events/s)\n"
                  name
                  (Ddg_report.Table.float_cell est)
                  rate
            | None ->
                Printf.printf "  %-40s %14s ns/run\n" name
                  (Ddg_report.Table.float_cell est));
            (name, Some (est, events_per_s))
        | None ->
            Printf.printf "  %-40s (no estimate)\n" name;
            (name, None))
      tests
  in
  let find name =
    match List.assoc_opt name measured with
    | Some (Some (est, _)) -> Some est
    | _ -> None
  in
  let fused_speedup =
    match (find seq_name, find fused_name) with
    | Some seq, Some fused when fused > 0.0 ->
        let s = seq /. fused in
        Printf.printf
          "\n  analyze_many speedup over %d sequential calls: %.2fx\n"
          nconfigs s;
        Some s
    | _ -> None
  in
  print_newline ();
  (events, measured, nconfigs, fused_speedup)

(* --- the suite's configuration list --------------------------------------- *)

(* One job per (workload, switch combination) used by any section,
   analyzed per workload in fused passes. *)
let all_configs =
  let open Ddg_paragraph.Config in
  [ default; dataflow ]
  @ List.map (fun r -> with_renaming r default)
      [ rename_none; rename_registers_only; rename_registers_stack ]
  @ List.map (fun w -> with_window (Some w) default) Fig8.window_sizes
  @ List.map
      (fun k -> with_fu { unlimited_fu with total = Some k } default)
      Ablation.fu_limits
  @ List.map (fun (_, p) -> with_branch p default)
      [ ("taken", Predict_taken); ("not-taken", Predict_not_taken);
        ("2bit", Two_bit 12) ]

let suite_jobs runner =
  List.concat_map
    (fun w -> List.map (fun c -> (w, c)) all_configs)
    (Runner.workloads runner)

(* --- cache / job-engine benchmark ------------------------------------------ *)

type cache_bench_result = {
  cb_workers : int;
  cb_suite_jobs : int;
  cb_cold_j1 : float;   (* fresh store, sequential *)
  cb_cold_jn : float;   (* fresh store, -j N domain pool *)
  cb_warm : float;      (* warm store: must be fully cache-hot *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let run_cache_bench ~size ~workers =
  let fresh tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg-cache-bench-%d-%s" (Unix.getpid ()) tag)
  in
  let prefetch_with ~dir ~workers =
    let tracing = ref 0 and analyzing = ref 0 in
    let progress msg =
      if String.starts_with ~prefix:"tracing " msg then incr tracing;
      if String.starts_with ~prefix:"analyzing " msg then incr analyzing
    in
    let store = Ddg_store.Store.open_ ~dir () in
    let runner = Runner.create ~size ~progress ~store ~workers () in
    let jobs = suite_jobs runner in
    let t0 = Unix.gettimeofday () in
    Runner.prefetch runner jobs;
    (Unix.gettimeofday () -. t0, !tracing, !analyzing, List.length jobs)
  in
  let dir1 = fresh "j1" and dirn = fresh "jn" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir1;
      rm_rf dirn)
    (fun () ->
      Printf.eprintf "cache-bench: cold prefetch, -j 1\n%!";
      let cold_j1, _, _, njobs = prefetch_with ~dir:dir1 ~workers:1 in
      (* at -j 1 the cold -j N run would repeat the one just made: the
         warm pass reads the -j 1 store instead *)
      let cold_jn, warm_dir =
        if workers = 1 then (cold_j1, dir1)
        else begin
          Printf.eprintf "cache-bench: cold prefetch, -j %d\n%!" workers;
          let cold_jn, _, _, _ = prefetch_with ~dir:dirn ~workers in
          (cold_jn, dirn)
        end
      in
      Printf.eprintf "cache-bench: warm prefetch against the -j %d store\n%!"
        workers;
      let warm, tr, an, _ = prefetch_with ~dir:warm_dir ~workers in
      if tr > 0 || an > 0 then begin
        Printf.eprintf
          "cache-bench: warm run recomputed (%d simulations, %d fused \
           analyses) - the store is not cache-hot\n%!"
          tr an;
        exit 1
      end;
      Printf.printf
        "cache bench (%d suite jobs): cold -j1 %.2fs%s, warm %.2fs (warm is \
         cache-hot, %.1fx over cold -j1)\n"
        njobs cold_j1
        (if workers > 1 then Printf.sprintf ", cold -j%d %.2fs" workers cold_jn
         else "")
        warm
        (if warm > 0.0 then cold_j1 /. warm else 0.0);
      { cb_workers = workers; cb_suite_jobs = njobs; cb_cold_j1 = cold_j1;
        cb_cold_jn = cold_jn; cb_warm = warm })

(* --- daemon (serve) benchmark ---------------------------------------------- *)

type serve_bench_result = {
  sb_workload : string;
  sb_cold : float;         (* fresh in-process runner: simulate + analyze *)
  sb_daemon_first : float; (* daemon's first request (its cold path) *)
  sb_warm_mean : float;    (* resident daemon, repeat request *)
  sb_warm_min : float;
  sb_warm_requests : int;
}

let run_serve_bench ~size ~workers =
  let module Protocol = Ddg_protocol.Protocol in
  let module Server = Ddg_server.Server in
  let module Client = Ddg_server.Client in
  let name = "mtxx" in
  let w = Option.get (Ddg_workloads.Registry.find name) in
  let config = Ddg_paragraph.Config.default in
  (* cold start: what a one-shot CLI run pays every time *)
  Printf.eprintf "serve-bench: cold in-process analyze (%s)\n%!" name;
  let t0 = Unix.gettimeofday () in
  let cold_stats =
    Runner.analyze (Runner.create ~size ~workers:1 ()) w config
  in
  let cold = Unix.gettimeofday () -. t0 in
  (* resident daemon on a temp socket, same process for a fair clock *)
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg-serve-bench-%d.sock" (Unix.getpid ()))
  in
  let runner = Runner.create ~size ~workers () in
  let server = Server.create ~runner ~workers [ `Unix socket ] in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      Client.with_connection ~retry_for_s:10.0 (`Unix socket) (fun client ->
          let analyze () =
            let t0 = Unix.gettimeofday () in
            match
              Client.request client (Protocol.Analyze { workload = name; config })
            with
            | Protocol.Analyzed stats -> (Unix.gettimeofday () -. t0, stats)
            | _ -> failwith "serve-bench: unexpected response"
          in
          Printf.eprintf "serve-bench: daemon first request\n%!";
          let daemon_first, first_stats = analyze () in
          if Ddg_paragraph.Stats_codec.to_string first_stats
             <> Ddg_paragraph.Stats_codec.to_string cold_stats
          then begin
            Printf.eprintf
              "serve-bench: served result differs from in-process result\n%!";
            exit 1
          end;
          let n = 25 in
          Printf.eprintf "serve-bench: %d warm repeats\n%!" n;
          let times = List.init n (fun _ -> fst (analyze ())) in
          (match Client.request client Protocol.Server_stats with
          | Protocol.Telemetry c ->
              if c.Protocol.simulations > 1 || c.Protocol.analyses > 1
              then begin
                Printf.eprintf
                  "serve-bench: warm repeats recomputed (%d simulations, %d \
                   analyses) - the daemon is not serving from its caches\n%!"
                  c.Protocol.simulations c.Protocol.analyses;
                exit 1
              end
          | _ -> failwith "serve-bench: unexpected stats response");
          let warm_mean = List.fold_left ( +. ) 0.0 times /. float_of_int n in
          let warm_min = List.fold_left min (List.hd times) times in
          Printf.printf
            "serve bench (%s %s): cold %.3fs, daemon first %.3fs, warm mean \
             %.2fms / min %.2fms over %d requests (%.0fx over cold; warm \
             repeats did zero new work)\n"
            name
            (Ddg_workloads.Workload.size_to_string size)
            cold daemon_first (1000.0 *. warm_mean) (1000.0 *. warm_min) n
            (if warm_mean > 0.0 then cold /. warm_mean else 0.0);
          { sb_workload = name; sb_cold = cold; sb_daemon_first = daemon_first;
            sb_warm_mean = warm_mean; sb_warm_min = warm_min;
            sb_warm_requests = n }))

(* --- cluster (router + sharded fleet) benchmark ----------------------------- *)

type cluster_bench_result = {
  klb_workloads : string list;
  klb_warm_requests : int;         (* per node count *)
  klb_nodes : (int * float) list;  (* node count -> warm requests/s via router *)
}

(* An in-process fleet per node count: N backend servers on threads, a
   router thread in front, all sharing this process's clock (and obs
   registry — federation exactness is a unit-test concern, not a bench
   one). Every routed response is byte-compared against a direct
   in-process analysis before the throughput phase, so the numbers are
   for verified-correct serving. *)
let run_cluster_bench ~size =
  let module Protocol = Ddg_protocol.Protocol in
  let module Server = Ddg_server.Server in
  let module Client = Ddg_server.Client in
  let module Router = Ddg_cluster.Router in
  let module Fleet = Ddg_cluster.Fleet in
  let workloads = [ "mtxx"; "eqnx"; "espx"; "fpx" ] in
  let config = Ddg_paragraph.Config.default in
  Printf.eprintf "cluster-bench: direct in-process reference analyses\n%!";
  let direct =
    let runner = Runner.create ~size ~workers:1 () in
    List.map
      (fun name ->
        let w = Option.get (Ddg_workloads.Registry.find name) in
        (name, Ddg_paragraph.Stats_codec.to_string (Runner.analyze runner w config)))
      workloads
  in
  let warm_requests = 40 in
  let bench_nodes nodes =
    let base =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ddg-cluster-bench-%d-n%d" (Unix.getpid ()) nodes)
    in
    rm_rf base;
    Unix.mkdir base 0o755;
    let members =
      Fleet.members ~nodes
        ~base_socket:(Filename.concat base "backend.sock")
        ~base_store:(Filename.concat base "stores")
    in
    let router_socket = Filename.concat base "router.sock" in
    let backends =
      List.map (fun self -> Fleet.backend ~size ~members ~self ()) members
    in
    let backend_threads =
      List.map
        (fun (b : Fleet.backend) -> Thread.create Server.run b.server)
        backends
    in
    let router =
      Router.create ~size
        ~backends:
          (List.map
             (fun (m : Fleet.member) -> (m.Fleet.node, m.Fleet.endpoint))
             members)
        [ `Unix router_socket ]
    in
    let router_thread = Thread.create Router.run router in
    Fun.protect
      ~finally:(fun () ->
        Router.stop router;
        Thread.join router_thread;
        List.iter (fun (b : Fleet.backend) -> Server.stop b.server) backends;
        List.iter Thread.join backend_threads;
        rm_rf base)
      (fun () ->
        Client.with_session ~retry_for_s:10.0 (`Unix router_socket)
          (fun session ->
            let analyze name =
              match
                Client.call session (Protocol.Analyze { workload = name; config })
              with
              | Protocol.Analyzed stats ->
                  Ddg_paragraph.Stats_codec.to_string stats
              | _ -> failwith "cluster-bench: unexpected response"
            in
            (* warm every shard owner and byte-check routed == direct *)
            List.iter
              (fun (name, reference) ->
                if analyze name <> reference then begin
                  Printf.eprintf
                    "cluster-bench: routed %s result differs from direct \
                     in-process result at %d nodes\n%!"
                    name nodes;
                  exit 1
                end)
              direct;
            Printf.eprintf
              "cluster-bench: %d warm requests through the router, %d \
               node(s)\n%!"
              warm_requests nodes;
            let t0 = Unix.gettimeofday () in
            for i = 0 to warm_requests - 1 do
              ignore (analyze (List.nth workloads (i mod List.length workloads)))
            done;
            let wall = Unix.gettimeofday () -. t0 in
            if wall > 0.0 then float_of_int warm_requests /. wall else 0.0))
  in
  let rates =
    List.map
      (fun nodes ->
        let rps = bench_nodes nodes in
        Printf.printf
          "cluster bench: %d node(s), %.0f warm requests/s via router\n%!"
          nodes rps;
        (nodes, rps))
      [ 1; 2; 4 ]
  in
  { klb_workloads = workloads; klb_warm_requests = warm_requests;
    klb_nodes = rates }

(* --- recovery (self-healing fleet) benchmark -------------------------------- *)

type recovery_bench_result = {
  rb_nodes : int;
  rb_killed : string;
  rb_respawns : int;
  rb_requests_during_churn : int;
  rb_failed_during_churn : int;
  rb_time_to_healthy_s : float;
}

(* A supervised forked 3-node fleet behind a router: kill one backend
   under warm traffic and measure the time until the supervisor has
   respawned it AND every workload serves byte-identical responses
   again. Must run before the harness creates any thread or domain:
   the supervisor's spawner child forks from this process. *)
let run_recovery_bench ~size =
  let module Protocol = Ddg_protocol.Protocol in
  let module Client = Ddg_server.Client in
  let module Router = Ddg_cluster.Router in
  let module Fleet = Ddg_cluster.Fleet in
  let workloads = [ "mtxx"; "eqnx"; "espx"; "fpx" ] in
  let config = Ddg_paragraph.Config.default in
  let nodes = 3 in
  let base =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg-recovery-bench-%d" (Unix.getpid ()))
  in
  rm_rf base;
  Unix.mkdir base 0o755;
  let members =
    Fleet.members ~nodes
      ~base_socket:(Filename.concat base "backend.sock")
      ~base_store:(Filename.concat base "stores")
  in
  let router_socket = Filename.concat base "router.sock" in
  (* the spawner forks here, first *)
  let sup =
    Fleet.supervisor ~backoff_base_s:0.05 ~backoff_max_s:1.0
      ~spawn:(fun (self : Fleet.member) ->
        Fleet.fork_backend ~size ~workers:1 ~scrub_rate:200.0 ~members ~self
          ())
      ~members ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fleet.supervisor_stop sup;
      rm_rf base)
    (fun () ->
      List.iter
        (fun (m : Fleet.member) -> Fleet.supervisor_spawn sup m.Fleet.node)
        members;
      Printf.eprintf "recovery-bench: direct in-process reference analyses\n%!";
      let direct =
        let runner = Runner.create ~size ~workers:1 () in
        List.map
          (fun name ->
            let w = Option.get (Ddg_workloads.Registry.find name) in
            ( name,
              Ddg_paragraph.Stats_codec.to_string
                (Runner.analyze runner w config) ))
          workloads
      in
      let router =
        Router.create ~size
          ~on_retire:(Fleet.supervisor_decommissioned sup)
          ~backends:
            (List.map
               (fun (m : Fleet.member) -> (m.Fleet.node, m.Fleet.endpoint))
               members)
          [ `Unix router_socket ]
      in
      let router_thread = Thread.create Router.run router in
      Fleet.supervisor_watch sup ~on_decommission:(fun node ->
          ignore (Router.decommission router ~node));
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          Thread.join router_thread)
        (fun () ->
          Client.with_session ~retry_for_s:10.0 (`Unix router_socket)
            (fun session ->
              let analyze ?deadline_ms name =
                match
                  Client.call ?deadline_ms session
                    (Protocol.Analyze { workload = name; config })
                with
                | Protocol.Analyzed stats ->
                    Ddg_paragraph.Stats_codec.to_string stats
                | _ -> failwith "recovery-bench: unexpected response"
              in
              (* warm every shard owner and byte-check routed == direct *)
              List.iter
                (fun (name, reference) ->
                  if analyze name <> reference then begin
                    Printf.eprintf
                      "recovery-bench: routed %s result differs from direct \
                       in-process result\n%!"
                      name;
                    exit 1
                  end)
                direct;
              let victim = (List.hd members).Fleet.node in
              Printf.eprintf "recovery-bench: killing %s under traffic\n%!"
                victim;
              let t_kill = Unix.gettimeofday () in
              Fleet.supervisor_kill sup victim;
              let requests = ref 0 and failed = ref 0 in
              let give_up = t_kill +. 30.0 in
              let rec until_healthy () =
                if Unix.gettimeofday () > give_up then begin
                  Printf.eprintf
                    "recovery-bench: fleet did not recover within 30s\n%!";
                  exit 1
                end;
                (* one sweep: every workload must answer byte-identically *)
                let ok =
                  List.for_all
                    (fun (name, reference) ->
                      incr requests;
                      match analyze ~deadline_ms:5000 name with
                      | s -> s = reference
                      | exception _ ->
                          incr failed;
                          false)
                    direct
                in
                let healed =
                  Fleet.supervisor_respawns sup >= 1
                  && List.for_all
                       (fun (_, st) ->
                         match st with `Running _ -> true | _ -> false)
                       (Fleet.supervisor_status sup)
                in
                if ok && healed then Unix.gettimeofday () -. t_kill
                else begin
                  Thread.delay 0.05;
                  until_healthy ()
                end
              in
              let time_to_healthy = until_healthy () in
              Printf.printf
                "recovery bench: %d nodes, killed %s; healthy again in \
                 %.2fs (%d respawns, %d/%d requests failed during churn)\n%!"
                nodes victim time_to_healthy
                (Fleet.supervisor_respawns sup)
                !failed !requests;
              { rb_nodes = nodes;
                rb_killed = victim;
                rb_respawns = Fleet.supervisor_respawns sup;
                rb_requests_during_churn = !requests;
                rb_failed_during_churn = !failed;
                rb_time_to_healthy_s = time_to_healthy })))

(* --- fault-injector overhead benchmark ------------------------------------- *)

type fault_bench_result = {
  fb_fire_disabled_ns : float; (* one Fault.fire probe, injector disabled *)
  fb_fire_armed_ns : float;    (* one probe on a site armed at p=0 *)
  fb_store_off_ns : float;     (* store put+find roundtrip, injector off *)
  fb_store_armed_ns : float;   (* same roundtrip, every site armed at p=0 *)
}

(* Every production site plus the synthetic probe used below, armed at
   probability 0: the injector takes its slow path (hash, draw) on every
   probe but never fires, which upper-bounds the cost an armed run adds
   to fault-free code. *)
let all_sites_at_zero =
  List.map
    (fun name -> (name, { Ddg_fault.Fault.probability = 0.0; budget = None }))
    [ "bench.probe"; "store.put.enospc"; "store.put.torn";
      "store.find.bitflip"; "proto.read.eintr"; "proto.write.eintr";
      "proto.read.short"; "proto.write.short"; "proto.conn.drop";
      "jobs.worker.crash"; "server.accept.fail" ]

let run_fault_bench () =
  let module Fault = Ddg_fault.Fault in
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true
      ~compaction:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let measure name thunk =
    match estimate_ns cfg instances ols (Test.make ~name (Staged.stage thunk))
    with
    | Some est -> est
    | None -> failwith ("fault-bench: no estimate for " ^ name)
  in
  (* the probe itself, amortized over a batch per run *)
  let calls = 1000 in
  let fire_batch () =
    for _ = 1 to calls do
      if Fault.fire "bench.probe" then failwith "fault-bench: p=0 site fired"
    done
  in
  Fault.disable ();
  Printf.eprintf "fault-bench: probe cost, injector disabled\n%!";
  let fire_disabled = measure "fire disabled" fire_batch /. float_of_int calls in
  Fault.enable ~seed:0 ~sites:all_sites_at_zero;
  Printf.eprintf "fault-bench: probe cost, armed at p=0\n%!";
  let fire_armed = measure "fire armed p=0" fire_batch /. float_of_int calls in
  Fault.disable ();
  (* the hottest probe-bearing production path: a store put+find
     roundtrip (enospc, torn and bitflip probes plus two fsyncs) *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg-fault-bench-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Ddg_store.Store.open_ ~dir () in
      let payload = String.make 4096 'x' in
      let roundtrip () =
        Ddg_store.Store.put store ~kind:"bench" ~key:"probe" (fun oc ->
            output_string oc payload);
        match
          Ddg_store.Store.find store ~kind:"bench" ~key:"probe" (fun ic ->
              really_input_string ic (String.length payload))
        with
        | Some s when String.length s = String.length payload -> ()
        | Some _ | None -> failwith "fault-bench: store roundtrip failed"
      in
      Printf.eprintf "fault-bench: store roundtrip, injector disabled\n%!";
      let store_off = measure "store roundtrip disabled" roundtrip in
      Fault.enable ~seed:0 ~sites:all_sites_at_zero;
      Printf.eprintf "fault-bench: store roundtrip, armed at p=0\n%!";
      let store_armed =
        Fun.protect ~finally:Fault.disable (fun () ->
            measure "store roundtrip armed p=0" roundtrip)
      in
      Printf.printf
        "fault bench: fire %.1f ns disabled / %.1f ns armed(p=0); store \
         roundtrip %.0f ns off / %.0f ns armed (%.3fx overhead when armed)\n"
        fire_disabled fire_armed store_off store_armed
        (if store_off > 0.0 then store_armed /. store_off else 0.0);
      { fb_fire_disabled_ns = fire_disabled; fb_fire_armed_ns = fire_armed;
        fb_store_off_ns = store_off; fb_store_armed_ns = store_armed })

(* --- observability overhead benchmark --------------------------------------- *)

type obs_bench_result = {
  ob_counter_disabled_ns : float; (* one Obs.incr, gate closed *)
  ob_counter_enabled_ns : float;  (* one Obs.incr, recording *)
  ob_span_disabled_ns : float;    (* one Obs.time around (fun () -> ()) *)
  ob_span_enabled_ns : float;     (* same, with two clock reads + observe *)
  ob_analyze_off_ns : float;      (* instrumented analyze, gate closed *)
  ob_analyze_on_ns : float;       (* instrumented analyze, recording *)
}

(* The disabled path is the product constraint: every instrumented site
   in the analyzer, store, pool and server pays one [Obs.incr]/[Obs.time]
   per hit whether or not anyone is observing, so a closed gate must
   cost a single atomic load (same discipline as the fault injector's
   [fire]). Probes are amortized over a 1000-call batch, like the fault
   bench, so the per-call figure is below Bechamel's per-run noise. *)
let run_obs_bench () =
  let module Obs = Ddg_obs.Obs in
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true
      ~compaction:false ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let measure name thunk =
    match estimate_ns cfg instances ols (Test.make ~name (Staged.stage thunk))
    with
    | Some est -> est
    | None -> failwith ("obs-bench: no estimate for " ^ name)
  in
  let calls = 1000 in
  let counter = Obs.counter "ddg_bench_probe_total" in
  let span = Obs.span_site "ddg_bench_probe_ns" in
  let counter_batch () =
    for _ = 1 to calls do
      Obs.incr counter
    done
  in
  let span_batch () =
    for _ = 1 to calls do
      Obs.time span (fun () -> ())
    done
  in
  Obs.disable ();
  Printf.eprintf "obs-bench: probe costs, gate closed\n%!";
  let counter_disabled =
    measure "counter disabled" counter_batch /. float_of_int calls
  in
  let span_disabled = measure "span disabled" span_batch /. float_of_int calls in
  Obs.enable ();
  Printf.eprintf "obs-bench: probe costs, recording\n%!";
  let counter_enabled =
    measure "counter enabled" counter_batch /. float_of_int calls
  in
  let span_enabled = measure "span enabled" span_batch /. float_of_int calls in
  Obs.disable ();
  (* the instrumented hot path end to end: one analyzer pass over a
     fixed tiny trace, with the gate closed and open *)
  let w = Option.get (Ddg_workloads.Registry.find "eqnx") in
  let _, trace = Ddg_workloads.Workload.trace w Ddg_workloads.Workload.Tiny in
  let config = Ddg_paragraph.Config.default in
  let analyze () =
    ignore (Sys.opaque_identity (Ddg_paragraph.Analyzer.analyze config trace))
  in
  Printf.eprintf "obs-bench: instrumented analyze, gate closed\n%!";
  let analyze_off = measure "analyze obs off" analyze in
  Obs.enable ();
  Printf.eprintf "obs-bench: instrumented analyze, recording\n%!";
  let analyze_on =
    Fun.protect ~finally:Obs.disable (fun () -> measure "analyze obs on" analyze)
  in
  Obs.reset ();
  Printf.printf
    "obs bench: counter %.2f ns disabled / %.1f ns enabled; span %.2f ns \
     disabled / %.1f ns enabled; analyze %.0f ns off / %.0f ns on (%.4fx \
     overhead when recording)\n"
    counter_disabled counter_enabled span_disabled span_enabled analyze_off
    analyze_on
    (if analyze_off > 0.0 then analyze_on /. analyze_off else 0.0);
  { ob_counter_disabled_ns = counter_disabled;
    ob_counter_enabled_ns = counter_enabled;
    ob_span_disabled_ns = span_disabled;
    ob_span_enabled_ns = span_enabled;
    ob_analyze_off_ns = analyze_off;
    ob_analyze_on_ns = analyze_on }

(* Scaling benchmarks either ran or were skipped with a reason; a skip
   is recorded in BENCH.json (e.g. [{"skipped": "cores=1"}]) so a
   single-core runner leaves an explicit marker instead of committing
   meaningless <=1x speedups. *)
type 'a outcome = Ran of 'a | Skipped of string

(* --- zero-copy (flat trace) benchmark ---------------------------------------- *)

type analyze_bench_result = {
  zb_workload : string;
  zb_events : int;
  zb_configs : int;
  zb_legacy_events_per_s : float; (* stored v1/v2: digest + decode + fused *)
  zb_flat_events_per_s : float;   (* stored v3: mmap in place + fused *)
  zb_speedup : float;
}

type large_bench_result = {
  lg_events : int;
  lg_trace_bytes : int;
  lg_events_per_s : float;
  lg_peak_rss_bytes : int; (* VmHWM growth over the pre-analysis baseline *)
  lg_rss_fraction : float; (* RSS growth / trace bytes; must stay < 0.25 *)
  lg_rss_reset : bool;     (* VmHWM re-armed after generation? *)
}

(* The pipeline the flat format replaced, end to end: serving a stored
   trace to the fused engine used to cost a full digest pass plus a
   varint decode into fresh heap columns per request; now it costs an
   mmap and a structural validation pass, and the engine reads the file
   pages in place. Both sides are timed over the complete store-to-stats
   path, byte-checking the results against each other first. *)
let run_analyze_bench ~size =
  let name = "eqnx" in
  let w = Option.get (Ddg_workloads.Registry.find name) in
  Printf.eprintf "analyze-bench: tracing %s (%s)\n%!" name
    (Ddg_workloads.Workload.size_to_string size);
  let _, trace = Ddg_workloads.Workload.trace w size in
  let events = Ddg_sim.Trace.length trace in
  let nconfigs = List.length fused_configs in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg-analyze-bench-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let legacy_path = Filename.concat dir "trace.v1" in
      let flat_path = Filename.concat dir "trace.v3" in
      Ddg_sim.Trace_io.write_file legacy_path trace;
      Ddg_sim.Trace_io.write_file_flat flat_path trace;
      let stats_blob tr =
        String.concat "\n"
          (List.map Ddg_paragraph.Stats_codec.to_string
             (Ddg_paragraph.Analyzer.analyze_many fused_configs tr))
      in
      (* the legacy store path verified the artifact digest before
         decoding; charge it here so both sides carry their whole
         integrity story *)
      let legacy () =
        ignore (Sys.opaque_identity (Digest.file legacy_path));
        stats_blob (Ddg_sim.Trace_io.read_file legacy_path)
      in
      let flat () =
        stats_blob (Ddg_sim.Trace_io.map_file ~verify:false flat_path)
      in
      if legacy () <> flat () then begin
        Printf.eprintf
          "analyze-bench: fused stats differ between the stored v1 and \
           mapped v3 trace\n%!";
        exit 1
      end;
      let best_of_3 f =
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (f ()));
          let dt = Unix.gettimeofday () -. t0 in
          if dt < !best then best := dt
        done;
        !best
      in
      Printf.eprintf "analyze-bench: legacy store path (digest + decode)\n%!";
      let legacy_wall = best_of_3 legacy in
      Printf.eprintf "analyze-bench: zero-copy store path (mmap)\n%!";
      let flat_wall = best_of_3 flat in
      let rate wall =
        if wall > 0.0 then float_of_int (nconfigs * events) /. wall else 0.0
      in
      let speedup =
        if flat_wall > 0.0 then legacy_wall /. flat_wall else 0.0
      in
      Printf.printf
        "zero-copy bench (%s %s, %d events, %d fused configs, \
         byte-identical stats):\n"
        name
        (Ddg_workloads.Workload.size_to_string size)
        events nconfigs;
      Printf.printf "  %-28s %12.0f events/s\n" "stored v1 (digest+decode)"
        (rate legacy_wall);
      Printf.printf "  %-28s %12.0f events/s  (%.2fx)\n"
        "stored v3 (mmap in place)" (rate flat_wall) speedup;
      { zb_workload = name; zb_events = events; zb_configs = nconfigs;
        zb_legacy_events_per_s = rate legacy_wall;
        zb_flat_events_per_s = rate flat_wall;
        zb_speedup = speedup })

(* available bytes on the filesystem holding [dir], via df(1) *)
let free_disk_bytes dir =
  match
    Unix.open_process_in
      (Printf.sprintf "df -Pk %s 2>/dev/null" (Filename.quote dir))
  with
  | exception _ -> None
  | ic -> (
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      match (Unix.close_process_in ic, !lines) with
      | Unix.WEXITED 0, last :: _ -> (
          match
            List.filter (fun s -> s <> "") (String.split_on_char ' ' last)
          with
          | _fs :: _total :: _used :: avail_kb :: _ ->
              Option.map (fun kb -> kb * 1024) (int_of_string_opt avail_kb)
          | _ -> None)
      | _ -> None)

(* one synthetic event: a deterministic mix of ALU ops, loads/stores over
   a 4 KiB-word working set, and conditional branches — enough location
   churn to keep the live well honest without growing it with the trace *)
let synthetic_event i =
  let open Ddg_isa in
  let r k = Loc.Reg ((i + k) mod 32) in
  let m = Loc.Mem (i * 13 mod 4096 * 4) in
  if i mod 7 = 0 then
    { Ddg_sim.Trace.pc = i mod 997; op_class = Opclass.Load_store;
      dest = Some (r 1); srcs = [ m; r 2 ]; branch = None }
  else if i mod 11 = 0 then
    { Ddg_sim.Trace.pc = i mod 997; op_class = Opclass.Control; dest = None;
      srcs = [ r 3 ];
      branch = Some { Ddg_sim.Trace.taken = i mod 2 = 0 } }
  else if i mod 5 = 0 then
    { Ddg_sim.Trace.pc = i mod 997; op_class = Opclass.Fp_add_sub;
      dest = Some (Loc.Freg (i mod 32)); srcs = [ Loc.Freg ((i + 9) mod 32) ];
      branch = None }
  else
    { Ddg_sim.Trace.pc = i mod 997; op_class = Opclass.Int_alu;
      dest = Some (r 0); srcs = [ r 4; r 5 ]; branch = None }

(* The >RAM claim, measured: generate a >1 GiB flat trace with the
   streaming writer, re-arm the kernel's RSS high-water mark, then
   stream it through the full analyzer. The RSS high-water growth over
   the pre-analysis baseline is the analyzer's true working set; it
   must stay under 25% of the trace. *)
let run_large_bench () =
  let lg_events = 28_000_000 in
  let dir = Filename.get_temp_dir_name () in
  let need = 2 * 1024 * 1024 * 1024 in
  match free_disk_bytes dir with
  | Some avail when avail < need -> Skipped "disk"
  | None | Some _ -> (
      let path =
        Filename.concat dir
          (Printf.sprintf "ddg-large-bench-%d.trace" (Unix.getpid ()))
      in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Printf.eprintf "large-bench: generating %d synthetic events\n%!"
            lg_events;
          match
            let fw = Ddg_sim.Trace_io.flat_writer ~events:lg_events path in
            for i = 0 to lg_events - 1 do
              Ddg_sim.Trace_io.flat_add fw (synthetic_event i)
            done;
            Ddg_sim.Trace_io.flat_close fw
          with
          | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> Skipped "disk"
          | () ->
              let bytes = (Unix.stat path).Unix.st_size in
              Printf.eprintf
                "large-bench: streaming %.2f GiB through the analyzer\n%!"
                (float_of_int bytes /. (1024.0 *. 1024.0 *. 1024.0));
              let reset = Ddg_obs.Obs.reset_peak_rss () in
              (* the re-armed mark starts at the process's current RSS,
                 which includes whatever earlier bench sections left
                 resident — the streaming claim is about the *growth*
                 during the pass, so measure against that baseline *)
              let rss_baseline =
                match Ddg_obs.Obs.peak_rss_bytes () with
                | Some n -> n
                | None -> 0
              in
              let t0 = Unix.gettimeofday () in
              let stats =
                Ddg_paragraph.Analyzer.analyze_stream ~verify:false
                  Ddg_paragraph.Config.default path
              in
              let wall = Unix.gettimeofday () -. t0 in
              if stats.Ddg_paragraph.Analyzer.events <> lg_events then begin
                Printf.eprintf
                  "large-bench: analyzer saw %d events, wrote %d\n%!"
                  stats.Ddg_paragraph.Analyzer.events lg_events;
                exit 1
              end;
              let rss =
                match Ddg_obs.Obs.peak_rss_bytes () with
                | Some n -> max 0 (n - rss_baseline)
                | None -> 0
              in
              if rss = 0 then Skipped "procfs"
              else begin
                let fraction = float_of_int rss /. float_of_int bytes in
                let rate =
                  if wall > 0.0 then float_of_int lg_events /. wall else 0.0
                in
                Printf.printf
                  "large bench: %d events (%.2f GiB) streamed in %.1fs \
                   (%.0f events/s); peak RSS grew %.0f MiB = %.1f%% of the \
                   trace\n"
                  lg_events
                  (float_of_int bytes /. (1024.0 *. 1024.0 *. 1024.0))
                  wall rate
                  (float_of_int rss /. (1024.0 *. 1024.0))
                  (100.0 *. fraction);
                if reset && fraction >= 0.25 then begin
                  Printf.eprintf
                    "large-bench: peak RSS grew by %.1f%% of the trace; the \
                     bounded-memory claim is violated\n%!"
                    (100.0 *. fraction);
                  exit 1
                end;
                Ran
                  { lg_events; lg_trace_bytes = bytes;
                    lg_events_per_s = rate; lg_peak_rss_bytes = rss;
                    lg_rss_fraction = fraction; lg_rss_reset = reset }
              end))

(* --- BENCH.json ---------------------------------------------------------- *)

let write_bench_json path ~size ~sections ~micro ~cache ~serve ~cluster
    ~fault ~obs ~recovery ~zero_copy =
  let open Ddg_report.Json in
  let meta_fields =
    (* where these numbers came from: parallel and cluster scaling claims
       are meaningless without the core count next to them *)
    [ ( "meta",
        Obj
          [ ("cores", Int (Domain.recommended_domain_count ()));
            ("hostname", String (Unix.gethostname ())) ] ) ]
  in
  let micro_fields =
    match micro with
    | None -> []
    | Some (events, measured, nconfigs, fused_speedup) ->
        [ ( "micro",
            Obj
              [ ("workload", String "eqnx");
                ("size", String "tiny");
                ("trace_events", Int events);
                ("unmarked_trace_seed_v1", Bool true);
                ( "benchmarks",
                  List
                    (List.filter_map
                       (fun (name, r) ->
                         match r with
                         | None -> None
                         | Some (ns, events_per_s) ->
                             Some
                               (Obj
                                  [ ("name", String name);
                                    ("ns_per_run", Float ns);
                                    ( "events_per_s",
                                      match events_per_s with
                                      | Some r -> Float r
                                      | None -> Null ) ]))
                       measured) );
                ( "fused",
                  Obj
                    [ ("configs", Int nconfigs);
                      ( "speedup_vs_sequential",
                        match fused_speedup with
                        | Some s -> Float s
                        | None -> Null ) ] ) ] ) ]
  in
  let cache_fields =
    match cache with
    | None -> []
    | Some c ->
        [ ( "cache",
            Obj
              ([ ("workers", Int c.cb_workers);
                 ("suite_jobs", Int c.cb_suite_jobs);
                 ("cold_j1_seconds", Float c.cb_cold_j1) ]
              (* at -j 1 the second cold run repeats the first: it has no
                 key of its own and there is no speedup to report *)
              @ (if c.cb_workers > 1 then
                   [ ( Printf.sprintf "cold_j%d_seconds" c.cb_workers,
                       Float c.cb_cold_jn );
                     ( "parallel_speedup",
                       if c.cb_cold_jn > 0.0 then
                         Float (c.cb_cold_j1 /. c.cb_cold_jn)
                       else Null ) ]
                 else [])
              @ [ ("warm_seconds", Float c.cb_warm);
                  ( "warm_speedup",
                    if c.cb_warm > 0.0 then Float (c.cb_cold_j1 /. c.cb_warm)
                    else Null );
                  ("warm_run_cache_hot", Bool true) ]) ) ]
  in
  let serve_fields =
    match serve with
    | None -> []
    | Some s ->
        [ ( "serve",
            Obj
              [ ("workload", String s.sb_workload);
                ("cold_seconds", Float s.sb_cold);
                ("daemon_first_request_seconds", Float s.sb_daemon_first);
                ("warm_mean_seconds", Float s.sb_warm_mean);
                ("warm_min_seconds", Float s.sb_warm_min);
                ("warm_requests", Int s.sb_warm_requests);
                ( "warm_speedup_vs_cold",
                  if s.sb_warm_mean > 0.0 then Float (s.sb_cold /. s.sb_warm_mean)
                  else Null );
                ("warm_zero_work", Bool true) ] ) ]
  in
  let cluster_fields =
    match cluster with
    | None -> []
    | Some (Skipped reason) ->
        [ ("cluster", Obj [ ("skipped", String reason) ]) ]
    | Some (Ran k) ->
        [ ( "cluster",
            Obj
              [ ( "workloads",
                  List (List.map (fun w -> String w) k.klb_workloads) );
                ("warm_requests", Int k.klb_warm_requests);
                ( "nodes",
                  List
                    (List.map
                       (fun (n, rps) ->
                         Obj
                           [ ("nodes", Int n);
                             ("warm_requests_per_s", Float rps) ])
                       k.klb_nodes) );
                ("routed_byte_identical_vs_direct", Bool true) ] ) ]
  in
  let fault_fields =
    match fault with
    | None -> []
    | Some f ->
        [ ( "fault",
            Obj
              [ ("fire_disabled_ns", Float f.fb_fire_disabled_ns);
                ("fire_armed_p0_ns", Float f.fb_fire_armed_ns);
                ("store_roundtrip_injector_off_ns", Float f.fb_store_off_ns);
                ("store_roundtrip_armed_p0_ns", Float f.fb_store_armed_ns);
                ( "armed_overhead_ratio",
                  if f.fb_store_off_ns > 0.0 then
                    Float (f.fb_store_armed_ns /. f.fb_store_off_ns)
                  else Null ) ] ) ]
  in
  let obs_fields =
    match obs with
    | None -> []
    | Some o ->
        [ ( "obs",
            Obj
              [ ("counter_disabled_ns", Float o.ob_counter_disabled_ns);
                ("counter_enabled_ns", Float o.ob_counter_enabled_ns);
                ("span_disabled_ns", Float o.ob_span_disabled_ns);
                ("span_enabled_ns", Float o.ob_span_enabled_ns);
                ("analyze_obs_off_ns", Float o.ob_analyze_off_ns);
                ("analyze_obs_on_ns", Float o.ob_analyze_on_ns);
                ( "analyze_overhead_ratio",
                  if o.ob_analyze_off_ns > 0.0 then
                    Float (o.ob_analyze_on_ns /. o.ob_analyze_off_ns)
                  else Null ) ] ) ]
  in
  let zero_copy_fields =
    match zero_copy with
    | None -> []
    | Some (fused, large) ->
        let fused_obj =
          Obj
            [ ("workload", String fused.zb_workload);
              ("trace_events", Int fused.zb_events);
              ("configs", Int fused.zb_configs);
              ( "legacy_store_path_events_per_s",
                Float fused.zb_legacy_events_per_s );
              ("flat_mmap_events_per_s", Float fused.zb_flat_events_per_s);
              ("speedup", Float fused.zb_speedup);
              ("stats_byte_identical", Bool true) ]
        in
        let large_obj =
          match large with
          | Skipped reason -> Obj [ ("skipped", String reason) ]
          | Ran l ->
              Obj
                [ ("trace_events", Int l.lg_events);
                  ("trace_bytes", Int l.lg_trace_bytes);
                  ("events_per_s", Float l.lg_events_per_s);
                  ("peak_rss_delta_bytes", Int l.lg_peak_rss_bytes);
                  ("rss_fraction_of_trace", Float l.lg_rss_fraction);
                  ("rss_mark_reset", Bool l.lg_rss_reset) ]
        in
        [ ("zero_copy", Obj [ ("fused", fused_obj); ("large", large_obj) ]) ]
  in
  let recovery_fields =
    match recovery with
    | None -> []
    | Some r ->
        [ ( "recovery",
            Obj
              [ ("nodes", Int r.rb_nodes);
                ("killed", String r.rb_killed);
                ("respawns", Int r.rb_respawns);
                ("requests_during_churn", Int r.rb_requests_during_churn);
                ("failed_during_churn", Int r.rb_failed_during_churn);
                ("time_to_healthy_seconds", Float r.rb_time_to_healthy_s);
                ("responses_byte_identical", Bool true) ] ) ]
  in
  let json =
    Obj
      ([ ("size", String (Ddg_workloads.Workload.size_to_string size));
         ( "seed_baseline",
           Obj (List.map (fun (k, v) -> (k, Float v)) seed_baseline) );
         ( "sections",
           List
             (List.map
                (fun (name, seconds) ->
                  Obj
                    [ ("name", String name);
                      ("wall_seconds", Float seconds) ])
                (List.rev sections)) ) ]
      @ meta_fields @ cache_fields @ serve_fields @ cluster_fields
      @ recovery_fields @ fault_fields @ obs_fields @ zero_copy_fields
      @ micro_fields)
  in
  let oc = open_out path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc

(* --- main ------------------------------------------------------------------ *)

let () =
  let { size; only; micro; json_path; jobs = workers; cache_dir; no_cache;
        cache_bench; serve_bench; cluster_bench; fault_bench; obs_bench;
        recovery_bench; analyze_bench } =
    parse_args ()
  in
  let cores = Domain.recommended_domain_count () in
  (if cores = 1 && (workers > 1 || cache_bench) then
     Printf.eprintf
       "bench: warning: only 1 core available; parallel numbers will not \
        show scaling\n%!");
  let t0 = Unix.gettimeofday () in
  let progress msg =
    Printf.eprintf "[%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) msg
  in
  let section_times = ref [] in
  let timed name f =
    let t = Unix.gettimeofday () in
    let r = f () in
    section_times := (name, Unix.gettimeofday () -. t) :: !section_times;
    r
  in
  (* must run before Runner.create and every other bench: the
     supervisor's spawner child has to fork from a process that has
     not yet created any domain or thread *)
  let recovery_results =
    if recovery_bench then begin
      section_banner "recovery (self-healing fleet) benchmark";
      Some (timed "recovery-bench" (fun () -> run_recovery_bench ~size))
    end
    else None
  in
  let store =
    if no_cache then None
    else Option.map (fun dir -> Ddg_store.Store.open_ ~dir ()) cache_dir
  in
  let runner = Runner.create ~size ~progress ?store ~workers () in
  let jobs = suite_jobs runner in
  (match only with
  | Some ("table1" | "compiler") -> ()
  | _ -> timed "prefetch" (fun () -> Runner.prefetch runner jobs));
  let sections =
    [ ("table1", fun () -> Table1.render ());
      ("table2", fun () -> Table2.render runner);
      ("table3", fun () -> Table3.render runner);
      ("table4", fun () -> Table4.render runner);
      ("fig7", fun () -> Fig7.render runner);
      ("fig8", fun () -> Fig8.render runner);
      ("extras", fun () -> Extras.render runner);
      ("resources", fun () -> Ablation.render_resources runner);
      ("branches", fun () -> Ablation.render_branches runner);
      ("compiler", fun () -> Compiler_fx.render runner) ]
  in
  let wanted =
    match only with
    | None -> sections
    | Some name -> List.filter (fun (n, _) -> n = name) sections
  in
  if wanted = [] then failwith "no such section";
  Printf.printf
    "Dynamic Dependency Analysis of Ordinary Programs - evaluation \
     reproduction\n(Austin & Sohi, ISCA 1992; Mini-C SPEC'89 analogs, %s \
     size)\n"
    (Ddg_workloads.Workload.size_to_string size);
  List.iter
    (fun (name, render) ->
      section_banner name;
      print_string (timed name render);
      flush stdout)
    wanted;
  let micro_results =
    if micro && only = None then begin
      section_banner "microbenchmarks";
      Some (timed "microbenchmarks" microbenchmarks)
    end
    else None
  in
  let cache_results =
    if cache_bench then begin
      section_banner "cache + job-engine benchmark";
      Some (timed "cache-bench" (fun () -> run_cache_bench ~size ~workers))
    end
    else None
  in
  let serve_results =
    if serve_bench then begin
      section_banner "daemon (serve) benchmark";
      Some (timed "serve-bench" (fun () -> run_serve_bench ~size ~workers))
    end
    else None
  in
  let cluster_results =
    if cluster_bench then begin
      section_banner "cluster (router + sharded fleet) benchmark";
      if cores = 1 then begin
        Printf.printf
          "cluster bench skipped: cores=1 (single-core runner; scaling \
           numbers would be meaningless)\n";
        Some (Skipped "cores=1")
      end
      else Some (Ran (timed "cluster-bench" (fun () -> run_cluster_bench ~size)))
    end
    else None
  in
  let fault_results =
    if fault_bench then begin
      section_banner "fault-injector overhead benchmark";
      Some (timed "fault-bench" (fun () -> run_fault_bench ()))
    end
    else None
  in
  let obs_results =
    if obs_bench then begin
      section_banner "observability overhead benchmark";
      Some (timed "obs-bench" (fun () -> run_obs_bench ()))
    end
    else None
  in
  let zero_copy_results =
    if analyze_bench then begin
      section_banner "zero-copy (flat trace) benchmark";
      let fused = timed "analyze-bench" (fun () -> run_analyze_bench ~size) in
      let large = timed "large-bench" (fun () -> run_large_bench ()) in
      (match large with
      | Skipped reason ->
          Printf.printf
            "large bench skipped: %s (not enough free space for a >1 GiB \
             trace, or no procfs RSS counter)\n"
            reason
      | Ran _ -> ());
      Some (fused, large)
    end
    else None
  in
  write_bench_json json_path ~size ~sections:!section_times
    ~micro:micro_results ~cache:cache_results ~serve:serve_results
    ~cluster:cluster_results ~fault:fault_results ~obs:obs_results
    ~recovery:recovery_results
    ~zero_copy:zero_copy_results;
  Printf.eprintf "[%7.1fs] done (%s written)\n%!"
    (Unix.gettimeofday () -. t0)
    json_path
