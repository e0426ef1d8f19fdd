(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Tables 1-4, Figures 7-8), the section 2.3
   secondary analyses, two ablations (finite functional units; branch
   misprediction firewalls), and times the tool itself. Results land
   both on stdout and in BENCH.json.

   Usage: main.exe [--size tiny|default|large] [--only SECTION]
   [--no-micro] [--json PATH] [-j N] [--cache-dir DIR] [--no-cache]
   [--fault-bench] [--obs-bench] [--recovery-bench] [--analyze-bench]
   where SECTION is one of table1 table2 table3 table4 fig7 fig8 extras
   resources branches compiler.

   The harness runs uncached unless --cache-dir is given; -j sizes the
   prefetch job-engine domain pool. Every timing in BENCH.json comes
   from one sampler (below). End-to-end serving, routing and batch
   prefetch are perfbench's to measure; the modes here time what it
   does not, and each exits nonzero when the outputs it times disagree:
   - microbenchmarks (eqnx tiny, on unless --no-micro): the analyzer,
     the fused pass against sequential calls, simulation, compilation
     and the explicit DDG build;
   - --fault-bench and --obs-bench: probe costs with the injector or
     gate off and on, and the overhead on a store roundtrip or an
     analyzer pass;
   - --recovery-bench: kill a backend of a supervised 3-node fleet under
     warm traffic, and time until it is respawned and every answer is
     byte-identical again;
   - --analyze-bench: the fused engine fed from a stored v1 trace against
     an mmapped v3 trace, and a >1 GiB flat trace streamed through the
     analyzer in bounded memory. *)

open Ddg_experiments
module Json = Ddg_report.Json

type opts = {
  size : Ddg_workloads.Workload.size;
  only : string option;
  micro : bool;
  json_path : string;
  jobs : int;
  cache_dir : string option;
  no_cache : bool;
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
        no_cache = false; fault_bench = false; obs_bench = false;
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

(* Throughput of the seed revision on the microbenchmark input (eqnx
   tiny, 15490 events), kept so BENCH.json carries the baseline the
   "analyze trace (full renaming)" row is compared against. *)
let seed_baseline =
  Json.Obj [ ("analyze trace (full renaming) events/s", Float 4_710_000.0) ]

(* --- the sampler ---------------------------------------------------------- *)

let rounds = 20

(* A full major collection (garbage an earlier section left, such as
   the suite's dead runner, would otherwise be marked and swept inside
   the timed calls), one warm-up call of each thunk, then [rounds]
   rounds calling each once, the order reversed every other round so
   neither side of a pair always runs first. A sample is one call's
   monotonic time in ns, divided by [per], the probes a batched thunk
   makes. *)
let sample ?(per = 1) thunks =
  let thunks = Array.of_list thunks in
  let k = Array.length thunks in
  let ns = Array.make_matrix k rounds 0.0 in
  Gc.full_major ();
  Array.iter (fun f -> f ()) thunks;
  for r = 0 to rounds - 1 do
    for i = 0 to k - 1 do
      let j = if r land 1 = 0 then i else k - 1 - i in
      let t0 = Ddg_obs.Obs.Clock.monotonic_ns () in
      thunks.(j) ();
      ns.(j).(r) <-
        float_of_int (Ddg_obs.Obs.Clock.monotonic_ns () - t0)
        /. float_of_int per
    done
  done;
  Array.to_list ns

let sample1 ?per f = List.hd (sample ?per [ f ])

let sample2 ?per a b =
  match sample ?per [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false

type summary = { median : float; low : float; high : float; n : int }

(* The median and a distribution-free 95% interval from order
   statistics: the k-th smallest and k-th largest of n samples bracket
   the median with probability 1 - 2 P(Binom(n, 1/2) < k); k is the
   largest keeping that at least 0.95 (n = 20: the 6th to 15th value). *)
let summarize xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  let below k =
    let p = ref 0.0 and c = ref 1.0 in
    for i = 0 to k - 1 do
      p := !p +. !c;
      c := !c *. float_of_int (n - i) /. float_of_int (i + 1)
    done;
    !p /. (2.0 ** float_of_int n)
  in
  let rec rank k =
    if k < n / 2 && below (k + 1) <= 0.025 then rank (k + 1) else k
  in
  let k = max 1 (rank 0) in
  { median = (a.((n - 1) / 2) +. a.(n / 2)) /. 2.0; low = a.(k - 1);
    high = a.(n - k); n }

(* per-round [a / b]: resolved when its interval excludes 1 *)
let ratio a b = summarize (Array.map2 ( /. ) a b)
let resolved r = r.low > 1.0 || r.high < 1.0

let summary_fields s =
  [ ("median", Json.Float s.median); ("low", Float s.low);
    ("high", Float s.high); ("n", Int s.n) ]

let summary_json s = Json.Obj (summary_fields s)

let ratio_json r =
  Json.Obj (summary_fields r @ [ ("resolved", Bool (resolved r)) ])

let show ?(decimals = 0) s =
  let cell = Ddg_report.Table.float_cell ~decimals in
  Printf.sprintf "%s [%s, %s]" (cell s.median) (cell s.low) (cell s.high)

let show_ratio r =
  let x = Printf.sprintf "%.3fx [%.3f, %.3f]" r.median r.low r.high in
  if resolved r then x else "no measurable difference (" ^ x ^ ")"

let rate ~work ns = Array.map (fun t -> float_of_int work *. 1e9 /. t) ns

(* --- microbenchmarks ------------------------------------------------------ *)

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
  let module Analyzer = Ddg_paragraph.Analyzer in
  let module Config = Ddg_paragraph.Config in
  (* a small fixed trace for the analysis benchmarks *)
  let w = Option.get (Ddg_workloads.Registry.find "eqnx") in
  let _, trace = Ddg_workloads.Workload.trace w Ddg_workloads.Workload.Tiny in
  let events = Ddg_sim.Trace.length trace in
  let program =
    Ddg_workloads.Workload.program w Ddg_workloads.Workload.Tiny
  in
  let minic_source = w.Ddg_workloads.Workload.source Ddg_workloads.Workload.Tiny in
  let nconfigs = List.length fused_configs in
  let analyze config () = ignore (Analyzer.analyze config trace) in
  Printf.printf
    "Microbenchmarks (eqnx tiny: %d trace events; median ns per run [95%% \
     interval], %d rounds):\n\n"
    events rounds;
  (* [passes]: trace passes per run, for the events/s column; rows
     with none (simulate, compile) have no rate *)
  let row name passes ns =
    let t = summarize ns in
    let eps =
      if passes = 0 then None
      else Some (summarize (rate ~work:(passes * events) ns))
    in
    Printf.printf "  %-40s %34s ns/run%s\n" name (show t)
      (match eps with
      | Some r -> Printf.sprintf "  (%10.0f events/s)" r.median
      | None -> "");
    Json.Obj
      [ ("name", String name); ("ns_per_run", summary_json t);
        ( "events_per_s",
          match eps with Some r -> summary_json r | None -> Null ) ]
  in
  let single name passes f = row name passes (sample1 f) in
  let full =
    single "analyze trace (full renaming)" 1 (analyze Config.default)
  in
  let none =
    single "analyze trace (no renaming)" 1
      (analyze Config.(with_renaming rename_none default))
  in
  let window =
    single "analyze trace (window=100)" 1
      (analyze Config.(with_window (Some 100) default))
  in
  let fused_ns, seq_ns =
    sample2
      (fun () -> ignore (Analyzer.analyze_many fused_configs trace))
      (fun () -> List.iter (fun c -> analyze c ()) fused_configs)
  in
  let fused =
    row (Printf.sprintf "analyze_many (%d configs, fused)" nconfigs) nconfigs
      fused_ns
  in
  let seq =
    row (Printf.sprintf "%d sequential analyze calls" nconfigs) nconfigs seq_ns
  in
  let simulate =
    single "simulate program" 0 (fun () ->
        ignore (Ddg_sim.Machine.run program))
  in
  let compile =
    single "compile Mini-C workload" 0 (fun () ->
        ignore (Ddg_minic.Driver.compile minic_source))
  in
  let ddg =
    single "explicit DDG build" 1 (fun () ->
        ignore (Ddg_paragraph.Ddg.build Config.default trace))
  in
  let speedup = ratio seq_ns fused_ns in
  Printf.printf "\n  analyze_many speedup over %d sequential calls: %s\n\n"
    nconfigs (show_ratio speedup);
  ( "micro",
    Json.Obj
      [ ("workload", String "eqnx"); ("size", String "tiny");
        ("trace_events", Int events);
        ( "benchmarks",
          List [ full; none; window; fused; seq; simulate; compile; ddg ] );
        ( "fused",
          Obj
            [ ("configs", Int nconfigs);
              ("speedup_vs_sequential", ratio_json speedup) ] ) ] )

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

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let temp_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ddg-%s-%d" tag (Unix.getpid ()))

(* --- recovery (self-healing fleet) benchmark ------------------------------ *)

(* A supervised forked 3-node fleet behind a router: each round kills
   one backend under warm traffic and lasts until the supervisor has
   respawned it AND every workload serves byte-identical responses
   again. A zero flap window makes every kill a first death (the base
   backoff, never the flap cap), so the rounds are alike. Must run
   before the harness creates any thread or domain: the supervisor's
   spawner child forks from this process. *)
let run_recovery_bench ~size =
  let module Protocol = Ddg_protocol.Protocol in
  let module Client = Ddg_server.Client in
  let module Router = Ddg_cluster.Router in
  let module Fleet = Ddg_cluster.Fleet in
  let workloads = [ "mtxx"; "eqnx"; "espx"; "fpx" ] in
  let config = Ddg_paragraph.Config.default in
  let nodes = 3 in
  let base = temp_path "recovery-bench" in
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
      ~flap_window_s:0.0
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
              let requests = ref 0 and failed = ref 0 in
              let kill_and_heal () =
                let respawned = Fleet.supervisor_respawns sup + 1 in
                let give_up = Unix.gettimeofday () +. 30.0 in
                Fleet.supervisor_kill sup victim;
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
                    Fleet.supervisor_respawns sup >= respawned
                    && List.for_all
                         (fun (_, st) ->
                           match st with `Running _ -> true | _ -> false)
                         (Fleet.supervisor_status sup)
                  in
                  if not (ok && healed) then begin
                    Thread.delay 0.05;
                    until_healthy ()
                  end
                in
                until_healthy ()
              in
              Printf.eprintf "recovery-bench: killing %s, %d rounds\n%!" victim
                rounds;
              let heal =
                summarize
                  (Array.map (fun ns -> ns /. 1e9) (sample1 kill_and_heal))
              in
              let respawns = Fleet.supervisor_respawns sup in
              Printf.printf
                "recovery bench: %d nodes, killed %s %d times; healthy again \
                 in %s s (%d respawns, %d/%d requests failed during churn)\n%!"
                nodes victim (rounds + 1) (show ~decimals:3 heal) respawns
                !failed !requests;
              ( "recovery",
                Json.Obj
                  [ ("nodes", Int nodes); ("killed", String victim);
                    ("kills", Int (rounds + 1)); ("respawns", Int respawns);
                    ("requests_during_churn", Int !requests);
                    ("failed_during_churn", Int !failed);
                    ("time_to_healthy_s", summary_json heal) ] ))))

(* --- fault-injector overhead benchmark ------------------------------------ *)

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

(* Probes per timed call: one nanosecond probe is below the clock's
   resolution, so each probe is timed in a batch, a loop written out
   around it (a closure call per probe would cost as much as the
   probe). *)
let batch = 10_000

let per_probe batch_loop = summarize (sample1 ~per:batch batch_loop)

(* store roundtrips per timed call: one roundtrip's two fsyncs vary
   too much from call to call for a pair of single calls to compare *)
let roundtrips = 10

let run_fault_bench () =
  let module Fault = Ddg_fault.Fault in
  let arm () = Fault.enable ~seed:0 ~sites:all_sites_at_zero in
  let fire_batch () =
    for _ = 1 to batch do
      if Fault.fire "bench.probe" then failwith "fault-bench: p=0 site fired"
    done
  in
  Fault.disable ();
  let fire_disabled = per_probe fire_batch in
  arm ();
  let fire_armed = per_probe fire_batch in
  Fault.disable ();
  (* the hottest probe-bearing production path: a store put+find
     roundtrip (enospc, torn and bitflip probes plus two fsyncs) *)
  let dir = temp_path "fault-bench" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let store = Ddg_store.Store.open_ ~dir () in
      let payload = String.make 4096 'x' in
      let roundtrip () =
        for _ = 1 to roundtrips do
          Ddg_store.Store.put store ~kind:"bench" ~key:"probe"
            ~length:(String.length payload) (fun oc ->
              output_string oc payload);
          match
            Ddg_store.Store.find store ~kind:"bench" ~key:"probe" (fun ic ->
                really_input_string ic (String.length payload))
          with
          | Some s when String.length s = String.length payload -> ()
          | Some _ | None -> failwith "fault-bench: store roundtrip failed"
        done
      in
      (* the armed side re-arms the injector in its timed call: a
         microsecond against ten roundtrips' twenty fsyncs *)
      let off, armed =
        sample2 ~per:roundtrips
          (fun () ->
            Fault.disable ();
            roundtrip ())
          (fun () ->
            arm ();
            roundtrip ())
      in
      let store_off = summarize off and store_armed = summarize armed in
      let overhead = ratio armed off in
      Printf.printf
        "fault bench (median [95%% interval], %d rounds):\n\
        \  fire disabled    %s ns\n\
        \  fire armed(p=0)  %s ns\n\
        \  store roundtrip  %s ns off / %s ns armed\n\
        \  armed overhead   %s\n"
        rounds (show ~decimals:2 fire_disabled) (show ~decimals:2 fire_armed)
        (show store_off) (show store_armed)
        (show_ratio overhead);
      ( "fault",
        Json.Obj
          [ ("fire_disabled_ns", summary_json fire_disabled);
            ("fire_armed_p0_ns", summary_json fire_armed);
            ("store_roundtrip_injector_off_ns", summary_json store_off);
            ("store_roundtrip_armed_p0_ns", summary_json store_armed);
            ("armed_overhead_ratio", ratio_json overhead) ] ))

(* --- observability overhead benchmark ------------------------------------ *)

(* The disabled path is the product constraint: every instrumented site
   in the analyzer, store, pool and server pays one [Obs.incr]/[Obs.time]
   per hit whether or not anyone is observing, so a closed gate must
   cost a single atomic load (same discipline as the fault injector's
   [fire]). *)
let run_obs_bench () =
  let module Obs = Ddg_obs.Obs in
  let counter = Obs.counter "ddg_bench_probe_total" in
  let span = Obs.span_site "ddg_bench_probe_ns" in
  let counter_batch () =
    for _ = 1 to batch do
      Obs.incr counter
    done
  in
  let span_batch () =
    for _ = 1 to batch do
      Obs.time span (fun () -> ())
    done
  in
  Obs.disable ();
  let counter_disabled = per_probe counter_batch in
  let span_disabled = per_probe span_batch in
  Obs.enable ();
  let counter_enabled = per_probe counter_batch in
  let span_enabled = per_probe span_batch in
  Obs.disable ();
  (* the instrumented hot path end to end: one analyzer pass over a
     fixed tiny trace, with the gate closed and open *)
  let w = Option.get (Ddg_workloads.Registry.find "eqnx") in
  let _, trace = Ddg_workloads.Workload.trace w Ddg_workloads.Workload.Tiny in
  let analyze () =
    ignore (Ddg_paragraph.Analyzer.analyze Ddg_paragraph.Config.default trace)
  in
  let off, on =
    Fun.protect ~finally:Obs.disable (fun () ->
        sample2
          (fun () ->
            Obs.disable ();
            analyze ())
          (fun () ->
            Obs.enable ();
            analyze ()))
  in
  Obs.reset ();
  let analyze_off = summarize off and analyze_on = summarize on in
  let overhead = ratio on off in
  Printf.printf
    "obs bench (median [95%% interval], %d rounds):\n\
    \  counter   %s ns disabled / %s ns enabled\n\
    \  span      %s ns disabled / %s ns enabled\n\
    \  analyze   %s ns off / %s ns on\n\
    \  recording overhead  %s\n"
    rounds (show ~decimals:2 counter_disabled)
    (show ~decimals:2 counter_enabled) (show ~decimals:2 span_disabled)
    (show ~decimals:2 span_enabled)
    (show analyze_off) (show analyze_on)
    (show_ratio overhead);
  ( "obs",
    Json.Obj
      [ ("counter_disabled_ns", summary_json counter_disabled);
        ("counter_enabled_ns", summary_json counter_enabled);
        ("span_disabled_ns", summary_json span_disabled);
        ("span_enabled_ns", summary_json span_enabled);
        ("analyze_obs_off_ns", summary_json analyze_off);
        ("analyze_obs_on_ns", summary_json analyze_on);
        ("analyze_overhead_ratio", ratio_json overhead) ] )

(* --- zero-copy (flat trace) benchmark ----------------------------------- *)

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
  let dir = temp_path "analyze-bench" in
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
      let legacy_ns, flat_ns =
        sample2 (fun () -> ignore (legacy ())) (fun () -> ignore (flat ()))
      in
      let work = nconfigs * events in
      let legacy_rate = summarize (rate ~work legacy_ns) in
      let flat_rate = summarize (rate ~work flat_ns) in
      let speedup = ratio legacy_ns flat_ns in
      Printf.printf
        "zero-copy bench (%s %s, %d events, %d fused configs, \
         byte-identical stats; median events/s [95%% interval], %d rounds):\n\
        \  stored v1 (digest+decode)  %s\n\
        \  stored v3 (mmap in place)  %s\n\
        \  speedup                    %s\n"
        name
        (Ddg_workloads.Workload.size_to_string size)
        events nconfigs rounds (show legacy_rate)
        (show flat_rate) (show_ratio speedup);
      Json.Obj
        [ ("workload", String name); ("trace_events", Int events);
          ("configs", Int nconfigs);
          ("legacy_store_path_events_per_s", summary_json legacy_rate);
          ("flat_mmap_events_per_s", summary_json flat_rate);
          ("speedup", ratio_json speedup) ])

(* available bytes on the filesystem holding [dir], via df(1), whose
   POSIX output is a header and one line per filesystem *)
let free_disk_bytes dir =
  match
    Unix.open_process_in
      (Printf.sprintf "df -Pk %s 2>/dev/null" (Filename.quote dir))
  with
  | exception _ -> None
  | ic -> (
      let line =
        try
          ignore (input_line ic);
          input_line ic
        with End_of_file -> ""
      in
      match (Unix.close_process_in ic, String.split_on_char ' ' line) with
      | Unix.WEXITED 0, fields -> (
          match List.filter (fun s -> s <> "") fields with
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
   stream it through the full analyzer every round. The RSS high-water
   growth over the pre-analysis baseline is the analyzer's true working
   set; it must stay under 25% of the trace. *)
let run_large_bench () =
  let lg_events = 28_000_000 in
  let skipped reason =
    Printf.printf
      "large bench skipped: %s (not enough free space for a >1 GiB trace, or \
       no procfs RSS counter)\n"
      reason;
    Json.Obj [ ("skipped", String reason) ]
  in
  let dir = Filename.get_temp_dir_name () in
  let need = 2 * 1024 * 1024 * 1024 in
  match free_disk_bytes dir with
  | Some avail when avail < need -> skipped "disk"
  | None | Some _ -> (
      let path = temp_path "large-bench" ^ ".trace" in
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
          | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> skipped "disk"
          | () ->
              let bytes = (Unix.stat path).Unix.st_size in
              let gib = float_of_int bytes /. (1024.0 *. 1024.0 *. 1024.0) in
              Printf.eprintf
                "large-bench: streaming %.2f GiB through the analyzer, %d \
                 rounds\n%!"
                gib rounds;
              let reset = Ddg_obs.Obs.reset_peak_rss () in
              (* the re-armed mark starts at the process's current RSS,
                 which includes whatever earlier bench sections left
                 resident — the streaming claim is about the *growth*
                 during the passes, so measure against that baseline *)
              let rss_baseline =
                Option.value ~default:0 (Ddg_obs.Obs.peak_rss_bytes ())
              in
              let stream () =
                let stats =
                  Ddg_paragraph.Analyzer.analyze_stream ~verify:false
                    Ddg_paragraph.Config.default path
                in
                if stats.Ddg_paragraph.Analyzer.events <> lg_events then begin
                  Printf.eprintf
                    "large-bench: analyzer saw %d events, wrote %d\n%!"
                    stats.Ddg_paragraph.Analyzer.events lg_events;
                  exit 1
                end
              in
              let eps = summarize (rate ~work:lg_events (sample1 stream)) in
              let rss =
                match Ddg_obs.Obs.peak_rss_bytes () with
                | Some n -> max 0 (n - rss_baseline)
                | None -> 0
              in
              if rss = 0 then skipped "procfs"
              else begin
                let fraction = float_of_int rss /. float_of_int bytes in
                Printf.printf
                  "large bench: %d events (%.2f GiB) streamed at %s events/s; \
                   peak RSS grew %.0f MiB = %.1f%% of the trace\n"
                  lg_events gib (show eps)
                  (float_of_int rss /. (1024.0 *. 1024.0))
                  (100.0 *. fraction);
                if reset && fraction >= 0.25 then begin
                  Printf.eprintf
                    "large-bench: peak RSS grew by %.1f%% of the trace; the \
                     bounded-memory claim is violated\n%!"
                    (100.0 *. fraction);
                  exit 1
                end;
                Json.Obj
                  [ ("trace_events", Int lg_events); ("trace_bytes", Int bytes);
                    ("events_per_s", summary_json eps);
                    ("peak_rss_delta_bytes", Int rss);
                    ("rss_mark_reset", Bool reset) ]
              end))

(* --- main ------------------------------------------------------------------ *)

let () =
  let { size; only; micro; json_path; jobs = workers; cache_dir; no_cache;
        fault_bench; obs_bench; recovery_bench; analyze_bench } =
    parse_args ()
  in
  let cores = Domain.recommended_domain_count () in
  (if cores = 1 && workers > 1 then
     Printf.eprintf
       "bench: warning: only 1 core available; parallel numbers will not \
        show scaling\n%!");
  let t0 = Unix.gettimeofday () in
  let progress msg =
    Printf.eprintf "[%7.1fs] %s\n%!" (Unix.gettimeofday () -. t0) msg
  in
  (* each mode that runs prints under its banner and returns its
     BENCH.json block; the banner is flushed first, or every process
     the recovery bench forks would print it again when it exits *)
  let mode on banner run =
    if on then begin
      section_banner banner;
      flush stdout;
      [ run () ]
    end
    else []
  in
  (* must run before Runner.create and every other bench: the
     supervisor's spawner child has to fork from a process that has
     not yet created any domain or thread *)
  let recovery =
    mode recovery_bench "recovery (self-healing fleet) benchmark" (fun () ->
        run_recovery_bench ~size)
  in
  let store =
    if no_cache then None
    else Option.map (fun dir -> Ddg_store.Store.open_ ~dir ()) cache_dir
  in
  let runner = Runner.create ~size ~progress ?store ~workers () in
  let jobs = suite_jobs runner in
  (match only with
  | Some ("table1" | "compiler") -> ()
  | _ -> Runner.prefetch runner jobs);
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
      print_string (render ());
      flush stdout)
    wanted;
  let micro = mode (micro && only = None) "microbenchmarks" microbenchmarks in
  let fault =
    mode fault_bench "fault-injector overhead benchmark" run_fault_bench
  in
  let obs = mode obs_bench "observability overhead benchmark" run_obs_bench in
  let zero_copy =
    mode analyze_bench "zero-copy (flat trace) benchmark" (fun () ->
        let fused = run_analyze_bench ~size in
        let large = run_large_bench () in
        ("zero_copy", Json.Obj [ ("fused", fused); ("large", large) ]))
  in
  (* where these numbers came from: the machine and the command *)
  let argv =
    Array.mapi
      (fun i a -> Json.String (if i = 0 then Filename.basename a else a))
      Sys.argv
  in
  let json =
    Json.Obj
      ([ ("schema", Json.Int 2);
         ("size", String (Ddg_workloads.Workload.size_to_string size));
         ( "meta",
           Obj
             [ ("cores", Int cores);
               ("hostname", String (Unix.gethostname ()));
               ("ocaml", String Sys.ocaml_version);
               ("argv", List (Array.to_list argv)) ] );
         ("seed_baseline", seed_baseline) ]
      @ recovery @ micro @ fault @ obs @ zero_copy)
  in
  let oc = open_out json_path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "[%7.1fs] done (%s written)\n%!"
    (Unix.gettimeofday () -. t0)
    json_path
