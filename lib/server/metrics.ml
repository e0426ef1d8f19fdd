(* Request observability for the daemon, on the process-global
   {!Ddg_obs.Obs} registry: outcomes, latency and connection counts are
   obs counters and histograms, and five gauges hold what no series
   counts (uptime, resident trace bytes, worker respawns, quarantined
   artifacts, injected faults), set just before each [metrics] answer.
   [stats_report] derives [client stats] from such a snapshot, so the
   [metrics] verb is the daemon's one report of its own work.

   The outcome counters partition requests: every request lands in
   exactly one of ok/error/busy/deadline, so the snapshot invariant
   [requests_total = ok + error + busy + deadline] holds whenever no
   request is mid-record. *)

module Obs = Ddg_obs.Obs
module Json = Ddg_report.Json

type outcome = [ `Ok | `Error | `Busy | `Deadline ]

let requests_total = Obs.counter "ddg_server_requests_total"

let outcome_site name =
  Obs.counter ~labels:[ ("outcome", name) ] "ddg_server_requests_outcome_total"

let outcome_ok = outcome_site "ok"
let outcome_error = outcome_site "error"
let outcome_busy = outcome_site "busy"
let outcome_deadline = outcome_site "deadline"
let connections_total = Obs.counter "ddg_server_connections_total"
let retries_total = Obs.counter "ddg_server_retries_served_total"

let verb_counter verb =
  Obs.counter ~labels:[ ("verb", verb) ] "ddg_server_requests_verb_total"

let verb_latency verb =
  Obs.span_site ~labels:[ ("verb", verb) ] "ddg_server_request_ns"

(* every verb's sites exist up front (the registry find on the hot path
   is just a mutex + hashtable lookup), so a snapshot taken before a
   verb's first use already lists its series — scrapes see a stable
   schema, and reproducing a run never depends on which verbs ran *)
let () =
  List.iter
    (fun verb ->
      ignore (verb_counter verb : Obs.counter);
      ignore (verb_latency verb : Obs.span))
    Ddg_protocol.Protocol.verbs

(* the gauges; a cluster member labels them with its node id, so a
   router's federated snapshot keeps one series per member *)
let uptime_gauge = "ddg_server_uptime_ns"
let resident_gauge = "ddg_server_trace_resident_bytes"
let respawns_gauge = "ddg_server_worker_respawns"
let quarantines_gauge = "ddg_server_artifact_quarantines"
let faults_gauge = "ddg_server_faults_injected"

type t = { started_ns : int; labels : (string * string) list }

(* the daemon always observes itself: creating its metrics opens the
   gate, so every instrumented site in the process starts recording *)
let create ?node () =
  Obs.enable ();
  { started_ns = Obs.Clock.now_ns ();
    labels = (match node with Some id -> [ ("node", id) ] | None -> []) }

let connection (_ : t) = Obs.incr connections_total

let record (_ : t) ?(attempt = 0) ~verb ~(outcome : outcome) ~latency_ns () =
  Obs.incr requests_total;
  if attempt > 0 then Obs.incr retries_total;
  Obs.incr (verb_counter verb);
  Obs.incr
    (match outcome with
    | `Ok -> outcome_ok
    | `Error -> outcome_error
    | `Busy -> outcome_busy
    | `Deadline -> outcome_deadline);
  Obs.observe (verb_latency verb) latency_ns

(* uptime reads [Obs.Clock], so a fake clock makes it reproducible *)
let set_gauges t ~runner ~worker_respawns =
  List.iter
    (fun (name, v) -> Obs.set (Obs.gauge ~labels:t.labels name) v)
    [ (uptime_gauge, Obs.Clock.now_ns () - t.started_ns);
      (resident_gauge, runner.Ddg_experiments.Runner.trace_resident_bytes);
      (respawns_gauge, worker_respawns);
      (quarantines_gauge, runner.artifact_quarantines);
      (faults_gauge, Ddg_fault.Fault.injected ()) ]

(* --- client stats ----------------------------------------------------------- *)

(* [client stats], as text lines or one JSON object, from one daemon's
   snapshot or a router's federation of its fleet: the largest uptime is
   the fleet's, every other value sums over the series that carry it. A
   snapshot without an uptime gauge answers for no daemon (a router with
   no reachable backend) and is refused. *)
let stats_report ~json (s : Obs.snapshot) =
  let matching ?label name (c : Obs.counter_snapshot) =
    c.Obs.cs_name = name
    && match label with None -> true | Some kv -> List.mem kv c.cs_labels
  in
  let fold ?label name f =
    List.fold_left
      (fun acc c -> if matching ?label name c then f acc c.Obs.cs_value else acc)
      0
  in
  let counter ?label name = fold ?label name ( + ) s.Obs.counters in
  let gauge name = fold name ( + ) s.Obs.gauges in
  let hists name f =
    List.fold_left
      (fun acc (h : Obs.hist_snapshot) ->
        if h.Obs.hs_name = name then f acc h else acc)
      0 s.Obs.histograms
  in
  let count name = hists name (fun acc h -> acc + h.Obs.hs_count) in
  let seconds ns = float_of_int ns /. 1e9 in
  if not (List.exists (matching uptime_gauge) s.Obs.gauges) then
    Error "no backend reachable for stats"
  else
    let uptime_s = seconds (fold uptime_gauge max s.Obs.gauges) in
    let outcome name =
      counter ~label:("outcome", name) "ddg_server_requests_outcome_total"
    in
    let hits cache =
      counter ~label:("cache", cache) "ddg_runner_cache_hits_total"
    in
    let connections = counter "ddg_server_connections_total" in
    let requests_total = counter "ddg_server_requests_total" in
    let ok = outcome "ok" and error = outcome "error" in
    let busy = outcome "busy" and deadline = outcome "deadline" in
    let latency f = seconds (hists "ddg_server_request_ns" f) in
    let latency_total_s = latency (fun acc h -> acc + h.Obs.hs_sum) in
    let latency_max_s = latency (fun acc h -> max acc h.Obs.hs_max) in
    let by_verb =
      List.filter_map
        (fun (c : Obs.counter_snapshot) ->
          match List.assoc_opt "verb" c.Obs.cs_labels with
          | Some verb when matching "ddg_server_requests_verb_total" c ->
              Some (verb, c.cs_value)
          | _ -> None)
        s.Obs.counters
      |> List.sort compare
    in
    (* in a daemon only [Runner.prefetch] times several configurations
       in one span, and no verb prefetches: one span, one analysis *)
    let simulations = count "ddg_runner_simulate_ns" in
    let analyses = count "ddg_runner_analyze_ns" in
    let trace_store_hits = hits "trace_store" in
    let stats_store_hits = hits "stats_store" in
    let trace_mem_hits = hits "trace_mem" in
    let trace_evictions = counter "ddg_runner_trace_evictions_total" in
    let resident_bytes = gauge resident_gauge in
    let retries = counter "ddg_server_retries_served_total" in
    let respawns = gauge respawns_gauge in
    let quarantines = gauge quarantines_gauge in
    let faults = gauge faults_gauge in
    let remote_fetches = counter "ddg_runner_remote_fetches_total" in
    Ok
      (if json then
         Json.to_string
           (Json.Obj
              [ ("uptime_s", Float uptime_s);
                ("connections", Int connections);
                ("requests_total", Int requests_total);
                ("requests_ok", Int ok);
                ("requests_error", Int error);
                ("busy_rejections", Int busy);
                ("deadline_expirations", Int deadline);
                ("latency_total_s", Float latency_total_s);
                ("latency_max_s", Float latency_max_s);
                ( "by_verb",
                  Obj (List.map (fun (verb, n) -> (verb, Json.Int n)) by_verb)
                );
                ("simulations", Int simulations);
                ("analyses", Int analyses);
                ("trace_store_hits", Int trace_store_hits);
                ("stats_store_hits", Int stats_store_hits);
                ("trace_mem_hits", Int trace_mem_hits);
                ("trace_evictions", Int trace_evictions);
                ("trace_resident_bytes", Int resident_bytes);
                ("retries_served", Int retries);
                ("worker_respawns", Int respawns);
                ("artifact_quarantines", Int quarantines);
                ("injected_faults", Int faults);
                ("remote_fetches", Int remote_fetches) ])
         ^ "\n"
       else begin
         let b = Buffer.create 512 in
         let line fmt = Printf.bprintf b (fmt ^^ "\n") in
         line "uptime: %.1fs, connections: %d" uptime_s connections;
         line "requests: %d total, %d ok, %d error (%d busy, %d deadline)"
           requests_total ok error busy deadline;
         line "latency: %.1f ms mean, %.1f ms max"
           (if requests_total = 0 then 0.0
            else 1000.0 *. latency_total_s /. float_of_int requests_total)
           (1000.0 *. latency_max_s);
         let width =
           List.fold_left
             (fun w v -> max w (String.length v))
             0 Ddg_protocol.Protocol.verbs
         in
         List.iter (fun (verb, n) -> line "  %-*s %d" width verb n) by_verb;
         line "work: %d simulations, %d analyses" simulations analyses;
         line "caches: %d trace mem hits, %d trace store hits, %d stats \
               store hits"
           trace_mem_hits trace_store_hits stats_store_hits;
         line "traces resident: %d bytes, %d evictions" resident_bytes
           trace_evictions;
         line "resilience: %d retries served, %d worker respawns, %d \
               artifacts quarantined, %d faults injected"
           retries respawns quarantines faults;
         if remote_fetches > 0 then
           line "cluster: %d artifacts fetched from peers" remote_fetches;
         Buffer.contents b
       end)
