(* Request observability for the daemon, rebuilt on the process-global
   {!Ddg_obs.Obs} registry: outcomes, latency and connection counts are
   obs counters and histograms, and the wire-format [Protocol.counters]
   snapshot is derived from an [Obs.snapshot] together with the resident
   runner's cache counters. The only per-instance state left is the
   start time for uptime; everything else lives in the registry, so the
   [metrics] verb and the [stats] verb read the same numbers.

   The outcome counters partition requests: every request lands in
   exactly one of ok/error/busy/deadline, so the snapshot invariant
   [requests_total = ok + error + busy + deadline] holds whenever no
   request is mid-record. *)

module Obs = Ddg_obs.Obs

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

type t = { started : float }

(* the daemon always observes itself: creating its metrics opens the
   gate, so every instrumented site in the process starts recording *)
let create () =
  Obs.enable ();
  { started = Unix.gettimeofday () }

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

(* --- snapshot --------------------------------------------------------------- *)

let counter_value (s : Obs.snapshot) ?label name =
  List.fold_left
    (fun acc (c : Obs.counter_snapshot) ->
      if
        c.Obs.cs_name = name
        && (match label with
           | None -> true
           | Some kv -> List.mem kv c.cs_labels)
      then acc + c.cs_value
      else acc)
    0 s.Obs.counters

let snapshot t ~(runner : Ddg_experiments.Runner.counters) ~worker_respawns :
    Ddg_protocol.Protocol.counters =
  let s = Obs.snapshot () in
  let outcome name =
    counter_value s ~label:("outcome", name) "ddg_server_requests_outcome_total"
  in
  let latency_hists =
    List.filter
      (fun (h : Obs.hist_snapshot) -> h.Obs.hs_name = "ddg_server_request_ns")
      s.Obs.histograms
  in
  (* wire latencies are derived from the exact ns histogram sum/max *)
  let latency_total_s =
    List.fold_left (fun a (h : Obs.hist_snapshot) -> a + h.hs_sum) 0
      latency_hists
    |> float_of_int |> fun ns -> ns /. 1e9
  in
  let latency_max_s =
    List.fold_left (fun a (h : Obs.hist_snapshot) -> max a h.hs_max) 0
      latency_hists
    |> float_of_int |> fun ns -> ns /. 1e9
  in
  let by_verb =
    List.filter_map
      (fun (c : Obs.counter_snapshot) ->
        if c.Obs.cs_name = "ddg_server_requests_verb_total" then
          match List.assoc_opt "verb" c.cs_labels with
          | Some v -> Some (v, c.cs_value)
          | None -> None
        else None)
      s.Obs.counters
  in
  { Ddg_protocol.Protocol.uptime_s = Unix.gettimeofday () -. t.started;
    connections = counter_value s "ddg_server_connections_total";
    requests_total = counter_value s "ddg_server_requests_total";
    requests_ok = outcome "ok";
    requests_error = outcome "error";
    busy_rejections = outcome "busy";
    deadline_expirations = outcome "deadline";
    latency_total_s;
    latency_max_s;
    by_verb = List.sort compare by_verb;
    simulations = runner.Ddg_experiments.Runner.simulations;
    analyses = runner.analyses;
    trace_store_hits = runner.trace_store_hits;
    stats_store_hits = runner.stats_store_hits;
    trace_mem_hits = runner.trace_mem_hits;
    trace_evictions = runner.trace_evictions;
    trace_resident_bytes = runner.trace_resident_bytes;
    retries_served = counter_value s "ddg_server_retries_served_total";
    worker_respawns;
    artifact_quarantines = runner.artifact_quarantines;
    injected_faults = Ddg_fault.Fault.injected ();
    remote_fetches = runner.remote_fetches }
