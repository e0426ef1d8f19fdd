(* Observability suite: histogram algebra as qcheck properties (merge is
   an exact monoid action, every sample lands in exactly one base-2
   bucket, quantiles are the containing bucket's upper edge), a
   byte-exact golden for the Prometheus text exposition plus its grammar
   validator, recording exactness under N domains x M systhreads, and a
   deterministic-clock end-to-end run: the same scripted daemon session
   twice under the fake clock must produce bit-identical response frames
   and a bit-identical metrics snapshot. *)

module Obs = Ddg_obs.Obs
module Protocol = Ddg_protocol.Protocol
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Runner = Ddg_experiments.Runner
module Config = Ddg_paragraph.Config

(* Every test leaves the global layer as it found the process default:
   monotonic clock, gate closed, values zeroed. *)
let with_clean_obs f =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Clock.use_monotonic ();
      Obs.reset ())
    f

let find_counter snap name =
  match
    List.find_opt (fun c -> c.Obs.cs_name = name) snap.Obs.counters
  with
  | Some c -> c.Obs.cs_value
  | None -> Alcotest.failf "counter %s not in snapshot" name

let find_hist snap name =
  match
    List.find_opt (fun h -> h.Obs.hs_name = name) snap.Obs.histograms
  with
  | Some h -> h
  | None -> Alcotest.failf "histogram %s not in snapshot" name

(* --- bucket scheme ----------------------------------------------------------- *)

let test_bucket_edges () =
  Alcotest.(check int) "bucket 0 lower" 0 (Obs.bucket_lower 0);
  Alcotest.(check int) "bucket 0 upper" 0 (Obs.bucket_upper 0);
  Alcotest.(check int) "bucket 1 = [1,1]" 1 (Obs.bucket_upper 1);
  Alcotest.(check int) "bucket 2 lower" 2 (Obs.bucket_lower 2);
  Alcotest.(check int) "bucket 2 upper" 3 (Obs.bucket_upper 2);
  Alcotest.(check int) "bucket 10 lower" 512 (Obs.bucket_lower 10);
  Alcotest.(check int) "bucket 10 upper" 1023 (Obs.bucket_upper 10);
  (* the last bucket's edge is max_int, so 63 buckets cover every
     non-negative int *)
  Alcotest.(check int) "last bucket upper = max_int" max_int
    (Obs.bucket_upper (Obs.buckets - 1));
  Alcotest.(check int) "max_int lands in the last bucket" (Obs.buckets - 1)
    (Obs.bucket_index max_int);
  Alcotest.(check int) "negative clamps to bucket 0" 0 (Obs.bucket_index (-7))

(* --- histogram properties (qcheck) ------------------------------------------- *)

(* non-negative samples spanning many magnitudes, so both low buckets and
   the 2^60-range tail are exercised *)
let gen_sample =
  QCheck.Gen.(
    frequency
      [ (4, int_bound 200);
        (3, int_bound 2_000_000);
        (2, map (fun i -> i land max_int) int);
        (1, return 0) ])

let arb_samples =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (int_bound 40) gen_sample)

let hist samples = Obs.hist_of_samples ~name:"ddg_prop_ns" samples

let prop_one_bucket =
  QCheck.Test.make ~name:"every sample lands in exactly one bucket" ~count:500
    (QCheck.make ~print:string_of_int gen_sample) (fun v ->
      let containing =
        List.filter
          (fun i -> Obs.bucket_lower i <= v && v <= Obs.bucket_upper i)
          (List.init Obs.buckets Fun.id)
      in
      containing = [ Obs.bucket_index v ])

let prop_merge_is_concat =
  QCheck.Test.make
    ~name:"merge (hist a) (hist b) = hist (a @ b): count/sum/min/max/buckets"
    ~count:300
    (QCheck.pair arb_samples arb_samples)
    (fun (a, b) -> Obs.merge (hist a) (hist b) = hist (a @ b))

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge is commutative" ~count:300
    (QCheck.pair arb_samples arb_samples)
    (fun (a, b) -> Obs.merge (hist a) (hist b) = Obs.merge (hist b) (hist a))

let prop_merge_associative =
  QCheck.Test.make ~name:"merge is associative" ~count:300
    (QCheck.triple arb_samples arb_samples arb_samples)
    (fun (a, b, c) ->
      Obs.merge (Obs.merge (hist a) (hist b)) (hist c)
      = Obs.merge (hist a) (Obs.merge (hist b) (hist c)))

let prop_merge_empty_identity =
  QCheck.Test.make ~name:"the empty histogram is the merge identity"
    ~count:300 arb_samples (fun a ->
      Obs.merge (hist a) (hist []) = hist a
      && Obs.merge (hist []) (hist a) = hist a)

let prop_quantile_is_rank_bucket_edge =
  (* independent check against a sort: quantile must return the upper
     edge of the bucket containing the rank-th smallest sample, and that
     bucket must actually contain the sample *)
  QCheck.Test.make
    ~name:"quantile = upper edge of the rank-th sample's bucket" ~count:500
    (QCheck.pair
       (QCheck.make
          ~print:QCheck.Print.(list int)
          QCheck.Gen.(map2 (fun x xs -> x :: xs)
                        gen_sample
                        (list_size (int_bound 30) gen_sample)))
       (QCheck.float_range 0.0 1.0))
    (fun (samples, q) ->
      let h = hist samples in
      let rank =
        max 1 (int_of_float (ceil (q *. float_of_int (List.length samples))))
      in
      let s = List.nth (List.sort compare samples) (rank - 1) in
      let v = Obs.quantile h q in
      v = Obs.bucket_upper (Obs.bucket_index s)
      && Obs.bucket_lower (Obs.bucket_index s) <= v
      && s <= v)

let test_quantile_empty () =
  Alcotest.(check int) "quantile of empty histogram" 0
    (Obs.quantile (hist []) 0.5);
  Alcotest.(check (float 1e-9)) "mean of empty histogram" 0.0
    (Obs.hist_mean (hist []))

(* --- golden Prometheus exposition -------------------------------------------- *)

let golden_snapshot =
  { Obs.counters =
      [ { Obs.cs_name = "ddg_requests_total"; cs_labels = []; cs_value = 5 };
        { Obs.cs_name = "ddg_requests_verb_total";
          cs_labels = [ ("verb", "ping") ]; cs_value = 3 } ];
    histograms =
      [ Obs.hist_of_samples ~name:"ddg_request_ns"
          ~labels:[ ("verb", "ping") ]
          [ 0; 1; 2; 3; 9 ] ] }

let golden_text =
  "# TYPE ddg_requests_total counter\n\
   ddg_requests_total 5\n\
   # TYPE ddg_requests_verb_total counter\n\
   ddg_requests_verb_total{verb=\"ping\"} 3\n\
   # TYPE ddg_request_ns histogram\n\
   ddg_request_ns_bucket{le=\"0\",verb=\"ping\"} 1\n\
   ddg_request_ns_bucket{le=\"1\",verb=\"ping\"} 2\n\
   ddg_request_ns_bucket{le=\"3\",verb=\"ping\"} 4\n\
   ddg_request_ns_bucket{le=\"7\",verb=\"ping\"} 4\n\
   ddg_request_ns_bucket{le=\"15\",verb=\"ping\"} 5\n\
   ddg_request_ns_bucket{le=\"+Inf\",verb=\"ping\"} 5\n\
   ddg_request_ns_sum{verb=\"ping\"} 15\n\
   ddg_request_ns_count{verb=\"ping\"} 5\n"

let test_prometheus_golden () =
  let text = Obs.prometheus_of_snapshot golden_snapshot in
  Alcotest.(check string) "byte-exact exposition" golden_text text;
  match Obs.validate_exposition text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "golden text fails its own grammar: %s" msg

let expect_valid text =
  match Obs.validate_exposition text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rejected valid exposition: %s" msg

let expect_invalid name text =
  match Obs.validate_exposition text with
  | Ok () -> Alcotest.failf "%s: accepted invalid exposition" name
  | Error _ -> ()

let test_validator_grammar () =
  expect_valid "";
  expect_valid "# just a comment\n";
  expect_valid "up 1\n";
  expect_valid "up{a=\"b\",c=\"d\\\"e\\n\"} 2.5\n";
  expect_invalid "name starts with a digit" "1up 1\n";
  expect_invalid "missing value" "up\n";
  expect_invalid "two spaces before value" "up  1\n";
  expect_invalid "non-numeric value" "up one\n";
  expect_invalid "unterminated label value" "up{a=\"b} 1\n";
  expect_invalid "bad escape" "up{a=\"\\q\"} 1\n";
  expect_invalid "missing quotes" "up{a=b} 1\n"

let test_validator_histogram_rules () =
  expect_invalid "bucket series without +Inf"
    "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
  expect_invalid "non-cumulative buckets"
    "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\n";
  expect_invalid "+Inf disagrees with _count"
    "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
  expect_valid "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n"

(* --- registry and gate -------------------------------------------------------- *)

let test_registry_rejects_bad_sites () =
  (match Obs.counter "bad name" with
  | (_ : Obs.counter) -> Alcotest.fail "accepted a malformed metric name"
  | exception Invalid_argument _ -> ());
  (match Obs.counter ~labels:[ ("0bad", "v") ] "ddg_ok_total" with
  | (_ : Obs.counter) -> Alcotest.fail "accepted a malformed label name"
  | exception Invalid_argument _ -> ());
  (* one key, one kind: a name registered as a counter cannot come back
     as a histogram *)
  let (_ : Obs.counter) = Obs.counter "ddg_test_kind_total" in
  match Obs.histogram "ddg_test_kind_total" with
  | (_ : Obs.histogram) -> Alcotest.fail "re-registered a counter as histogram"
  | exception Invalid_argument _ -> ()

let test_disabled_records_nothing () =
  with_clean_obs @@ fun () ->
  let c = Obs.counter "ddg_test_gate_total" in
  let h = Obs.span_site "ddg_test_gate_ns" in
  Obs.disable ();
  Obs.incr c;
  Obs.add c 5;
  Obs.observe h 3;
  Alcotest.(check int) "time still runs the thunk" 7
    (Obs.time h (fun () -> 7));
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter untouched" 0
    (find_counter snap "ddg_test_gate_total");
  Alcotest.(check int) "histogram untouched" 0
    (find_hist snap "ddg_test_gate_ns").Obs.hs_count;
  (* flip the gate: the same sites record *)
  Obs.enable ();
  Obs.incr c;
  (match Obs.time h (fun () -> raise Exit) with
  | () -> Alcotest.fail "time swallowed the exception"
  | exception Exit -> ());
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter recorded" 1
    (find_counter snap "ddg_test_gate_total");
  Alcotest.(check int) "span recorded around the raise" 1
    (find_hist snap "ddg_test_gate_ns").Obs.hs_count

let test_fake_clock_is_deterministic () =
  with_clean_obs @@ fun () ->
  Obs.Clock.use_fake ~start_ns:100 ~step_ns:10 ();
  Alcotest.(check int) "first read advances by one step" 110
    (Obs.Clock.now_ns ());
  Alcotest.(check int) "second read" 120 (Obs.Clock.now_ns ());
  Obs.enable ();
  let span = Obs.span_site "ddg_test_fake_ns" in
  Obs.reset ();
  Obs.time span (fun () -> ());
  Obs.time span (fun () -> ());
  let h = find_hist (Obs.snapshot ()) "ddg_test_fake_ns" in
  Alcotest.(check int) "two spans" 2 h.Obs.hs_count;
  (* each span is exactly two clock reads apart: one step each *)
  Alcotest.(check int) "bit-stable durations" 20 h.Obs.hs_sum;
  Alcotest.(check int) "min = step" 10 h.Obs.hs_min;
  Alcotest.(check int) "max = step" 10 h.Obs.hs_max

(* --- exact recording under parallel hammering --------------------------------- *)

let hammer ~domains ~threads ~hits =
  let c = Obs.counter "ddg_test_hammer_total" in
  let h = Obs.span_site "ddg_test_hammer_ns" in
  Obs.reset ();
  Obs.enable ();
  let work () =
    for _ = 1 to hits do
      Obs.incr c;
      Obs.time h (fun () -> ())
    done
  in
  let in_domain () =
    let ts = List.init threads (fun _ -> Thread.create work ()) in
    List.iter Thread.join ts
  in
  let ds = List.init domains (fun _ -> Domain.spawn in_domain) in
  List.iter Domain.join ds;
  let total = domains * threads * hits in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "counter is exactly N*M*K" total
    (find_counter snap "ddg_test_hammer_total");
  let hs = find_hist snap "ddg_test_hammer_ns" in
  Alcotest.(check int) "histogram count is exactly N*M*K" total
    hs.Obs.hs_count;
  Alcotest.(check int) "every sample in some bucket" total
    (Array.fold_left ( + ) 0 hs.Obs.hs_buckets)

let test_hammer_monotonic () =
  with_clean_obs @@ fun () ->
  Obs.Clock.use_monotonic ();
  hammer ~domains:4 ~threads:4 ~hits:1000

let test_hammer_fake_clock () =
  with_clean_obs @@ fun () ->
  Obs.Clock.use_fake ();
  hammer ~domains:4 ~threads:4 ~hits:1000

(* --- deterministic-clock end-to-end ------------------------------------------- *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    n := !n + 1;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg_obs_%d_%d.sock" (Unix.getpid ()) !n)

let config64 =
  { Config.default with
    renaming = Config.rename_registers_only;
    window = Some 64 }

(* deterministic verbs only; [Metrics] itself rides in the script, so
   the over-the-wire snapshot is part of the bit-stability check *)
let e2e_script =
  [ Protocol.Ping { delay_ms = 0 };
    Analyze { workload = "mtxx"; config = Config.default };
    Analyze { workload = "eqnx"; config = config64 };
    Metrics;
    Ping { delay_ms = 0 } ]

(* One daemon, one sequential scripted session, under the fake clock.
   With a single worker and a single client every Clock read is totally
   ordered (the handler blocks on the pool while the worker runs, the
   client reads no clock at all), so span durations are fixed multiples
   of the fake step and the whole run is reproducible bit for bit. *)
let one_fake_run () =
  Obs.reset ();
  Obs.Clock.use_fake ();
  let socket = fresh_socket () in
  let runner = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
  let server =
    Server.create ~runner ~workers:1 ~max_inflight:8
      ~default_deadline_s:60.0
      [ `Unix socket ]
  in
  let thread = Thread.create Server.run server in
  let responses =
    Fun.protect
      ~finally:(fun () ->
        Server.stop server;
        Thread.join thread;
        try Sys.remove socket with Sys_error _ -> ())
      (fun () ->
        Client.with_session ~retry:Client.default_retry ~retry_for_s:5.0
          (`Unix socket)
          (fun s ->
            List.map
              (fun req ->
                Protocol.frame_to_string
                  (Protocol.Ok_response (Client.call ~deadline_ms:60_000 s req)))
              e2e_script))
  in
  (* the daemon is fully drained: no span is still open, so the snapshot
     is quiescent *)
  (responses, Obs.snapshot ())

let test_fake_clock_e2e_bit_stable () =
  with_clean_obs @@ fun () ->
  let r1, s1 = one_fake_run () in
  let r2, s2 = one_fake_run () in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "response %d bit-stable" i) a b)
    (List.combine r1 r2);
  Alcotest.(check string) "exposition text bit-stable"
    (Obs.prometheus_of_snapshot s1)
    (Obs.prometheus_of_snapshot s2);
  Alcotest.(check bool) "snapshots structurally identical" true (s1 = s2);
  (* the run actually exercised the instrumentation *)
  Alcotest.(check bool) "requests counted" true
    (find_counter s1 "ddg_server_requests_total" >= List.length e2e_script);
  Alcotest.(check bool) "pool spans recorded" true
    ((find_hist s1 "ddg_pool_run_ns").Obs.hs_count > 0);
  match Obs.validate_exposition (Obs.prometheus_of_snapshot s1) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "live exposition fails the grammar: %s" msg

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_one_bucket;
      prop_merge_is_concat;
      prop_merge_commutative;
      prop_merge_associative;
      prop_merge_empty_identity;
      prop_quantile_is_rank_bucket_edge ]

let tests =
  [ Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "quantile and mean of empty" `Quick test_quantile_empty;
    Alcotest.test_case "Prometheus exposition golden" `Quick
      test_prometheus_golden;
    Alcotest.test_case "exposition grammar validator" `Quick
      test_validator_grammar;
    Alcotest.test_case "validator histogram rules" `Quick
      test_validator_histogram_rules;
    Alcotest.test_case "registry rejects bad sites" `Quick
      test_registry_rejects_bad_sites;
    Alcotest.test_case "disabled gate records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "fake clock is deterministic" `Quick
      test_fake_clock_is_deterministic;
    Alcotest.test_case "exact under 4 domains x 4 threads (monotonic)" `Quick
      test_hammer_monotonic;
    Alcotest.test_case "exact under 4 domains x 4 threads (fake clock)" `Quick
      test_hammer_fake_clock;
    Alcotest.test_case "fake-clock daemon e2e is bit-stable" `Quick
      test_fake_clock_e2e_bit_stable ]
  @ qcheck_tests
