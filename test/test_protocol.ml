(* The paragraphd wire codec: canonical round trips for every frame
   kind, and rejection (a typed [Protocol.Error], never a crash or an
   allocation guided by attacker bytes) of truncated, oversized and
   bit-flipped frames — the same corruption discipline test_store
   applies to the artifact store. *)

open Ddg_protocol
open Ddg_paragraph

(* The encoding is canonical, so byte equality after one decode/encode
   round trip is the strongest equality we can ask for — and the only
   one available, since Config.t carries a function. *)
let check_canonical name frame =
  let bytes = Protocol.frame_to_string frame in
  let reread = Protocol.frame_of_string bytes in
  Alcotest.(check string) name bytes (Protocol.frame_to_string reread)

let sample_stats =
  (* a real analysis result, so the embedded Stats_codec payload is
     exercised with genuine distributions and profiles *)
  let events =
    [ { Ddg_sim.Trace.pc = 0; op_class = Ddg_isa.Opclass.Int_alu;
        dest = Some (Ddg_isa.Loc.Reg 1); srcs = []; branch = None };
      { Ddg_sim.Trace.pc = 1; op_class = Ddg_isa.Opclass.Int_multiply;
        dest = Some (Ddg_isa.Loc.Reg 2); srcs = [ Ddg_isa.Loc.Reg 1 ];
        branch = None };
      { Ddg_sim.Trace.pc = 2; op_class = Ddg_isa.Opclass.Load_store;
        dest = Some (Ddg_isa.Loc.Reg 3);
        srcs = [ Ddg_isa.Loc.Reg 2; Ddg_isa.Loc.Mem 4096 ]; branch = None } ]
  in
  Analyzer.analyze Config.default (Ddg_sim.Trace.of_list events)

let sample_counters =
  { Protocol.uptime_s = 12.5; connections = 3; requests_total = 10;
    requests_ok = 8; requests_error = 2; busy_rejections = 1;
    deadline_expirations = 1; latency_total_s = 0.75; latency_max_s = 0.25;
    by_verb = [ ("analyze", 4); ("ping", 6) ]; simulations = 2; analyses = 4;
    trace_store_hits = 1; stats_store_hits = 2; trace_mem_hits = 3;
    trace_evictions = 1; trace_resident_bytes = 123_456; retries_served = 2;
    worker_respawns = 1; artifact_quarantines = 3; injected_faults = 7;
    remote_fetches = 5 }

let sample_obs_snapshot =
  (* labelled counters, a sparse multi-bucket histogram and a registered
     but empty one, so the v3 metrics codec's sparse (index, count)
     encoding is exercised end to end *)
  { Ddg_obs.Obs.counters =
      [ { Ddg_obs.Obs.cs_name = "ddg_server_requests_total"; cs_labels = [];
          cs_value = 42 };
        { Ddg_obs.Obs.cs_name = "ddg_server_requests_verb_total";
          cs_labels = [ ("verb", "ping") ]; cs_value = 17 } ];
    histograms =
      [ Ddg_obs.Obs.hist_of_samples ~name:"ddg_server_request_ns"
          ~labels:[ ("verb", "analyze") ]
          [ 0; 1; 5; 5; 1_000_000; 123_456_789 ];
        Ddg_obs.Obs.hist_of_samples ~name:"ddg_pool_run_ns" [] ] }

let sample_frames =
  [ Protocol.Hello
      { protocol = Protocol.version; software = "1.1.0"; node = "" };
    Protocol.Hello
      { protocol = Protocol.version; software = "1.1.0"; node = "node2" };
    Request
      { deadline_ms = 0; attempt = 0;
        request = Locate { key = "mtxx/small" } };
    Ok_response (Located { node = "node0" });
    Request { deadline_ms = 0; attempt = 0; request = Ping { delay_ms = 0 } };
    Request
      { deadline_ms = 2500; attempt = 3; request = Ping { delay_ms = 100 } };
    Request
      { deadline_ms = 0; attempt = 0;
        request = Analyze { workload = "mtxx"; config = Config.default } };
    Request
      { deadline_ms = 60_000; attempt = 1;
        request =
          Analyze
            { workload = "cc1x";
              config =
                { Config.default with
                  syscall_stall = false;
                  renaming = { Config.registers = true; stack = true; data = false };
                  window = Some 64;
                  fu = { Config.unlimited_fu with total = Some 4 };
                  branch = Config.Two_bit 12 } } };
    Request
      { deadline_ms = 0; attempt = 0;
        request = Simulate { workload = "doducx" } };
    Request
      { deadline_ms = 0; attempt = 0; request = Table { name = "table3" } };
    Request { deadline_ms = 0; attempt = 0; request = Server_stats };
    Request { deadline_ms = 0; attempt = 0; request = Shutdown };
    Request { deadline_ms = 0; attempt = 2; request = Fsck };
    Request { deadline_ms = 0; attempt = 0; request = Metrics };
    Request
      { deadline_ms = 0; attempt = 0;
        request = Advise { workload = "mtxx"; config = Config.default } };
    (* the v6 membership verbs *)
    Request
      { deadline_ms = 2000; attempt = 0;
        request = Join { node = "node3"; endpoint = "unix:/tmp/n3.sock" } };
    Request
      { deadline_ms = 0; attempt = 1;
        request = Decommission { node = "node1" } };
    Request
      { deadline_ms = 0; attempt = 0;
        request = Ring_update { members = [] } };
    Request
      { deadline_ms = 0; attempt = 0;
        request =
          Ring_update
            { members =
                [ ("node0", "unix:/tmp/n0.sock");
                  ("node1", "tcp:127.0.0.1:7001") ] } };
    Request { deadline_ms = 500; attempt = 0; request = Store_list };
    (* the v8 transfer verbs *)
    Request
      { deadline_ms = 60_000; attempt = 1;
        request =
          Pull { kind = "trace"; key = "mtxx/small/v1/t9"; source = "node0" } };
    Request
      { deadline_ms = 0; attempt = 0;
        request =
          Forward_range
            { kind = "stats"; key = "mtxx/small"; offset = 8 * 1024 * 1024;
              length = 8 * 1024 * 1024 } };
    Ok_response Pong;
    Ok_response (Analyzed sample_stats);
    Ok_response
      (Simulated
         { instructions = 1_000_000; syscalls = 42; output_bytes = 17;
           memory_footprint = 9000; trace_events = 1_000_123 });
    Ok_response (Rendered "Table 3\n\xc3\xa9\x00 binary-safe\n");
    Ok_response (Telemetry sample_counters);
    Ok_response Shutting_down_ack;
    Ok_response
      (Fsck_report
         { scanned = 12; valid = 9; quarantined = 2; missing = 1;
           swept_temps = 3 });
    Ok_response (Metrics_snapshot sample_obs_snapshot);
    Ok_response (Members { members = [] });
    Ok_response
      (Members
         { members =
             [ ("node0", "unix:/tmp/n0.sock"); ("node2", "tcp:[::1]:7002") ] });
    Ok_response (Store_listing { entries = [] });
    Ok_response
      (Store_listing
         { entries = [ ("trace", "mtxx/small"); ("stats", "eqnx/small/v2") ] });
    Ok_response (Pulled { kind = "trace"; key = "mtxx/small" });
    Ok_response
      (Fetched_range { total = 63_000_000; data = "DDGART01\x00raw\xffbytes" });
    Error_response { code = Busy; message = "10 requests already in flight" } ]

let test_roundtrips () =
  List.iteri
    (fun i frame -> check_canonical (Printf.sprintf "frame %d" i) frame)
    sample_frames

let test_all_error_codes () =
  List.iter
    (fun code ->
      let frame =
        Protocol.Error_response
          { code; message = Protocol.error_code_name code }
      in
      check_canonical (Protocol.error_code_name code) frame)
    [ Protocol.Bad_frame; Unsupported_version; Unknown_workload;
      Unknown_table; Busy; Deadline_exceeded; Shutting_down; Internal;
      Worker_crashed; No_backends; Unknown_node ]

let test_verb_list () =
  (* the metrics layer pre-registers one series per listed verb, so the
     list must name every verb a request can carry, each once; the
     samples above carry one request of every verb *)
  let sampled =
    List.filter_map
      (function
        | Protocol.Request { request; _ } -> Some (Protocol.verb_name request)
        | _ -> None)
      sample_frames
  in
  Alcotest.(check (list string))
    "the list is exactly the sampled verbs, without duplicates"
    (List.sort_uniq compare sampled)
    (List.sort compare Protocol.verbs)

let test_analyzed_stats_survive () =
  match
    Protocol.frame_of_string
      (Protocol.frame_to_string (Ok_response (Analyzed sample_stats)))
  with
  | Ok_response (Analyzed stats) ->
      Alcotest.(check string)
        "stats payload identical"
        (Stats_codec.to_string sample_stats)
        (Stats_codec.to_string stats)
  | _ -> Alcotest.fail "decoded to a different frame kind"

let expect_rejected name thunk =
  match thunk () with
  | (_ : Protocol.frame) ->
      Alcotest.failf "%s: decoded instead of being rejected" name
  | exception Protocol.Error _ -> ()
  | exception e ->
      Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)

let test_truncation_rejected () =
  let bytes =
    Protocol.frame_to_string
      (Request
         { deadline_ms = 125; attempt = 1;
           request = Analyze { workload = "mtxx"; config = Config.default } })
  in
  for n = 0 to String.length bytes - 1 do
    expect_rejected
      (Printf.sprintf "prefix of %d bytes" n)
      (fun () -> Protocol.frame_of_string (String.sub bytes 0 n))
  done

let test_bad_config_rejected () =
  (* a configuration the analyzer would refuse is a malformed request:
     it encodes, but decoding it is a typed rejection on every verb that
     carries one *)
  let frame request =
    Protocol.frame_to_string
      (Request { deadline_ms = 0; attempt = 0; request })
  in
  List.iter
    (fun (name, config) ->
      let analyze = frame (Analyze { workload = "mtxx"; config }) in
      let advise = frame (Advise { workload = "mtxx"; config }) in
      expect_rejected name (fun () -> Protocol.frame_of_string analyze);
      expect_rejected (name ^ " (advise)") (fun () ->
          Protocol.frame_of_string advise))
    Test_resources.zero_configs

let test_metrics_truncation_rejected () =
  (* the v3 metrics codec has its own bounds (metric counts, label
     counts, sparse bucket indices): every prefix must die typed *)
  let bytes =
    Protocol.frame_to_string (Ok_response (Metrics_snapshot sample_obs_snapshot))
  in
  for n = 0 to String.length bytes - 1 do
    expect_rejected
      (Printf.sprintf "metrics prefix of %d bytes" n)
      (fun () -> Protocol.frame_of_string (String.sub bytes 0 n))
  done

let test_garbage_rejected () =
  expect_rejected "empty" (fun () -> Protocol.frame_of_string "");
  expect_rejected "bad magic" (fun () ->
      Protocol.frame_of_string "XXXX\x01\x00\x00\x00\x00");
  expect_rejected "unknown kind" (fun () ->
      Protocol.frame_of_string "DDGP\x09\x00\x00\x00\x00");
  expect_rejected "trailing garbage" (fun () ->
      Protocol.frame_of_string
        (Protocol.frame_to_string (Ok_response Pong) ^ "\x00"))

let test_oversized_rejected () =
  (* a declared length past the cap must be refused before any payload
     is read or allocated, so short bytes after the header are fine *)
  let huge = "DDGP\x02\xff\xff\xff\xff" in
  expect_rejected "4 GiB declared" (fun () -> Protocol.frame_of_string huge);
  let over = Protocol.max_frame_bytes + 1 in
  let header = Bytes.of_string "DDGP\x02\x00\x00\x00\x00" in
  Bytes.set header 5 (Char.chr ((over lsr 24) land 0xff));
  Bytes.set header 6 (Char.chr ((over lsr 16) land 0xff));
  Bytes.set header 7 (Char.chr ((over lsr 8) land 0xff));
  Bytes.set header 8 (Char.chr (over land 0xff));
  expect_rejected "cap + 1 declared" (fun () ->
      Protocol.frame_of_string (Bytes.to_string header))

let test_varint_overflow_rejected () =
  (* a 9-byte varint whose final byte reaches OCaml's 63-bit sign bit
     decodes negative, and a negative string length would sail past
     every bounds guard into [String.sub]: it must be a typed
     rejection, not an [Invalid_argument] crash *)
  let payload = "\x00" ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  let n = String.length payload in
  let b = Buffer.create (n + 9) in
  Buffer.add_string b "DDGP\x04";
  List.iter
    (fun s -> Buffer.add_char b (Char.chr ((n lsr s) land 0xff)))
    [ 24; 16; 8; 0 ];
  Buffer.add_string b payload;
  expect_rejected "negative message length" (fun () ->
      Protocol.frame_of_string (Buffer.contents b))

(* --- fd-based frame I/O ---------------------------------------------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let test_truncated_payload () =
  (* chunked reads from a socket channel of a frame whose declared
     (in-cap) length exceeds the bytes present must end in End_of_file,
     not a hang or a giant allocation *)
  with_socketpair (fun a b ->
      let frame = "DDGP\x02\x00\x10\x00\x00" ^ "only a few payload bytes" in
      (* 1 MiB declared *)
      ignore (Unix.write_substring a frame 0 (String.length frame));
      Unix.shutdown a SHUTDOWN_SEND;
      match Protocol.read_frame_fd b with
      | (_ : Protocol.frame) -> Alcotest.fail "decoded truncated frame"
      | exception End_of_file -> ()
      | exception Protocol.Error _ -> ())

let pump_frames a b =
  (* writer on its own thread so large frames cannot deadlock against a
     full socket buffer *)
  let writer =
    Thread.create
      (fun () ->
        List.iter (Protocol.write_frame_fd a) sample_frames;
        Unix.shutdown a SHUTDOWN_SEND)
      ()
  in
  let got =
    List.map
      (fun _ -> Protocol.frame_to_string (Protocol.read_frame_fd b))
      sample_frames
  in
  Thread.join writer;
  Alcotest.(check (list string))
    "frames survive the fd path"
    (List.map Protocol.frame_to_string sample_frames)
    got;
  (* clean hangup after the last frame reads as End_of_file *)
  match Protocol.read_frame_fd b with
  | (_ : Protocol.frame) -> Alcotest.fail "read past hangup"
  | exception End_of_file -> ()

let test_fd_roundtrip () = with_socketpair pump_frames

let test_fd_roundtrip_under_eintr_and_short_io () =
  (* injected EINTR and 1-byte transfers on both directions: the
     restart and short-transfer loops must still deliver identical
     bytes *)
  let module Fault = Ddg_fault.Fault in
  Fun.protect ~finally:Fault.disable (fun () ->
      let site p = { Fault.probability = p; budget = None } in
      Fault.enable ~seed:11
        ~sites:
          [ ("proto.read.eintr", site 0.2); ("proto.write.eintr", site 0.2);
            ("proto.read.short", site 0.7); ("proto.write.short", site 0.7) ];
      with_socketpair pump_frames;
      Alcotest.(check bool) "faults actually fired" true
        (Fault.injected () > 0))

let test_fd_connection_drop_surfaces () =
  let module Fault = Ddg_fault.Fault in
  Fun.protect ~finally:Fault.disable (fun () ->
      Fault.enable ~seed:0
        ~sites:
          [ ( "proto.conn.drop",
              { Fault.probability = 1.0; budget = Some 1 } ) ];
      with_socketpair (fun a b ->
          let writer =
            Thread.create
              (fun () -> Protocol.write_frame_fd a (Ok_response Pong))
              ()
          in
          (match Protocol.read_frame_fd b with
          | (_ : Protocol.frame) -> Alcotest.fail "expected a dropped read"
          | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
          | exception End_of_file -> ());
          Thread.join writer))

(* --- qcheck properties --------------------------------------------------- *)

let gen_request =
  let open QCheck.Gen in
  let* config = Test_props.gen_config in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 0 12) in
  oneofl
    [ Protocol.Ping { delay_ms = 0 };
      Analyze { workload = name; config };
      Simulate { workload = name };
      Table { name };
      Server_stats;
      Shutdown;
      Fsck;
      Metrics ]

let gen_frame =
  let open QCheck.Gen in
  let* request = gen_request in
  let* deadline_ms = int_range 0 100_000 in
  let* attempt = int_range 0 8 in
  let* message = string_size ~gen:printable (int_range 0 60) in
  oneofl
    [ Protocol.Hello { protocol = 1; software = message; node = "" };
      Request { deadline_ms; attempt; request };
      Ok_response Pong;
      Ok_response (Rendered message);
      Error_response { code = Protocol.Internal; message } ]

let arb_frame =
  QCheck.make gen_frame ~print:(fun f ->
      String.escaped (Protocol.frame_to_string f))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame encode/decode is canonical" ~count:500
    arb_frame
    (fun frame ->
      let bytes = Protocol.frame_to_string frame in
      Protocol.frame_to_string (Protocol.frame_of_string bytes) = bytes)

let prop_config_roundtrip =
  QCheck.Test.make ~name:"config survives the wire" ~count:300
    Test_props.arb_config
    (fun config ->
      let frame =
        Protocol.Request
          { deadline_ms = 0; attempt = 0;
            request = Analyze { workload = "w"; config } }
      in
      match Protocol.frame_of_string (Protocol.frame_to_string frame) with
      | Request { request = Analyze { config = c; _ }; _ } ->
          (* describe covers the switches; the latency function must
             also be tabulated identically *)
          Config.describe c = Config.describe config
          && Config.latency_table c = Config.latency_table config
      | _ -> false)

let prop_mutation_never_crashes =
  (* flipping any one bit either yields a typed rejection or decodes to
     some frame that itself re-encodes canonically *)
  QCheck.Test.make ~name:"bit flips are rejected or decode canonically"
    ~count:500
    (QCheck.pair arb_frame (QCheck.pair QCheck.small_nat (QCheck.int_bound 7)))
    (fun (frame, (pos, bit)) ->
      let bytes = Bytes.of_string (Protocol.frame_to_string frame) in
      let pos = pos mod Bytes.length bytes in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl bit)));
      let mutated = Bytes.to_string bytes in
      match Protocol.frame_of_string mutated with
      | decoded ->
          Protocol.frame_to_string (Protocol.frame_of_string
                                      (Protocol.frame_to_string decoded))
          = Protocol.frame_to_string decoded
      | exception Protocol.Error _ -> true)

let tests =
  [ Alcotest.test_case "sample frames round trip" `Quick test_roundtrips;
    Alcotest.test_case "all error codes round trip" `Quick
      test_all_error_codes;
    Alcotest.test_case "every request verb is listed" `Quick test_verb_list;
    Alcotest.test_case "analyzed stats survive the wire" `Quick
      test_analyzed_stats_survive;
    Alcotest.test_case "every truncation is rejected" `Quick
      test_truncation_rejected;
    Alcotest.test_case "out-of-range configs are rejected" `Quick
      test_bad_config_rejected;
    Alcotest.test_case "metrics snapshot truncations are rejected" `Quick
      test_metrics_truncation_rejected;
    Alcotest.test_case "garbage frames are rejected" `Quick
      test_garbage_rejected;
    Alcotest.test_case "oversized frames rejected before allocation" `Quick
      test_oversized_rejected;
    Alcotest.test_case "sign-bit varint overflow rejected" `Quick
      test_varint_overflow_rejected;
    Alcotest.test_case "truncated channel payload is safe" `Quick
      test_truncated_payload;
    Alcotest.test_case "fd frame I/O round trips" `Quick test_fd_roundtrip;
    Alcotest.test_case "fd frame I/O survives EINTR and short transfers"
      `Quick test_fd_roundtrip_under_eintr_and_short_io;
    Alcotest.test_case "injected connection drop surfaces as an error"
      `Quick test_fd_connection_drop_surfaces ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_frame_roundtrip; prop_config_roundtrip;
        prop_mutation_never_crashes ]
