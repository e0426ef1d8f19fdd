(* The zero-copy flat trace format (DDGTRC03), differentially fuzzed:
   random traces must survive write → mmap → read unchanged and agree
   byte-for-byte with the legacy v1/v2 codec under every consumer
   (in-memory, mapped, streamed, advisor); corrupt or
   truncated files must fail with the typed error, never a crash; the
   store must quarantine corrupt flat artifacts while live mapped views
   survive concurrent fsck; and the streaming path must hold its
   bounded-memory promise under a measured ceiling. *)

open Ddg_isa
module Trace = Ddg_sim.Trace
module Trace_io = Ddg_sim.Trace_io
module Analyzer = Ddg_paragraph.Analyzer
module Config = Ddg_paragraph.Config
module Stats_codec = Ddg_paragraph.Stats_codec
module Advise = Ddg_advise.Advise
module Advise_codec = Ddg_advise.Advise_codec
module Store = Ddg_store.Store
module Obs = Ddg_obs.Obs
module Protocol = Ddg_protocol.Protocol
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Runner = Ddg_experiments.Runner

(* --- helpers ---------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "ddg-zerocopy-test" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir () =
  let path = Filename.temp_file "ddg_zerocopy_store" "" in
  Sys.remove path;
  path

let with_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()))

let marks_list trace =
  let acc = ref [] in
  Trace.iter_marks (fun m -> acc := m :: !acc) trace;
  List.rev !acc

let equal_traces a b =
  Trace.to_list a = Trace.to_list b
  && marks_list a = marks_list b
  && Trace.loops a = Trace.loops b

(* --- random traces ------------------------------------------------------------ *)

(* Richer than the v2-codec generator in test_advise: memory and float
   locations, conditional branches, and events with four or five
   sources, so the flat format's operand-overflow rows (aux-blob
   continuation of the three inline source columns) are exercised. *)
let gen_loc =
  let open QCheck.Gen in
  oneof
    [ map (fun i -> Loc.Reg i) (int_range 1 6);
      map (fun i -> Loc.Freg i) (int_range 0 5);
      map (fun i -> Loc.Mem (i * 8)) (int_range 0 63) ]

let gen_event =
  let open QCheck.Gen in
  let* pc = int_range 0 15 in
  let* op_class =
    oneofl [ Opclass.Int_alu; Opclass.Load_store; Opclass.Fp_add_sub;
             Opclass.Control ]
  in
  let* dest = opt gen_loc in
  let* srcs = list_size (int_range 0 5) gen_loc in
  let* branch =
    if op_class = Opclass.Control then
      opt (map (fun taken -> { Trace.taken }) bool)
    else return None
  in
  return { Trace.pc; op_class; dest; srcs; branch }

let gen_loop =
  let open QCheck.Gen in
  let gen_reg = map (fun i -> Loc.Reg i) (int_range 1 6) in
  let* line = int_range 1 99 in
  let* kind = oneofl [ "for"; "while"; "do" ] in
  let* inductions = list_size (int_range 0 2) gen_reg in
  let* reductions = list_size (int_range 0 2) gen_reg in
  let* mem_reduction = bool in
  return
    { Loop.func = "main"; line; kind; inductions; reductions; mem_reduction }

(* Sometimes unmarked (legacy writes v1), sometimes loop-marked (legacy
   writes v2) — the differential properties must hold either way. *)
let gen_trace_parts =
  let open QCheck.Gen in
  let* events = list_size (int_range 0 40) gen_event in
  let* marked = bool in
  if not marked then return (events, [||], [])
  else
    let* nloops = int_range 1 4 in
    let* loops = list_repeat nloops gen_loop in
    let len = List.length events in
    let* raw_marks =
      list_size (int_range 0 30)
        (pair (int_bound len) (pair (int_bound 2) (int_range 0 (nloops - 1))))
    in
    let marks =
      List.sort (fun (p, _) (q, _) -> compare p q) raw_marks
      |> List.map (fun (pos, (ktag, loop)) ->
             { Trace.pos; kind = Option.get (Trace.mark_kind_of_tag ktag);
               loop })
    in
    (* the legacy codec only carries the loop table alongside marks, so
       a markless draw must drop it for the differential to hold *)
    if marks = [] then return (events, [||], [])
    else return (events, Array.of_list loops, marks)

let arb_trace_parts =
  QCheck.make gen_trace_parts ~print:(fun (events, loops, marks) ->
      Printf.sprintf "%d events, %d loops, %d marks" (List.length events)
        (Array.length loops) (List.length marks))

let build (events, loops, marks) =
  let t = Trace.of_list events in
  if Array.length loops > 0 then Trace.set_loops t loops;
  List.iter
    (fun { Trace.pos; kind; loop } -> Trace.add_mark_at t ~pos ~kind ~loop)
    marks;
  t

(* a deterministic marked trace for the corruption and store tests *)
let sample_trace () =
  let r k i = Loc.Reg (((i + k) mod 6) + 1) in
  let events =
    List.init 40 (fun i ->
        if i mod 7 = 0 then
          { Trace.pc = i; op_class = Opclass.Load_store; dest = Some (r 1 i);
            srcs = [ Loc.Mem (i * 8); r 2 i; r 3 i; r 4 i ]; branch = None }
        else if i mod 11 = 0 then
          { Trace.pc = i; op_class = Opclass.Control; dest = None;
            srcs = [ r 3 i ]; branch = Some { Trace.taken = i mod 2 = 0 } }
        else
          { Trace.pc = i; op_class = Opclass.Int_alu; dest = Some (r 0 i);
            srcs = [ r 4 i; r 5 i ]; branch = None })
  in
  let t = Trace.of_list events in
  Trace.set_loops t
    [| { Loop.func = "main"; line = 3; kind = "for";
         inductions = [ Loc.Reg 1 ]; reductions = []; mem_reduction = false }
    |];
  List.iter
    (fun (pos, ktag) ->
      Trace.add_mark_at t ~pos
        ~kind:(Option.get (Trace.mark_kind_of_tag ktag))
        ~loop:0)
    [ (0, 0); (10, 2); (20, 2); (40, 1) ];
  t

(* --- differential properties -------------------------------------------------- *)

let prop_flat_roundtrip =
  QCheck.Test.make ~name:"flat write → mmap → read is the identity" ~count:150
    arb_trace_parts (fun parts ->
      let t = build parts in
      with_temp_file (fun path ->
          Trace_io.write_file_flat path t;
          equal_traces t (Trace_io.map_file path)
          && equal_traces t (Trace_io.map_file ~verify:false path)
          (* the generic reader dispatches on the v3 magic too *)
          && equal_traces t (Trace_io.read_file path)))

let prop_conversion_equivalence =
  QCheck.Test.make ~name:"legacy v1/v2 and flat v3 decode identically"
    ~count:100 arb_trace_parts (fun parts ->
      let t = build parts in
      with_temp_file (fun legacy ->
          with_temp_file (fun flat ->
              Trace_io.write_file legacy t;
              Trace_io.write_file_flat flat t;
              let from_legacy = Trace_io.read_file legacy in
              equal_traces from_legacy (Trace_io.map_file flat))))

let prop_analysis_byte_identity =
  QCheck.Test.make
    ~name:"analyze/advise byte-identical across v1/v2/v3 × segments"
    ~count:25 arb_trace_parts (fun parts ->
      let t = build parts in
      with_temp_file (fun legacy ->
          with_temp_file (fun flat ->
              Trace_io.write_file legacy t;
              Trace_io.write_file_flat flat t;
              let from_legacy = Trace_io.read_file legacy in
              let mapped = Trace_io.map_file flat in
              let cfg = Config.default in
              let s_ref = Stats_codec.to_string (Analyzer.analyze cfg t) in
              let stats_ok =
                List.for_all
                  (fun tr ->
                    Stats_codec.to_string (Analyzer.analyze cfg tr) = s_ref)
                  [ from_legacy; mapped ]
                && Stats_codec.to_string
                     (Analyzer.analyze_stream ~verify:false cfg flat)
                   = s_ref
              in
              let a_ref = Advise_codec.to_string (Advise.analyze t) in
              stats_ok
              && Advise_codec.to_string (Advise.analyze from_legacy) = a_ref
              && Advise_codec.to_string (Advise.analyze mapped) = a_ref)))

(* --- corruption fuzz ----------------------------------------------------------- *)

(* Every strict prefix of a flat file is detectably truncated: the
   header declares the section sizes and the trailer seals the end, so
   both the mapped and the streamed reader must refuse with the typed
   error at every cut point — header bytes, stride boundaries and
   mid-section alike. *)
let test_flat_truncation_typed () =
  let t = sample_trace () in
  with_temp_file (fun path ->
      Trace_io.write_file_flat path t;
      let bytes = read_bytes path in
      let n = String.length bytes in
      with_temp_file (fun cut_path ->
          for cut = 0 to n - 1 do
            write_bytes cut_path (String.sub bytes 0 cut);
            (match Trace_io.map_file cut_path with
            | (_ : Trace.t) ->
                Alcotest.failf "map_file accepted truncation at %d/%d" cut n
            | exception Trace_io.Corrupt _ -> ());
            match Trace_io.map_file ~verify:false cut_path with
            | (_ : Trace.t) ->
                Alcotest.failf
                  "map_file ~verify:false accepted truncation at %d/%d" cut n
            | exception Trace_io.Corrupt _ -> ()
          done;
          (* the bounded-memory reader refuses the same cuts *)
          for i = 0 to 31 do
            let cut = i * (n - 1) / 31 in
            write_bytes cut_path (String.sub bytes 0 cut);
            match
              Trace_io.stream_file ~verify:false cut_path
                ~init:(fun (_ : Trace_io.flat_info) -> 0)
                ~rows:(fun acc (cols : Trace.columns) ~extra:_ -> acc + cols.n)
            with
            | (_ : int) ->
                Alcotest.failf "stream_file accepted truncation at %d/%d" cut n
            | exception Trace_io.Corrupt _ -> ()
          done))

(* Single-bit flips: the digest pass must catch every one; without the
   digest pass the structural validation must still never let anything
   escape but the typed error — and whatever it does accept must be
   safe to analyze (validated ids, no out-of-bounds column access). *)
let test_flat_bitflips_typed () =
  let t = sample_trace () in
  with_temp_file (fun path ->
      Trace_io.write_file_flat path t;
      let bytes = read_bytes path in
      let n = String.length bytes in
      with_temp_file (fun flip_path ->
          let flipped pos bit =
            let b = Bytes.of_string bytes in
            Bytes.set b pos
              (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
            Bytes.to_string b
          in
          (* every header bit: the layout lies, the readers must notice *)
          for pos = 0 to 39 do
            for bit = 0 to 7 do
              write_bytes flip_path (flipped pos bit);
              match Trace_io.map_file ~verify:false flip_path with
              | (_ : Trace.t) ->
                  Alcotest.failf "header flip at byte %d bit %d accepted" pos
                    bit
              | exception Trace_io.Corrupt _ -> ()
            done
          done;
          (* body and trailer flips, sampled across the whole file *)
          for i = 0 to 199 do
            let pos = 40 + (i * (n - 41) / 199) in
            write_bytes flip_path (flipped pos (i mod 8));
            (match Trace_io.map_file flip_path with
            | (_ : Trace.t) ->
                Alcotest.failf "digest missed a flip at byte %d" pos
            | exception Trace_io.Corrupt _ -> ());
            match Trace_io.map_file ~verify:false flip_path with
            | tr ->
                (* structurally valid: analysis over the mapped columns
                   must be memory-safe *)
                ignore (Analyzer.analyze Config.default tr)
            | exception Trace_io.Corrupt _ -> ()
          done))

let test_flat_hole_typed () =
  let t = sample_trace () in
  with_temp_file (fun path ->
      Trace_io.write_file_flat path t;
      let bytes = read_bytes path in
      let n = String.length bytes in
      (* zero a 16-byte span in the middle that holds live data *)
      let rec find_span pos =
        if pos + 16 >= n then Alcotest.fail "no nonzero span found"
        else if String.exists (fun c -> c <> '\000') (String.sub bytes pos 16)
        then pos
        else find_span (pos + 16)
      in
      let pos = find_span (n / 2) in
      let b = Bytes.of_string bytes in
      Bytes.fill b pos 16 '\000';
      with_temp_file (fun hole_path ->
          write_bytes hole_path (Bytes.to_string b);
          match Trace_io.map_file hole_path with
          | (_ : Trace.t) -> Alcotest.fail "mid-file hole accepted"
          | exception Trace_io.Corrupt _ -> ()))

(* --- store: quarantine and view lifetime -------------------------------------- *)

let put_flat store ~key t =
  Store.put store ~kind:"trace" ~key (fun oc ->
      Trace_io.write_channel_flat oc t)

let corrupt_artifact path =
  let bytes = read_bytes path in
  let pos = String.length bytes - 30 in
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  write_bytes path (Bytes.to_string b)

let rec collect_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Sys.is_directory p then collect_files p else [ p ])

let test_fsck_quarantines_flat_artifact () =
  with_store (fun store ->
      let t = sample_trace () in
      put_flat store ~key:"zc/fsck" t;
      corrupt_artifact (Store.artifact_path store ~kind:"trace" ~key:"zc/fsck");
      let report = Store.fsck store in
      Alcotest.(check int) "one artifact quarantined" 1 report.Store.quarantined;
      let quarantined = collect_files (Store.quarantine_dir store) in
      Alcotest.(check bool) "artifact moved aside" true
        (List.exists
           (fun p -> not (Filename.check_suffix p ".reason"))
           quarantined);
      let reasons =
        List.filter (fun p -> Filename.check_suffix p ".reason") quarantined
      in
      Alcotest.(check bool) ".reason note written" true (reasons <> []);
      Alcotest.(check bool) ".reason note is not empty" true
        (List.for_all (fun p -> String.length (read_bytes p) > 0) reasons);
      Alcotest.(check bool) "the corrupt artifact no longer serves" true
        (Store.find_view store ~kind:"trace" ~key:"zc/fsck" = None))

(* A served view is a position into the artifact file; quarantine moves
   files by rename, and POSIX keeps mapped pages alive across rename and
   unlink — so a reader holding a mapped trace must be undisturbed by a
   concurrent fsck, even one that quarantines the viewed key itself. *)
let test_view_survives_fsck () =
  with_store (fun store ->
      let t = sample_trace () in
      put_flat store ~key:"zc/keep" t;
      put_flat store ~key:"zc/doomed" t;
      match Store.find_view store ~kind:"trace" ~key:"zc/keep" with
      | None -> Alcotest.fail "view absent"
      | Some v ->
          let mapped =
            Trace_io.map_file ~verify:false ~pos:v.Store.view_pos
              v.Store.view_path
          in
          corrupt_artifact
            (Store.artifact_path store ~kind:"trace" ~key:"zc/doomed");
          let report = Store.fsck store in
          Alcotest.(check int) "unrelated key quarantined" 1
            report.Store.quarantined;
          Alcotest.(check bool) "mapped view reads through the fsck" true
            (equal_traces t mapped);
          (* quarantining the viewed key itself only renames the file *)
          Store.discredit store ~kind:"trace" ~key:"zc/keep" "test";
          Alcotest.(check bool) "key gone from the store" true
            (Store.find_view store ~kind:"trace" ~key:"zc/keep" = None);
          Alcotest.(check string) "live mapping analyzes identically"
            (Stats_codec.to_string (Analyzer.analyze Config.default t))
            (Stats_codec.to_string (Analyzer.analyze Config.default mapped)))

(* --- bounded memory ------------------------------------------------------------ *)

let synthetic_event i =
  let r k = Loc.Reg ((i + k) mod 32) in
  if i mod 7 = 0 then
    { Trace.pc = i mod 997; op_class = Opclass.Load_store; dest = Some (r 1);
      srcs = [ Loc.Mem (i * 13 mod 4096 * 4); r 2 ]; branch = None }
  else if i mod 11 = 0 then
    { Trace.pc = i mod 997; op_class = Opclass.Control; dest = None;
      srcs = [ r 3 ]; branch = Some { Trace.taken = i mod 2 = 0 } }
  else if i mod 5 = 0 then
    { Trace.pc = i mod 997; op_class = Opclass.Fp_add_sub;
      dest = Some (Loc.Freg (i mod 32)); srcs = [ Loc.Freg ((i + 9) mod 32) ];
      branch = None }
  else
    { Trace.pc = i mod 997; op_class = Opclass.Int_alu; dest = Some (r 0);
      srcs = [ r 4; r 5 ]; branch = None }

(* Stream a ~64 MiB synthetic trace and hold the reader to its word:
   the GC-visible heap must stay within a fixed ceiling while folding
   (sampled every 64 Ki rows), and the kernel-measured RSS high-water
   delta of a full streamed analysis must stay a small multiple of the
   64 Ki-row window — far under the trace size. *)
let test_bounded_memory_stream () =
  let events = 1_600_000 in
  let path = Filename.temp_file "ddg-zerocopy-large" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match
        let fw = Trace_io.flat_writer ~events path in
        for i = 0 to events - 1 do
          Trace_io.flat_add fw (synthetic_event i)
        done;
        Trace_io.flat_close fw
      with
      | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> () (* skip: no disk *)
      | () ->
          let trace_bytes = (Unix.stat path).Unix.st_size in
          Alcotest.(check bool) "trace is ~64 MiB" true
            (trace_bytes > 48 * 1024 * 1024);
          Gc.compact ();
          let baseline = (Gc.quick_stat ()).Gc.heap_words in
          let ceiling = baseline + (4 * 1024 * 1024) (* + 32 MiB *) in
          let worst = ref 0 in
          let rows =
            Trace_io.stream_file ~verify:false path
              ~init:(fun (_ : Trace_io.flat_info) -> 0)
              ~rows:(fun n (cols : Trace.columns) ~extra:_ ->
                (* one sample per 64 Ki-row read window *)
                let live = (Gc.quick_stat ()).Gc.heap_words in
                if live > !worst then worst := live;
                n + cols.n)
          in
          Alcotest.(check int) "every row streamed" events rows;
          Alcotest.(check bool) "heap stayed under the ceiling" true
            (!worst <= ceiling);
          (* the full analyzer over the same file, kernel-measured *)
          let armed = Obs.reset_peak_rss () in
          let before = Obs.peak_rss_bytes () in
          let stats = Analyzer.analyze_stream ~verify:false Config.default path in
          Alcotest.(check int) "every event analyzed" events
            stats.Analyzer.events;
          (match (armed, before, Obs.peak_rss_bytes ()) with
          | true, Some before, Some after ->
              let delta = after - before in
              Alcotest.(check bool)
                (Printf.sprintf
                   "peak RSS delta %d B under 32 MiB for a %d B trace" delta
                   trace_bytes)
                true
                (delta < 32 * 1024 * 1024)
          | _ -> (* procfs unavailable: the Gc ceiling above still held *) ()))

(* --- protocol: chunked fetch-through ------------------------------------------- *)

let test_forward_range_frames_roundtrip () =
  let req =
    Protocol.Forward_range
      { kind = "trace"; key = "mtxx/tiny/v3"; offset = 8 * 1024 * 1024;
        length = 1 lsl 20 }
  in
  let frames =
    [ Protocol.Request { deadline_ms = 250; attempt = 1; request = req };
      Protocol.Ok_response
        (Protocol.Fetched_range
           { total = 123_456_789; data = "\x00\xffraw\x01bytes" });
      Protocol.Ok_response (Protocol.Fetched_range { total = 0; data = "" })
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) "frame round-trips" true
        (Protocol.frame_of_string (Protocol.frame_to_string f) = f))
    frames;
  Alcotest.(check string) "verb" "forward-range" (Protocol.verb_name req);
  Alcotest.(check bool) "safe to replay" true (Protocol.idempotent req)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddg_zc_%d_%d.sock" (Unix.getpid ()) !n)

let with_store_server f =
  let dir = fresh_dir () in
  let store = Store.open_ ~dir () in
  let runner = Runner.create ~store ~size:Ddg_workloads.Workload.Tiny () in
  let socket = fresh_socket () in
  let server =
    Server.create ~runner ~workers:2 ~max_inflight:8 ~default_deadline_s:30.0
      [ `Unix socket ]
  in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread;
      (try Sys.remove socket with Sys_error _ -> ());
      if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (`Unix socket) store)

let test_forward_range_served () =
  with_store_server (fun endpoint store ->
      let t = sample_trace () in
      put_flat store ~key:"zc/range" t;
      let expected =
        In_channel.with_open_bin
          (Store.artifact_path store ~kind:"trace" ~key:"zc/range")
          In_channel.input_all
      in
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          (* deliberately tiny chunks: many round trips, exact reassembly *)
          let buf = Buffer.create 256 in
          let rec pull offset =
            match
              Client.request client
                (Protocol.Forward_range
                   { kind = "trace"; key = "zc/range"; offset; length = 7 })
            with
            | Protocol.Fetched_range { total; data } ->
                Buffer.add_string buf data;
                let got = offset + String.length data in
                if got < total && String.length data > 0 then pull got
            | _ -> Alcotest.fail "expected Fetched_range"
          in
          pull 0;
          Alcotest.(check string) "chunked fetch reassembles the artifact"
            expected (Buffer.contents buf);
          (* the reassembled bytes install digest-verified elsewhere *)
          with_store (fun other ->
              match
                Store.import other (fun oc -> Buffer.output_buffer oc buf)
              with
              | Some (kind, key) ->
                  Alcotest.(check string) "imported kind" "trace" kind;
                  Alcotest.(check string) "imported key" "zc/range" key
              | None -> Alcotest.fail "reassembled artifact failed import");
          (* absent artifacts are a typed refusal, not a crash *)
          match
            Client.request client
              (Protocol.Forward_range
                 { kind = "trace"; key = "zc/absent"; offset = 0; length = 7 })
          with
          | exception Client.Server_error { code = Protocol.Internal; _ } -> ()
          | _ -> Alcotest.fail "expected a typed error for an absent artifact"))

(* Cold serves compute and store the trace as a flat artifact; warm
   serves of a different config re-read it through find_view + mmap.
   Both must be byte-identical to a store-less in-process analysis. *)
let test_served_stats_identical_through_flat_store () =
  let w =
    match Ddg_workloads.Registry.find "mtxx" with
    | Some w -> w
    | None -> Alcotest.fail "missing workload mtxx"
  in
  let direct config =
    let runner = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
    Stats_codec.to_string (Runner.analyze runner w config)
  in
  with_store_server (fun endpoint _store ->
      Client.with_connection ~retry_for_s:5.0 endpoint (fun client ->
          let served config =
            match
              Client.request client
                (Protocol.Analyze { workload = "mtxx"; config })
            with
            | Protocol.Analyzed stats -> Stats_codec.to_string stats
            | _ -> Alcotest.fail "expected Analyzed"
          in
          Alcotest.(check string) "cold serve = in-process"
            (direct Config.default) (served Config.default);
          (* different config, same trace: the store serves the flat
             artifact through a mapped view *)
          Alcotest.(check string) "warm serve through mmapped trace"
            (direct Config.dataflow) (served Config.dataflow)))

let tests =
  [ QCheck_alcotest.to_alcotest prop_flat_roundtrip;
    QCheck_alcotest.to_alcotest prop_conversion_equivalence;
    QCheck_alcotest.to_alcotest prop_analysis_byte_identity;
    Alcotest.test_case "flat truncation fails typed at every cut" `Quick
      test_flat_truncation_typed;
    Alcotest.test_case "flat bit-flips fail typed or analyze safely" `Quick
      test_flat_bitflips_typed;
    Alcotest.test_case "flat mid-file hole fails typed" `Quick
      test_flat_hole_typed;
    Alcotest.test_case "fsck quarantines a corrupt flat artifact" `Quick
      test_fsck_quarantines_flat_artifact;
    Alcotest.test_case "served view survives concurrent fsck" `Quick
      test_view_survives_fsck;
    Alcotest.test_case "streamed analysis stays in bounded memory" `Quick
      test_bounded_memory_stream;
    Alcotest.test_case "forward-range frames round-trip" `Quick
      test_forward_range_frames_roundtrip;
    Alcotest.test_case "chunked fetch-through serves exact bytes" `Quick
      test_forward_range_served;
    Alcotest.test_case "served stats byte-identical through flat store" `Quick
      test_served_stats_identical_through_flat_store
  ]
