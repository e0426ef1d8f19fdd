(* Tests for the persistent artifact store and the cached experiment
   runner built on it: put/find round trips, corruption (truncation and
   bit flips) quarantined and transparently recomputed, the stats codec
   round-tripping canonically, the streaming analyzer agreeing with the
   in-memory one, warm runs hitting the store without tracing or
   analyzing anything, and [workers > 1] producing bit-identical
   results. *)

open Ddg_experiments
module Store = Ddg_store.Store

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- temp directories ------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let fresh_dir () =
  (* a unique path that does not exist yet; [Store.open_] creates it *)
  let path = Filename.temp_file "ddg_store_test" "" in
  Sys.remove path;
  path

let with_store f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f (Store.open_ ~dir ()))

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- the store itself ------------------------------------------------------ *)

let put_sample store ~key =
  Store.put store ~kind:"sample" ~key ~wall:0.25 (fun oc ->
      Store.write_varint oc 42;
      Store.write_string oc "hello, artifact";
      Store.write_float oc 3.5)

let find_sample store ~key =
  Store.find store ~kind:"sample" ~key (fun ic ->
      let n = Store.read_varint ic in
      let s = Store.read_string ic in
      let f = Store.read_float ic in
      (n, s, f))

let test_roundtrip () =
  with_store (fun store ->
      put_sample store ~key:"k1";
      (match find_sample store ~key:"k1" with
      | Some v ->
          Alcotest.(check (triple int string (float 0.0)))
            "payload survives" (42, "hello, artifact", 3.5) v
      | None -> Alcotest.fail "artifact not found");
      Alcotest.(check bool) "absent key misses" true
        (find_sample store ~key:"other" = None))

let test_overwrite () =
  with_store (fun store ->
      Store.put store ~kind:"sample" ~key:"k" (fun oc ->
          Store.write_varint oc 1);
      Store.put store ~kind:"sample" ~key:"k" (fun oc ->
          Store.write_varint oc 2);
      let v =
        Store.find store ~kind:"sample" ~key:"k" Store.read_varint
      in
      Alcotest.(check (option int)) "latest write wins" (Some 2) v)

let quarantined_count store =
  if Sys.file_exists (Store.quarantine_dir store) then
    Array.length (Sys.readdir (Store.quarantine_dir store))
  else 0

let check_corruption_handled store ~label path =
  (* a corrupt artifact is a miss, never an exception *)
  Alcotest.(check bool) (label ^ " reads as a miss") true
    (find_sample store ~key:"k" = None);
  Alcotest.(check bool) (label ^ " removed from the store") false
    (Sys.file_exists path);
  Alcotest.(check bool) (label ^ " quarantined with a reason") true
    (quarantined_count store >= 2);
  (* recompute transparently: a fresh put makes the key live again *)
  put_sample store ~key:"k";
  Alcotest.(check bool) (label ^ " recomputed") true
    (find_sample store ~key:"k" <> None)

let test_truncation () =
  with_store (fun store ->
      put_sample store ~key:"k";
      let path = Store.artifact_path store ~kind:"sample" ~key:"k" in
      let bytes = read_bytes path in
      write_bytes path (String.sub bytes 0 (String.length bytes - 5));
      check_corruption_handled store ~label:"truncated artifact" path)

let test_bit_flip () =
  with_store (fun store ->
      put_sample store ~key:"k";
      let path = Store.artifact_path store ~kind:"sample" ~key:"k" in
      let bytes = Bytes.of_string (read_bytes path) in
      let i = Bytes.length bytes - 3 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
      write_bytes path (Bytes.to_string bytes);
      check_corruption_handled store ~label:"bit-flipped artifact" path)

let test_decoder_failure_quarantines () =
  with_store (fun store ->
      put_sample store ~key:"k";
      let v =
        Store.find store ~kind:"sample" ~key:"k" (fun _ ->
            raise (Store.Corrupt "decoder rejects payload"))
      in
      Alcotest.(check bool) "decoder failure is a miss" true (v = None);
      Alcotest.(check bool) "artifact quarantined" true
        (quarantined_count store >= 2))

let test_manifest () =
  with_store (fun store ->
      put_sample store ~key:"some/interesting key";
      let manifest =
        read_bytes (Filename.concat (Store.dir store) "manifest.json")
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            ("manifest mentions " ^ needle)
            true (contains manifest needle))
        [ "\"sample\""; "some/interesting key"; "\"bytes\"";
          "\"wall_seconds\"" ])

(* --- stats codec ------------------------------------------------------------ *)

let encode_stats = Ddg_paragraph.Stats_codec.to_string
let decode_stats = Ddg_paragraph.Stats_codec.of_string

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"stats codec round trip is canonical" ~count:150
    Test_props.arb_trace_and_config (fun (events, config) ->
      let stats =
        Ddg_paragraph.Analyzer.analyze config (Ddg_sim.Trace.of_list events)
      in
      let bytes = encode_stats stats in
      let back = decode_stats bytes in
      (* canonical: re-encoding the decoded value yields the same bytes *)
      encode_stats back = bytes
      && back.Ddg_paragraph.Analyzer.critical_path = stats.critical_path
      && back.placed_ops = stats.placed_ops
      && back.events = stats.events
      && back.available_parallelism = stats.available_parallelism
      && Ddg_paragraph.Profile.series back.profile
         = Ddg_paragraph.Profile.series stats.profile
      && Ddg_paragraph.Dist.buckets back.lifetimes
         = Ddg_paragraph.Dist.buckets stats.lifetimes)

(* --- runner + store integration -------------------------------------------- *)

let tiny_jobs runner configs =
  List.concat_map
    (fun w -> List.map (fun c -> (w, c)) configs)
    (Runner.workloads runner)

let recording_progress () =
  let lock = Mutex.create () and lines = ref [] in
  let progress s =
    Mutex.lock lock;
    lines := s :: !lines;
    Mutex.unlock lock
  in
  (progress, fun () -> List.rev !lines)

let computed_anything lines =
  List.exists
    (fun l ->
      String.starts_with ~prefix:"tracing " l
      || String.starts_with ~prefix:"analyzing " l)
    lines

let test_warm_run_is_cache_hot () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let configs = Ddg_paragraph.Config.[ default; dataflow ] in
      let cold_progress, cold_lines = recording_progress () in
      let cold =
        Runner.create ~size:Ddg_workloads.Workload.Tiny
          ~progress:cold_progress
          ~store:(Store.open_ ~dir ()) ()
      in
      Runner.prefetch cold (tiny_jobs cold configs);
      Alcotest.(check bool) "cold run computes" true
        (computed_anything (cold_lines ()));
      (* a fresh runner against the same directory: no simulation, no
         analysis, same stats *)
      let warm_progress, warm_lines = recording_progress () in
      let warm =
        Runner.create ~size:Ddg_workloads.Workload.Tiny
          ~progress:warm_progress
          ~store:(Store.open_ ~dir ()) ()
      in
      Runner.prefetch warm (tiny_jobs warm configs);
      Alcotest.(check bool) "warm run neither traces nor analyzes" false
        (computed_anything (warm_lines ()));
      List.iter
        (fun (w, c) ->
          Alcotest.(check string)
            (w.Ddg_workloads.Workload.name ^ " stats identical")
            (encode_stats (Runner.analyze cold w c))
            (encode_stats (Runner.analyze warm w c)))
        (tiny_jobs warm configs))

let test_corrupt_store_recomputes () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
      let config = Ddg_paragraph.Config.default in
      let cold =
        Runner.create ~size:Ddg_workloads.Workload.Tiny
          ~store:(Store.open_ ~dir ()) ()
      in
      let expected = encode_stats (Runner.analyze cold w config) in
      (* truncate the stats artifact behind the runner's back *)
      let store = Store.open_ ~dir () in
      let path =
        Store.artifact_path store ~kind:"stats"
          ~key:(Runner.stats_key cold w config)
      in
      let bytes = read_bytes path in
      write_bytes path (String.sub bytes 0 (String.length bytes / 2));
      let progress, lines = recording_progress () in
      let fresh =
        Runner.create ~size:Ddg_workloads.Workload.Tiny ~progress
          ~store:(Store.open_ ~dir ()) ()
      in
      Alcotest.(check string) "recomputed stats identical" expected
        (encode_stats (Runner.analyze fresh w config));
      Alcotest.(check bool) "recomputation actually analyzed" true
        (List.exists (String.starts_with ~prefix:"analyzing ") (lines ()));
      Alcotest.(check bool) "corrupt artifact quarantined" true
        (quarantined_count store >= 1))

let test_warm_answers_are_cached_bytes () =
  (* the memory tier holds the encoded answer: a warm hit hands back the
     very string the fresh answer was encoded into, re-encoding nothing *)
  let runner = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
  let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
  let config = Ddg_paragraph.Config.default in
  List.iter
    (fun (what, answer) ->
      let fresh = answer runner w config in
      let warm = answer runner w config in
      Alcotest.(check bool) (what ^ ": warm hit is the fresh string") true
        (fresh == warm);
      Alcotest.(check bool) (what ^ ": and stays so") true
        (warm == answer runner w config))
    [ ("stats", Runner.analyze_bytes); ("advice", Runner.advise_bytes) ]

let test_malformed_stats_artifact_recomputed () =
  (* a stats artifact whose digest is valid but whose payload does not
     decode (as a faulty peer could hand over) is quarantined on the way
     into the memory tier, and the lookup recomputes exactly once *)
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
      let config = Ddg_paragraph.Config.default in
      let expected =
        Runner.analyze_bytes
          (Runner.create ~size:Ddg_workloads.Workload.Tiny ())
          w config
      in
      let store = Store.open_ ~dir () in
      let runner =
        Runner.create ~size:Ddg_workloads.Workload.Tiny ~store ()
      in
      Store.put store ~kind:"stats" ~key:(Runner.stats_key runner w config)
        (fun oc ->
          output_string oc (String.sub expected 0 (String.length expected / 2)));
      Alcotest.(check string) "recomputed stats identical" expected
        (Runner.analyze_bytes runner w config);
      Alcotest.(check string) "then a memory hit" expected
        (Runner.analyze_bytes runner w config);
      let c = Runner.counters runner in
      Alcotest.(check int) "recomputed exactly once" 1 c.Runner.analyses;
      Alcotest.(check int) "no store hit counted" 0 c.stats_store_hits;
      Alcotest.(check int) "malformed artifact quarantined" 1
        c.artifact_quarantines;
      (* the recomputed answer replaced it in the store *)
      let again =
        Runner.create ~size:Ddg_workloads.Workload.Tiny
          ~store:(Store.open_ ~dir ()) ()
      in
      Alcotest.(check string) "store serves the recomputed bytes" expected
        (Runner.analyze_bytes again w config);
      Alcotest.(check int) "without analysing" 0
        (Runner.counters again).Runner.analyses)

(* --- fsck ------------------------------------------------------------------- *)

let fsck_check label (expected : Store.fsck_report) (got : Store.fsck_report) =
  Alcotest.(check (list int))
    label
    [ expected.scanned; expected.valid; expected.quarantined;
      expected.missing; expected.swept_temps ]
    [ got.scanned; got.valid; got.quarantined; got.missing; got.swept_temps ]

let test_fsck_clean_store () =
  with_store (fun store ->
      put_sample store ~key:"k1";
      put_sample store ~key:"k2";
      put_sample store ~key:"k3";
      fsck_check "clean store"
        { scanned = 3; valid = 3; quarantined = 0; missing = 0;
          swept_temps = 0 }
        (Store.fsck store);
      Alcotest.(check bool) "artifacts still served" true
        (find_sample store ~key:"k2" <> None))

let test_fsck_quarantines_corruption () =
  with_store (fun store ->
      put_sample store ~key:"good";
      put_sample store ~key:"bad";
      let path = Store.artifact_path store ~kind:"sample" ~key:"bad" in
      let bytes = Bytes.of_string (read_bytes path) in
      let i = Bytes.length bytes - 3 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x40));
      write_bytes path (Bytes.to_string bytes);
      fsck_check "one corrupt of two"
        { scanned = 2; valid = 1; quarantined = 1; missing = 0;
          swept_temps = 0 }
        (Store.fsck store);
      Alcotest.(check bool) "corrupt file moved aside" false
        (Sys.file_exists path);
      Alcotest.(check bool) "quarantine holds artifact + reason" true
        (quarantined_count store >= 2);
      Alcotest.(check int) "handle counted it" 1
        (Store.quarantine_count store);
      Alcotest.(check bool) "good artifact survives" true
        (find_sample store ~key:"good" <> None);
      (* the rebuilt manifest no longer lists the quarantined file, so a
         second pass is clean *)
      fsck_check "second pass clean"
        { scanned = 1; valid = 1; quarantined = 0; missing = 0;
          swept_temps = 0 }
        (Store.fsck store))

let test_fsck_quarantines_misplaced () =
  with_store (fun store ->
      put_sample store ~key:"k";
      let path = Store.artifact_path store ~kind:"sample" ~key:"k" in
      (* a bit-perfect copy under the wrong content address: unreachable
         by any lookup, so fsck must move it aside *)
      let rogue = Filename.concat (Store.dir store) "sample-0000.art" in
      write_bytes rogue (read_bytes path);
      fsck_check "misplaced copy quarantined"
        { scanned = 2; valid = 1; quarantined = 1; missing = 0;
          swept_temps = 0 }
        (Store.fsck store);
      Alcotest.(check bool) "rogue file gone" false (Sys.file_exists rogue);
      Alcotest.(check bool) "original still served" true
        (find_sample store ~key:"k" <> None))

let test_fsck_counts_missing () =
  with_store (fun store ->
      put_sample store ~key:"k1";
      put_sample store ~key:"k2";
      Sys.remove (Store.artifact_path store ~kind:"sample" ~key:"k2");
      fsck_check "missing counted"
        { scanned = 1; valid = 1; quarantined = 0; missing = 1;
          swept_temps = 0 }
        (Store.fsck store);
      (* the rebuild dropped the dangling entry *)
      fsck_check "second pass clean"
        { scanned = 1; valid = 1; quarantined = 0; missing = 0;
          swept_temps = 0 }
        (Store.fsck store))

let dead_pid () =
  (* spawn a real process and wait for it: its pid is guaranteed dead
     and recently allocated, so the liveness probe must say "gone" *)
  let pid =
    Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  pid

let test_fsck_sweeps_dead_temps () =
  with_store (fun store ->
      put_sample store ~key:"k";
      let dead =
        Filename.concat (Store.dir store)
          (Printf.sprintf "tmp.%d.0.art" (dead_pid ()))
      in
      let live =
        Filename.concat (Store.dir store)
          (Printf.sprintf "tmp.%d.999.art" (Unix.getpid ()))
      in
      write_bytes dead "half-written";
      write_bytes live "still in flight";
      fsck_check "dead writer's temp swept"
        { scanned = 1; valid = 1; quarantined = 0; missing = 0;
          swept_temps = 1 }
        (Store.fsck store);
      Alcotest.(check bool) "dead temp removed" false (Sys.file_exists dead);
      Alcotest.(check bool) "live writer's temp untouched" true
        (Sys.file_exists live))

let test_racing_recovery_converges () =
  (* two runners, two store handles, one corrupted artifact: both must
     detect the corruption, recover independently (one wins the
     quarantine rename, the loser's is a benign no-op) and converge on
     a single valid artifact with the correct bytes *)
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let w = Option.get (Ddg_workloads.Registry.find "mtxx") in
      let config = Ddg_paragraph.Config.default in
      let cold =
        Runner.create ~size:Ddg_workloads.Workload.Tiny
          ~store:(Store.open_ ~dir ()) ()
      in
      let expected = encode_stats (Runner.analyze cold w config) in
      let path =
        Store.artifact_path (Store.open_ ~dir ()) ~kind:"stats"
          ~key:(Runner.stats_key cold w config)
      in
      let bytes = read_bytes path in
      write_bytes path (String.sub bytes 0 (String.length bytes / 2));
      let results = Array.make 2 "" in
      let barrier = Atomic.make 0 in
      let racer i =
        Thread.create
          (fun () ->
            let runner =
              Runner.create ~size:Ddg_workloads.Workload.Tiny
                ~store:(Store.open_ ~dir ()) ()
            in
            Atomic.incr barrier;
            while Atomic.get barrier < 2 do Thread.yield () done;
            results.(i) <- encode_stats (Runner.analyze runner w config))
          ()
      in
      let threads = [ racer 0; racer 1 ] in
      List.iter Thread.join threads;
      Alcotest.(check string) "racer 0 recovered" expected results.(0);
      Alcotest.(check string) "racer 1 recovered" expected results.(1);
      (* exactly one valid artifact on disk, re-served without compute *)
      let store = Store.open_ ~dir () in
      Alcotest.(check bool) "store converged to a valid artifact" true
        (Store.find store ~kind:"stats"
           ~key:(Runner.stats_key cold w config)
           (fun ic ->
             Ddg_paragraph.Stats_codec.of_string (In_channel.input_all ic))
        <> None);
      let report = Store.fsck store in
      Alcotest.(check int) "no corrupt artifacts remain" 0
        report.Store.quarantined)

(* Temp names are numbered per process, not per handle: a put through
   one handle nested inside another handle's put on the same directory
   must not reuse (and on cleanup delete) the outer put's payload. *)
let test_handles_never_share_temp_names () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let a = Store.open_ ~dir () and b = Store.open_ ~dir () in
      Store.put a ~kind:"sample" ~key:"outer" (fun oc ->
          Store.write_varint oc 7;
          put_sample b ~key:"inner");
      Alcotest.(check (option int))
        "the outer put survived the nested one" (Some 7)
        (Store.find a ~kind:"sample" ~key:"outer" Store.read_varint);
      Alcotest.(check bool) "the nested put landed" true
        (find_sample b ~key:"inner" <> None))

let test_parallel_matches_sequential () =
  let configs =
    Ddg_paragraph.Config.(
      [ default; dataflow ]
      @ List.map
          (fun r -> with_renaming r default)
          [ rename_none; rename_registers_only; rename_registers_stack ])
  in
  let seq = Runner.create ~size:Ddg_workloads.Workload.Tiny () in
  let par = Runner.create ~size:Ddg_workloads.Workload.Tiny ~workers:4 () in
  Runner.prefetch seq (tiny_jobs seq configs);
  Runner.prefetch par (tiny_jobs par configs);
  List.iter
    (fun (w, c) ->
      Alcotest.(check string)
        (w.Ddg_workloads.Workload.name ^ " under "
        ^ Ddg_paragraph.Config.describe c)
        (encode_stats (Runner.analyze seq w c))
        (encode_stats (Runner.analyze par w c)))
    (tiny_jobs seq configs);
  (* the rendered tables are character-identical too *)
  Alcotest.(check string) "table 3 identical" (Table3.render seq)
    (Table3.render par);
  Alcotest.(check string) "table 4 identical" (Table4.render seq)
    (Table4.render par)

let tests =
  [ Alcotest.test_case "put/find round trip" `Quick test_roundtrip;
    Alcotest.test_case "overwrite replaces" `Quick test_overwrite;
    Alcotest.test_case "truncation quarantined" `Quick test_truncation;
    Alcotest.test_case "bit flip quarantined" `Quick test_bit_flip;
    Alcotest.test_case "decoder failure quarantined" `Quick
      test_decoder_failure_quarantines;
    Alcotest.test_case "manifest written" `Quick test_manifest;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "warm run is cache-hot" `Quick test_warm_run_is_cache_hot;
    Alcotest.test_case "corrupt store artifact recomputed" `Quick
      test_corrupt_store_recomputes;
    Alcotest.test_case "warm answers are the cached bytes" `Quick
      test_warm_answers_are_cached_bytes;
    Alcotest.test_case "malformed stats artifact recomputed once" `Quick
      test_malformed_stats_artifact_recomputed;
    Alcotest.test_case "fsck: clean store" `Quick test_fsck_clean_store;
    Alcotest.test_case "fsck: corruption quarantined" `Quick
      test_fsck_quarantines_corruption;
    Alcotest.test_case "fsck: misplaced artifact quarantined" `Quick
      test_fsck_quarantines_misplaced;
    Alcotest.test_case "fsck: dangling manifest entries counted" `Quick
      test_fsck_counts_missing;
    Alcotest.test_case "fsck: dead writers' temps swept" `Quick
      test_fsck_sweeps_dead_temps;
    Alcotest.test_case "racing recovery converges" `Quick
      test_racing_recovery_converges;
    Alcotest.test_case "two handles in one process never share a temp name"
      `Quick test_handles_never_share_temp_names;
    Alcotest.test_case "workers=4 matches sequential" `Quick
      test_parallel_matches_sequential ]
