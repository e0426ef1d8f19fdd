(* Property-based tests (qcheck, registered as alcotest cases).

   The central properties, on arbitrary traces: the explicit DDG
   builder, which reads every level from the analyzer's kernel,
   reproduces the streaming analyzer's critical path and profile under
   arbitrary switch combinations, and under full renaming its edges
   account for every level of its critical chain. Plus invariants on
   monotonicity (more renaming / larger windows never reduce available
   parallelism), profile mass conservation, window width bounds, and the
   Dist/Profile containers. *)

open Ddg_isa
open Ddg_paragraph
open Ddg_sim

(* --- random trace events ------------------------------------------------ *)

let gen_reg = QCheck.Gen.map (fun i -> Loc.Reg i) (QCheck.Gen.int_range 1 6)
let gen_freg = QCheck.Gen.map (fun i -> Loc.Freg i) (QCheck.Gen.int_range 0 3)

let gen_mem =
  QCheck.Gen.oneof
    [ QCheck.Gen.map
        (fun i -> Loc.Mem (Segment.data_base + (4 * i)))
        (QCheck.Gen.int_range 0 7);
      QCheck.Gen.map
        (fun i -> Loc.Mem (Segment.stack_top - (4 * i)))
        (QCheck.Gen.int_range 1 8);
      QCheck.Gen.map
        (fun i -> Loc.Mem (Segment.heap_base + (4 * i)))
        (QCheck.Gen.int_range 0 3) ]

let gen_event =
  let open QCheck.Gen in
  let* pc = int_range 0 15 in
  let alu =
    let* cls = oneofl [ Opclass.Int_alu; Opclass.Int_multiply; Opclass.Int_divide ] in
    let* dest = gen_reg in
    let* srcs = list_size (int_range 0 2) gen_reg in
    return { Trace.pc; op_class = cls; dest = Some dest; srcs; branch = None }
  in
  let fp =
    let* cls = oneofl [ Opclass.Fp_add_sub; Opclass.Fp_multiply; Opclass.Fp_divide ] in
    let* dest = gen_freg in
    let* srcs = list_size (int_range 0 2) gen_freg in
    return { Trace.pc; op_class = cls; dest = Some dest; srcs; branch = None }
  in
  let load =
    let* dest = gen_reg in
    let* base = gen_reg in
    let* addr = gen_mem in
    return
      { Trace.pc; op_class = Opclass.Load_store; dest = Some dest;
        srcs = [ base; addr ]; branch = None }
  in
  let store =
    let* src = gen_reg in
    let* addr = gen_mem in
    return
      { Trace.pc; op_class = Opclass.Load_store; dest = Some addr;
        srcs = [ src ]; branch = None }
  in
  let syscall =
    let* srcs = list_size (int_range 0 1) gen_reg in
    return { Trace.pc; op_class = Opclass.Syscall; dest = None; srcs; branch = None }
  in
  let branch =
    let* srcs = list_size (int_range 0 2) gen_reg in
    let* taken = bool in
    return
      { Trace.pc; op_class = Opclass.Control; dest = None; srcs;
        branch = Some { Trace.taken } }
  in
  (* more sources than the packed trace's three inline columns, to
     exercise the extra-source overflow table *)
  let wide =
    let* cls = oneofl [ Opclass.Int_alu; Opclass.Fp_add_sub ] in
    let* dest = gen_reg in
    let* srcs =
      list_size (int_range 4 6) (oneof [ gen_reg; gen_freg; gen_mem ])
    in
    return { Trace.pc; op_class = cls; dest = Some dest; srcs; branch = None }
  in
  frequency
    [ (4, alu); (2, fp); (3, load); (3, store); (1, syscall); (2, branch);
      (1, wide) ]

let print_event e = Format.asprintf "%a" Trace.pp_event e

let gen_trace = QCheck.Gen.list_size (QCheck.Gen.int_range 0 120) gen_event

let arb_trace =
  QCheck.make gen_trace ~shrink:QCheck.Shrink.list
    ~print:(fun es -> String.concat "\n" (List.map print_event es))

(* --- random configs ------------------------------------------------------- *)

let gen_config =
  let open QCheck.Gen in
  let* registers = bool and* stack = bool and* data = bool in
  let* syscall_stall = bool in
  let* window = oneofl [ None; Some 1; Some 2; Some 5; Some 16; Some 64 ] in
  let* total_fu = oneofl [ None; Some 1; Some 2; Some 4 ] in
  (* class pools, alone or under the total; half the draws leave them
     unlimited so plain and total-only configurations stay common *)
  let class_limit = oneofl [ None; Some 1; Some 2; Some 3 ] in
  let* int_units, fp_units, mem_units =
    frequency
      [ (1, return (None, None, None));
        (1, triple class_limit class_limit class_limit) ]
  in
  let* branch =
    oneofl
      [ Config.Perfect; Config.Predict_taken; Config.Predict_not_taken;
        Config.Two_bit 4 ]
  in
  return
    {
      Config.default with
      renaming = { Config.registers; stack; data };
      syscall_stall;
      window;
      fu = { Config.total = total_fu; int_units; fp_units; mem_units };
      branch;
    }

let arb_config = QCheck.make gen_config ~print:Config.describe

let print_case (es, c) =
  Config.describe c ^ "\n" ^ String.concat "\n" (List.map print_event es)

(* a failing case shrinks by dropping events; its config stays as drawn *)
let shrink_case = QCheck.Shrink.(pair list nil)

let arb_trace_and_config =
  QCheck.make QCheck.Gen.(pair gen_trace gen_config) ~shrink:shrink_case
    ~print:print_case

(* --- properties ------------------------------------------------------------ *)

let prop_analyzer_matches_ddg =
  QCheck.Test.make ~name:"analyzer and explicit DDG agree" ~count:300
    arb_trace_and_config (fun (events, config) ->
      let trace = Trace.of_list events in
      let stats = Analyzer.analyze config trace in
      let ddg = Ddg.build config trace in
      let profile_ok =
        let exact = Ddg.ops_per_level ddg in
        Profile.bucket_width stats.profile = 1
        && List.for_all
             (fun (lo, hi, avg) ->
               lo = hi && exact.(lo) = int_of_float avg)
             (Profile.series stats.profile)
      in
      stats.critical_path = Ddg.critical_path ddg
      && stats.placed_ops = Array.length (Ddg.nodes ddg)
      && profile_ok)

(* With no FU limits, nothing but true data, storage reuse and the
   firewalls places a node, so a critical chain that follows the edges
   that bound each node climbs by exactly each node's latency, or by one
   along a storage edge. *)
let prop_critical_chain_tight =
  let gen =
    let open QCheck.Gen in
    let* registers = bool and* stack = bool and* data = bool in
    let* syscall_stall = bool in
    let* window = oneofl [ None; Some 1; Some 2; Some 5; Some 16 ] in
    let* branch =
      oneofl
        [ Config.Perfect; Config.Predict_taken; Config.Predict_not_taken;
          Config.Two_bit 4 ]
    in
    return
      { Config.default with
        renaming = { Config.registers; stack; data };
        syscall_stall;
        window;
        branch }
  in
  QCheck.Test.make ~name:"critical chain is tight" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_trace gen) ~shrink:shrink_case
       ~print:print_case)
    (fun (events, config) ->
      let ddg = Ddg.build config (Trace.of_list events) in
      let lat (n : Ddg.node) = config.latency n.op_class in
      let step (a : Ddg.node) (b : Ddg.node) =
        List.exists
          (fun (e : Ddg.edge) ->
            e.from_node = a.id
            && b.level = a.level + if e.kind = Ddg.Storage then 1 else lat b)
          (Ddg.predecessors ddg b.id)
      in
      let rec climbs = function
        | (a : Ddg.node) :: ((b : Ddg.node) :: _ as rest) ->
            step a b && climbs rest
        | [ last ] -> last.level = Ddg.critical_path ddg - 1
        | [] -> Ddg.critical_path ddg = 0
      in
      match Ddg.critical_chain ddg with
      | root :: _ as chain -> root.level = lat root - 1 && climbs chain
      | [] -> climbs [])

let analyze config events =
  Analyzer.analyze config (Trace.of_list events)

let prop_renaming_monotone =
  QCheck.Test.make ~name:"more renaming never deepens the DDG" ~count:300
    arb_trace (fun events ->
      let cp renaming =
        (analyze Config.(with_renaming renaming default) events).critical_path
      in
      let none = cp Config.rename_none in
      let regs = cp Config.rename_registers_only in
      let regs_stack = cp Config.rename_registers_stack in
      let all = cp Config.rename_all in
      all <= regs_stack && regs_stack <= regs && regs <= none)

let prop_window_monotone =
  QCheck.Test.make ~name:"larger windows never deepen the DDG" ~count:300
    arb_trace (fun events ->
      let cp w = (analyze Config.(with_window w default) events).critical_path in
      let w1 = cp (Some 1)
      and w4 = cp (Some 4)
      and w16 = cp (Some 16)
      and winf = cp None in
      winf <= w16 && w16 <= w4 && w4 <= w1)

let prop_optimistic_no_deeper =
  QCheck.Test.make ~name:"optimistic syscalls never deepen the DDG"
    ~count:300 arb_trace (fun events ->
      let conservative = analyze Config.default events in
      let optimistic = analyze Config.dataflow events in
      optimistic.critical_path <= conservative.critical_path)

let prop_profile_mass =
  QCheck.Test.make ~name:"profile mass = placed ops" ~count:300
    arb_trace_and_config (fun (events, config) ->
      let stats = analyze config events in
      Profile.total_ops stats.profile = stats.placed_ops
      && Dist.count stats.sharing
         = Dist.count stats.lifetimes)

let prop_window_width_bound =
  QCheck.Test.make ~name:"window bounds DDG width" ~count:300 arb_trace
    (fun events ->
      let w = 4 in
      let ddg =
        Ddg.build Config.(with_window (Some w) default) (Trace.of_list events)
      in
      Array.for_all (fun k -> k <= w) (Ddg.ops_per_level ddg))

let prop_fu_bound =
  QCheck.Test.make ~name:"FU limit bounds ops per level" ~count:300 arb_trace
    (fun events ->
      let fu = { Config.unlimited_fu with total = Some 2 } in
      let ddg = Ddg.build Config.(with_fu fu default) (Trace.of_list events) in
      Array.for_all (fun k -> k <= 2) (Ddg.ops_per_level ddg))

let prop_critical_path_bounds =
  QCheck.Test.make ~name:"critical path bounded by serial execution"
    ~count:300 arb_trace_and_config (fun (events, config) ->
      let stats = analyze config events in
      let serial_bound =
        List.fold_left
          (fun acc e ->
            if Trace.creates_value e then acc + config.Config.latency e.Trace.op_class
            else acc)
          0 events
      in
      stats.critical_path <= serial_bound
      && (stats.placed_ops = 0 || stats.critical_path >= 1))

let prop_parallelism_at_most_ops =
  QCheck.Test.make ~name:"parallelism between 0 and placed ops" ~count:300
    arb_trace_and_config (fun (events, config) ->
      let stats = analyze config events in
      stats.available_parallelism >= 0.0
      && stats.available_parallelism <= float_of_int (max 1 stats.placed_ops))

(* Canonical bytes: every engine must agree with the reference
   interpreter to the last bucket. *)
let bytes = Stats_codec.to_string

let prop_feed_incremental =
  QCheck.Test.make ~name:"feed/finish equals analyze" ~count:100 arb_trace
    (fun events ->
      bytes (Analyzer.analyze Config.default (Trace.of_list events))
      = bytes (Reference.analyze Config.default events))

(* Full-stats equality, for the equivalence properties between the
   kernel's entry points. *)
let stats_equal (a : Analyzer.stats) (b : Analyzer.stats) =
  a.events = b.events
  && a.placed_ops = b.placed_ops
  && a.syscalls = b.syscalls
  && a.critical_path = b.critical_path
  && a.available_parallelism = b.available_parallelism
  && a.live_locations = b.live_locations
  && a.mispredicts = b.mispredicts
  && Profile.series a.profile = Profile.series b.profile
  && Profile.series a.storage_profile = Profile.series b.storage_profile
  && Dist.buckets a.lifetimes = Dist.buckets b.lifetimes
  && Dist.buckets a.sharing = Dist.buckets b.sharing

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"packed trace roundtrips events" ~count:300
    arb_trace (fun events -> Trace.to_list (Trace.of_list events) = events)

(* Every engine against the reference interpreter, by canonical bytes:
   the kernel over the built and the mapped trace, the streamed file
   read in windows of 1-8 rows (so windows split the trace anywhere),
   the fused kernel beside the default configuration, and the two-pass
   mode (whose [live_locations] is its final, empty well). *)
let prop_packed_equals_record =
  QCheck.Test.make ~name:"packed path equals record path (all switches)"
    ~count:300
    (QCheck.make
       QCheck.Gen.(triple gen_trace gen_config (int_range 1 8))
       ~print:(fun (es, c, rows) ->
         Printf.sprintf "%s\nread window %d\n%s" (Config.describe c) rows
           (String.concat "\n" (List.map print_event es))))
    (fun (events, config, read_window) ->
      let trace = Trace.of_list events in
      let reference = Reference.analyze config events in
      let expect = bytes reference in
      let path = Filename.temp_file "ddg_prop" ".trace" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Trace_io.write_file_flat path trace;
      let two, _ = Two_pass.analyze config trace in
      bytes (Analyzer.analyze config trace) = expect
      && bytes (Analyzer.analyze config (Trace_io.map_file path)) = expect
      && bytes (Analyzer.analyze_stream ~window:read_window config path)
         = expect
      && bytes (List.hd (Analyzer.analyze_many [ config; Config.default ] trace))
         = expect
      && bytes { two with live_locations = reference.live_locations }
         = expect)

let prop_analyze_many_equals_map =
  QCheck.Test.make ~name:"analyze_many equals map analyze" ~count:100
    (QCheck.pair arb_trace
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8) arb_config))
    (fun (events, configs) ->
      let trace = Trace.of_list events in
      let fused = Analyzer.analyze_many configs trace in
      let seq = List.map (fun c -> Analyzer.analyze c trace) configs in
      List.length fused = List.length seq
      && List.for_all2 stats_equal fused seq)

(* --- container properties ---------------------------------------------------- *)

let prop_dist_invariants =
  QCheck.Test.make ~name:"dist invariants" ~count:300
    QCheck.(list (int_bound 100000))
    (fun samples ->
      let d = Dist.create () in
      List.iter (Dist.add d) samples;
      let n = List.length samples in
      Dist.count d = n
      && Dist.total d = List.fold_left ( + ) 0 samples
      && List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Dist.buckets d) = n
      && (n = 0
         || Dist.max_value d = List.fold_left max 0 samples
            && Dist.min_value d = List.fold_left min max_int samples
            && Dist.quantile d 1.0 >= Dist.max_value d))

let prop_profile_coalescing =
  QCheck.Test.make ~name:"profile coalescing preserves mass and average"
    ~count:300
    QCheck.(list (int_bound 5000))
    (fun levels ->
      let fine = Profile.create () in
      let coarse = Profile.create ~slots:4 () in
      List.iter (Profile.add fine) levels;
      List.iter (Profile.add coarse) levels;
      Profile.total_ops fine = Profile.total_ops coarse
      && Profile.levels fine = Profile.levels coarse
      && Float.abs
           (Profile.average_parallelism fine
           -. Profile.average_parallelism coarse)
         < 1e-9)

let prop_profile_series_sums =
  QCheck.Test.make ~name:"profile series sums to total" ~count:300
    QCheck.(list (int_bound 200000))
    (fun levels ->
      let p = Profile.create ~slots:16 () in
      List.iter (Profile.add p) levels;
      let mass =
        List.fold_left
          (fun acc (lo, hi, avg) ->
            acc +. (avg *. float_of_int (hi - lo + 1)))
          0.0 (Profile.series p)
      in
      Float.abs (mass -. float_of_int (Profile.total_ops p)) < 1e-6)

let prop_profile_add_range =
  QCheck.Test.make ~name:"profile add_range mass and bounds" ~count:300
    QCheck.(list (pair (int_bound 3000) (int_bound 500)))
    (fun ranges ->
      let p = Profile.create ~slots:8 () in
      let expected =
        List.fold_left
          (fun acc (lo, len) ->
            Profile.add_range p lo (lo + len);
            acc + len + 1)
          0 ranges
      in
      Profile.total_ops p = expected
      && (ranges = [] || Profile.levels p >= 1))

let prop_storage_profile_consistent =
  QCheck.Test.make ~name:"storage profile mass = sum of lifetimes + values"
    ~count:200 arb_trace (fun events ->
      let stats = analyze Config.default events in
      (* each retired value contributes lifetime + 1 levels of liveness *)
      let expected =
        Dist.total stats.lifetimes + Dist.count stats.lifetimes
      in
      Profile.total_ops stats.storage_profile = expected)

let prop_partition_sharing_conserves =
  QCheck.Test.make ~name:"partition sharing conserves edges and nodes"
    ~count:200
    QCheck.(pair (int_range 1 8) arb_trace)
    (fun (processors, events) ->
      let ddg = Ddg.build Config.default (Trace.of_list events) in
      let data_edges =
        List.length
          (List.filter (fun e -> e.Ddg.kind = Ddg.True_data) (Ddg.edges ddg))
      in
      List.for_all
        (fun scheme ->
          let s = Ddg.partition_sharing ddg ~processors ~scheme in
          s.internal_edges + s.cross_edges = data_edges
          && Array.fold_left ( + ) 0 s.per_processor_nodes
             = Array.length (Ddg.nodes ddg)
          && (processors > 1 || s.cross_edges = 0))
        [ `Contiguous; `Round_robin ])

let prop_two_pass_equivalent =
  QCheck.Test.make ~name:"two-pass analysis equals single-pass" ~count:200
    arb_trace_and_config (fun (events, config) ->
      let trace = Trace.of_list events in
      let one = Analyzer.analyze config trace in
      let two, peak = Two_pass.analyze config trace in
      one.critical_path = two.critical_path
      && one.placed_ops = two.placed_ops
      && one.available_parallelism = two.available_parallelism
      && Profile.series one.profile = Profile.series two.profile
      && Dist.count one.lifetimes = Dist.count two.lifetimes
      && Dist.total one.lifetimes = Dist.total two.lifetimes
      && Dist.count one.sharing = Dist.count two.sharing
      && Dist.total one.sharing = Dist.total two.sharing
      && Profile.total_ops one.storage_profile
         = Profile.total_ops two.storage_profile
      (* eviction empties the live well and its peak never exceeds the
         single-pass final occupancy *)
      && two.live_locations = 0
      && peak <= one.live_locations)

let prop_intervals_match_add_range =
  QCheck.Test.make ~name:"Intervals.to_profile = repeated add_range"
    ~count:200
    QCheck.(list (pair (int_bound 2000) (int_bound 300)))
    (fun ranges ->
      let acc = Intervals.create () in
      let direct = Profile.create ~slots:64 () in
      List.iter
        (fun (lo, len) ->
          Intervals.add acc ~lo ~hi:(lo + len);
          Profile.add_range direct lo (lo + len))
        ranges;
      let resolved = Intervals.to_profile ~slots:64 acc in
      Profile.total_ops resolved = Profile.total_ops direct
      && Profile.levels resolved = Profile.levels direct
      && Profile.bucket_width resolved = Profile.bucket_width direct
      && Profile.series resolved = Profile.series direct)

let prop_trace_io_roundtrip =
  QCheck.Test.make ~name:"trace file roundtrip" ~count:100 arb_trace
    (fun events ->
      let trace = Trace.of_list events in
      let path = Filename.temp_file "ddg_prop" ".trace" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Trace_io.write_file path trace;
          let back = Trace_io.read_file path in
          Trace.to_list back = events))

let prop_window_fifo =
  QCheck.Test.make ~name:"window displaces in FIFO order" ~count:300
    QCheck.(pair (int_range 1 16) (list small_nat))
    (fun (cap, xs) ->
      let w = Window.create cap in
      let displaced = List.filter_map (Window.push w) xs in
      let expected =
        if List.length xs <= cap then []
        else
          List.filteri (fun i _ -> i < List.length xs - cap) xs
      in
      displaced = expected)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_analyzer_matches_ddg;
      prop_renaming_monotone;
      prop_window_monotone;
      prop_optimistic_no_deeper;
      prop_profile_mass;
      prop_window_width_bound;
      prop_fu_bound;
      prop_critical_path_bounds;
      prop_parallelism_at_most_ops;
      prop_feed_incremental;
      prop_trace_roundtrip;
      prop_packed_equals_record;
      prop_analyze_many_equals_map;
      prop_partition_sharing_conserves;
      prop_two_pass_equivalent;
      prop_intervals_match_add_range;
      prop_trace_io_roundtrip;
      prop_profile_add_range;
      prop_storage_profile_consistent;
      prop_dist_invariants;
      prop_profile_coalescing;
      prop_profile_series_sums;
      prop_window_fifo;
      prop_critical_chain_tight ]
