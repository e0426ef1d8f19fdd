(* Unit tests for the Paragraph core, anchored on the paper's worked
   examples:
   - Figure 1 (true data dependencies only): S := A+B+C+D has critical
     path 4 and parallelism profile 4,2,1,1.
   - Figure 2 (register storage dependencies): the same computation with
     r0/r1 reused has critical path 6 and profile 2,1,2,1,1,1.
   - Figure 4 (resource dependencies): with two generic FUs no level holds
     more than two operations.
   - Section 3.2 special cases: pre-existing values, system-call
     firewalls, the instruction window. *)

open Ddg_isa
open Ddg_paragraph
open Ddg_sim

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let trace_of ?input src =
  let program = Ddg_asm.Assembler.assemble_string src in
  let result, trace = Machine.run_to_trace ?input program in
  (match result.stop with
  | Machine.Halted -> ()
  | s -> Alcotest.failf "program did not halt: %a" Machine.pp_stop_reason s);
  trace

(* The paper's Figure 1 program: S := A + B + C + D with no register
   reuse. *)
let figure1 = {|
        .data
A:      .word 1
B:      .word 2
C:      .word 3
D:      .word 4
S:      .word 0
        .text
main:   lw  t0, A
        lw  t1, B
        add t4, t0, t1
        lw  t2, C
        lw  t3, D
        add t5, t2, t3
        add t6, t4, t5
        sw  t6, S
        halt
|}

(* Figure 2: the same computation, but C and D reuse registers t0/t1. *)
let figure2 = {|
        .data
A:      .word 1
B:      .word 2
C:      .word 3
D:      .word 4
S:      .word 0
        .text
main:   lw  t0, A
        lw  t1, B
        add t4, t0, t1
        lw  t0, C
        lw  t1, D
        add t5, t0, t1
        add t6, t4, t5
        sw  t6, S
        halt
|}

let profile_list stats n =
  (* first [n] levels of an unbucketed profile *)
  Alcotest.(check int) "width 1" 1 (Profile.bucket_width stats.Analyzer.profile);
  List.map
    (fun (_, _, avg) -> int_of_float avg)
    (List.filteri (fun i _ -> i < n) (Profile.series stats.Analyzer.profile))

let test_figure1 () =
  let stats = Analyzer.analyze Config.default (trace_of figure1) in
  check_int "critical path" 4 stats.critical_path;
  check_int "placed ops" 8 stats.placed_ops;
  Alcotest.(check (list int)) "profile" [ 4; 2; 1; 1 ] (profile_list stats 4);
  check_float "parallelism" 2.0 stats.available_parallelism

let test_figure2_renamed () =
  (* with renaming, register reuse is invisible: same DDG as figure 1 *)
  let stats = Analyzer.analyze Config.default (trace_of figure2) in
  check_int "critical path" 4 stats.critical_path;
  Alcotest.(check (list int)) "profile" [ 4; 2; 1; 1 ] (profile_list stats 4)

let test_figure2_storage_deps () =
  let config = Config.(with_renaming rename_none default) in
  let stats = Analyzer.analyze config (trace_of figure2) in
  check_int "critical path" 6 stats.critical_path;
  check_int "placed ops" 8 stats.placed_ops;
  Alcotest.(check (list int)) "profile" [ 2; 1; 2; 1; 1; 1 ]
    (profile_list stats 6)

let test_figure1_no_renaming_unchanged () =
  (* figure 1 reuses no location, so disabling renaming changes nothing *)
  let config = Config.(with_renaming rename_none default) in
  let stats = Analyzer.analyze config (trace_of figure1) in
  check_int "critical path" 4 stats.critical_path

let test_figure4_resources () =
  let fu = { Config.unlimited_fu with total = Some 2 } in
  let config = Config.(with_fu fu default) in
  let ddg = Ddg.build config (trace_of figure1) in
  check_int "all ops placed" 8 (Array.length (Ddg.nodes ddg));
  Array.iter
    (fun per_level ->
      Alcotest.(check bool) "at most 2 ops per level" true (per_level <= 2))
    (Ddg.ops_per_level ddg);
  Alcotest.(check bool) "critical path at least ceil(8/2)" true
    (Ddg.critical_path ddg >= 4);
  Alcotest.(check bool) "resources can only deepen" true
    (Ddg.critical_path ddg >= 4)

(* --- explicit DDG ------------------------------------------------------- *)

let test_ddg_matches_analyzer_fig1 () =
  let trace = trace_of figure1 in
  let stats = Analyzer.analyze Config.default trace in
  let ddg = Ddg.build Config.default trace in
  check_int "critical path" stats.critical_path (Ddg.critical_path ddg);
  Alcotest.(check (array int)) "profile" [| 4; 2; 1; 1 |] (Ddg.ops_per_level ddg)

let test_ddg_edges_fig1 () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  (* 7 true-data edges: t0->t4, t1->t4, t2->t5, t3->t5, t4->t6, t5->t6,
     t6->store *)
  let data_edges =
    List.filter (fun e -> e.Ddg.kind = Ddg.True_data) (Ddg.edges ddg)
  in
  check_int "true data edges" 7 (List.length data_edges);
  check_int "no storage edges" 0
    (List.length (List.filter (fun e -> e.Ddg.kind = Ddg.Storage) (Ddg.edges ddg)))

let test_ddg_storage_edges_fig2 () =
  let config = Config.(with_renaming rename_none default) in
  let ddg = Ddg.build config (trace_of figure2) in
  let storage =
    List.filter (fun e -> e.Ddg.kind = Ddg.Storage) (Ddg.edges ddg)
  in
  (* t0 and t1 are each overwritten once with the old value in use *)
  Alcotest.(check bool) "storage edges present" true (List.length storage >= 2)

(* Figures 1 and 2 as DOT, recorded from the explicit builder that kept
   its own hashed live well before it became a client of the kernel *)
let figure1_dot = {|digraph ddg {
  rankdir=TB;
  node [shape=box, fontsize=10];
  n0 [label="@0 r8\nLoad/Store"];
  n1 [label="@1 r9\nLoad/Store"];
  n2 [label="@2 r12\nInteger ALU"];
  n3 [label="@3 r10\nLoad/Store"];
  n4 [label="@4 r11\nLoad/Store"];
  n5 [label="@5 r13\nInteger ALU"];
  n6 [label="@6 r14\nInteger ALU"];
  n7 [label="@7 [0x10000010]\nLoad/Store"];
  { rank=same; n6; }
  { rank=same; n4; n3; n1; n0; }
  { rank=same; n7; }
  { rank=same; n5; n2; }
  n0 -> n2;
  n1 -> n2;
  n3 -> n5;
  n4 -> n5;
  n2 -> n6;
  n5 -> n6;
  n6 -> n7;
}
|}

let figure2_dot = {|digraph ddg {
  rankdir=TB;
  node [shape=box, fontsize=10];
  n0 [label="@0 r8\nLoad/Store"];
  n1 [label="@1 r9\nLoad/Store"];
  n2 [label="@2 r12\nInteger ALU"];
  n3 [label="@3 r8\nLoad/Store"];
  n4 [label="@4 r9\nLoad/Store"];
  n5 [label="@5 r13\nInteger ALU"];
  n6 [label="@6 r14\nInteger ALU"];
  n7 [label="@7 [0x10000010]\nLoad/Store"];
  { rank=same; n4; n3; }
  { rank=same; n1; n0; }
  { rank=same; n5; }
  { rank=same; n7; }
  { rank=same; n2; }
  { rank=same; n6; }
  n0 -> n2;
  n1 -> n2;
  n2 -> n3 [color=gray, arrowhead=dot];
  n2 -> n4 [color=gray, arrowhead=dot];
  n3 -> n5;
  n4 -> n5;
  n2 -> n6;
  n5 -> n6;
  n6 -> n7;
}
|}

let test_ddg_dot () =
  Alcotest.(check string) "figure 1" figure1_dot
    (Ddg.to_dot (Ddg.build Config.default (trace_of figure1)));
  Alcotest.(check string) "figure 2" figure2_dot
    (Ddg.to_dot
       (Ddg.build Config.(with_renaming rename_none default) (trace_of figure2)))

(* --- system calls -------------------------------------------------------- *)

let syscall_program = {|
main:   li t0, 1
        li t1, 2
        add t2, t0, t1     # level 1
        li v0, 1
        move a0, t2
        syscall            # firewall
        li t3, 5           # independent, but held below the firewall
        halt
|}

let test_syscall_conservative () =
  let stats = Analyzer.analyze Config.default (trace_of syscall_program) in
  check_int "one syscall" 1 stats.syscalls;
  (* conservative: li t3 placed after the firewall, deepening the DDG *)
  let optimistic =
    Analyzer.analyze Config.dataflow (trace_of syscall_program)
  in
  Alcotest.(check bool) "conservative path at least as long" true
    (stats.critical_path >= optimistic.critical_path);
  (* optimistic ignores the syscall: one fewer placed op *)
  check_int "optimistic places one fewer op" (stats.placed_ops - 1)
    optimistic.placed_ops

let test_syscall_firewall_blocks () =
  (* an independent li after a syscall may not be placed at level 0 *)
  let trace = trace_of syscall_program in
  let ddg = Ddg.build Config.default trace in
  let nodes = Ddg.nodes ddg in
  let last_li =
    (* the final value-creating node (li t3) *)
    nodes.(Array.length nodes - 1)
  in
  Alcotest.(check bool) "li t3 below firewall" true (last_li.Ddg.level > 0);
  (* under optimistic syscalls it sits at level 0 *)
  let ddg_opt = Ddg.build Config.dataflow trace in
  let nodes_opt = Ddg.nodes ddg_opt in
  let last_opt = nodes_opt.(Array.length nodes_opt - 1) in
  check_int "li t3 at top without firewall" 0 last_opt.Ddg.level

(* --- pre-existing values ------------------------------------------------- *)

let test_preexisting_values () =
  (* a load from the DATA segment must land in the topologically highest
     level: pre-existing values never delay computation *)
  let stats = Analyzer.analyze Config.default (trace_of {|
        .data
X:      .word 42
        .text
main:   lw t0, X
        halt
|}) in
  check_int "one op" 1 stats.placed_ops;
  check_int "critical path" 1 stats.critical_path

let test_preexisting_sp () =
  (* sp is pre-initialised: using it does not delay the first level *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   addi sp, sp, -8
        halt
|}) in
  check_int "critical path" 1 stats.critical_path

(* --- instruction window --------------------------------------------------- *)

let independent_lis n =
  (* n independent load-immediates + halt *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "main:\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  li t%d, %d\n" (i mod 4) i)
  done;
  Buffer.add_string buf "  halt\n";
  Buffer.contents buf

let test_window_limits_width () =
  let trace = trace_of (independent_lis 32) in
  let unbounded = Analyzer.analyze Config.default trace in
  (* all renaming on: 32 independent ops in one level *)
  check_int "unbounded critical path" 1 unbounded.critical_path;
  check_float "unbounded parallelism" 32.0 unbounded.available_parallelism;
  let w4 = Analyzer.analyze Config.(with_window (Some 4) default) trace in
  check_int "window 4 critical path" 8 w4.critical_path;
  check_float "window 4 parallelism" 4.0 w4.available_parallelism;
  let ddg = Ddg.build Config.(with_window (Some 4) default) trace in
  Array.iter
    (fun k -> Alcotest.(check bool) "level width <= 4" true (k <= 4))
    (Ddg.ops_per_level ddg)

let test_window_one_serialises () =
  let trace = trace_of (independent_lis 8) in
  let w1 = Analyzer.analyze Config.(with_window (Some 1) default) trace in
  check_int "window 1: fully serial" 8 w1.critical_path

let test_window_preserves_dataflow_order () =
  (* a dependent chain is unaffected by any window size *)
  let chain = {|
main:   li t0, 1
        add t0, t0, t0
        add t0, t0, t0
        add t0, t0, t0
        halt
|} in
  let trace = trace_of chain in
  let unbounded = Analyzer.analyze Config.default trace in
  let w2 = Analyzer.analyze Config.(with_window (Some 2) default) trace in
  check_int "chain unaffected" unbounded.critical_path w2.critical_path

(* --- latencies ------------------------------------------------------------ *)

let test_latencies_deepen () =
  (* a dependent chain of FP adds spans 6 levels per op (Table 1) *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   fli f1, 1.0
        fadd f2, f1, f1
        fadd f3, f2, f2
        halt
|}) in
  (* fli is transport (1 level, completes at 0); each dependent fadd adds
     6 levels: 6, then 12 *)
  check_int "fp chain depth" 13 stats.critical_path

let test_custom_latency () =
  let config =
    { Config.default with latency = (fun _ -> 1) }
  in
  let stats = Analyzer.analyze config (trace_of {|
main:   fli f1, 1.0
        fadd f2, f1, f1
        fadd f3, f2, f2
        halt
|}) in
  check_int "unit latency chain" 3 stats.critical_path

(* --- value lifetimes and sharing ------------------------------------------- *)

let test_sharing_distribution () =
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 7          # used 3 times
        add t1, t0, t0
        add t2, t0, t1
        halt
|}) in
  (* t0 used 3x (twice by first add, once by second), t1 once, t2 never *)
  check_int "three computed values" 3 (Dist.count stats.sharing);
  check_int "total uses" 4 (Dist.total stats.sharing);
  check_int "max sharing" 3 (Dist.max_value stats.sharing)

let test_lifetime_distribution () =
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 7          # created at 0
        fli f1, 1.0
        fadd f2, f1, f1   # completes at 11
        add t1, t0, t0    # t0's last use, level 1
        add t2, t1, t1
        halt
|}) in
  Alcotest.(check bool) "t0 lifetime 1 recorded" true
    (Dist.count stats.lifetimes = 5);
  check_int "longest lifetime" 6 (Dist.max_value stats.lifetimes)

(* --- storage profile (section 2.3) ------------------------------------------ *)

let test_storage_profile () =
  (* li t0 (created 0, last use 1); add t1 (created 1, never used).
     Levels: 0 -> 1 live (t0), 1 -> 2 live (t0 until its use at 1, t1). *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 7
        add t1, t0, t0
        halt
|}) in
  let p = stats.storage_profile in
  check_int "two values" 2 (Dist.count stats.sharing);
  check_int "liveness mass" 3 (Profile.total_ops p);
  Alcotest.(check (list int)) "live per level" [ 1; 2 ]
    (List.map (fun (_, _, avg) -> int_of_float avg) (Profile.series p))

let test_storage_profile_long_lived () =
  (* a value used far below its creation keeps a location busy throughout *)
  let stats = Analyzer.analyze Config.default (trace_of {|
main:   li t0, 1
        fli f1, 2.0
        fadd f2, f1, f1
        fadd f3, f2, f2
        add t1, t0, t0     # t0 still live at level 1
        halt
|}) in
  Alcotest.(check bool) "storage spans deep levels" true
    (Profile.levels stats.storage_profile >= 12)

(* --- multiprocessor data sharing (section 2.3) ------------------------------- *)

let test_partition_sharing () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  (* one processor: everything internal *)
  let one = Ddg.partition_sharing ddg ~processors:1 ~scheme:`Contiguous in
  check_int "all internal" 7 one.internal_edges;
  check_int "no cross" 0 one.cross_edges;
  (* contiguous halves of the trace: loads+adds flow into the tail *)
  let two = Ddg.partition_sharing ddg ~processors:2 ~scheme:`Contiguous in
  check_int "edges conserved" 7 (two.internal_edges + two.cross_edges);
  Alcotest.(check bool) "some sharing across the halves" true
    (two.cross_edges > 0);
  check_int "node conservation" 8
    (Array.fold_left ( + ) 0 two.per_processor_nodes);
  (* round-robin scatters producers and consumers: at least as much
     sharing as contiguous for this chain-shaped graph *)
  let rr = Ddg.partition_sharing ddg ~processors:2 ~scheme:`Round_robin in
  Alcotest.(check bool) "round robin shares more" true
    (rr.cross_edges >= two.cross_edges)

let test_partition_sharing_rejects_zero () =
  let ddg = Ddg.build Config.default (trace_of figure1) in
  match Ddg.partition_sharing ddg ~processors:0 ~scheme:`Contiguous with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- two-pass mode (section 3.2, dead-value method 1) ------------------------ *)

let test_two_pass_matches_figure1 () =
  let trace = trace_of figure1 in
  let stats, peak = Two_pass.analyze Config.default trace in
  check_int "critical path" 4 stats.critical_path;
  check_int "placed" 8 stats.placed_ops;
  check_int "empty live well at end" 0 stats.live_locations;
  Alcotest.(check bool) "peak below total locations" true (peak <= 10)

(* The peak live-well occupancy of the two-pass mode under the default
   configuration, recorded from the hashed engine the kernel replaced:
   evicting after each row's final references must keep exactly the
   locations the old well kept. *)
let recorded_two_pass_peaks =
  [ ("cc1x", 218); ("doducx", 173); ("eqnx", 403); ("espx", 90); ("fpx", 95);
    ("mtxx", 156); ("naskx", 206); ("spicex", 493); ("tomcx", 351);
    ("xlispx", 72) ]

let test_two_pass_peaks () =
  List.iter
    (fun (w : Ddg_workloads.Workload.t) ->
      let _, trace = Ddg_workloads.Workload.trace w Ddg_workloads.Workload.Tiny in
      let _, peak = Two_pass.analyze Config.default trace in
      check_int (w.name ^ " peak") (List.assoc w.name recorded_two_pass_peaks)
        peak)
    Ddg_workloads.Registry.all

let test_two_pass_annotations () =
  (* in "li t0; add t1, t0, t0; halt": the add's sources are t0's final
     references, and both destinations are final *)
  let trace = trace_of {|
main:   li t0, 7
        add t1, t0, t0
        halt
|} in
  let a = Two_pass.annotate trace in
  Alcotest.(check bool) "li dest not final (t0 read later)" false
    (Two_pass.final_dest a 0);
  Alcotest.(check bool) "add dest final" true (Two_pass.final_dest a 1);
  (* the same location twice: exactly one operand carries the flag *)
  let finals =
    List.length
      (List.filter Fun.id
         [ Two_pass.final_src a 1 0; Two_pass.final_src a 1 1 ])
  in
  check_int "one final flag for t0" 1 finals

(* --- branch-misprediction extension ----------------------------------------- *)

let branchy = {|
main:   li t0, 8
        li t1, 0
loop:   addi t1, t1, 1
        addi t0, t0, -1
        bnez t0, loop
        halt
|}

let test_branch_perfect_default () =
  let stats = Analyzer.analyze Config.default (trace_of branchy) in
  check_int "no mispredicts under perfect" 0 stats.mispredicts

let test_branch_mispredicts_deepen () =
  let trace = trace_of branchy in
  let perfect = Analyzer.analyze Config.default trace in
  let not_taken =
    Analyzer.analyze Config.(with_branch Predict_not_taken default) trace
  in
  Alcotest.(check bool) "mispredicts counted" true (not_taken.mispredicts >= 7);
  Alcotest.(check bool) "mispredicts deepen the DDG" true
    (not_taken.critical_path >= perfect.critical_path);
  let taken =
    Analyzer.analyze Config.(with_branch Predict_taken default) trace
  in
  Alcotest.(check bool) "predict-taken better here" true
    (taken.mispredicts < not_taken.mispredicts)

let test_two_bit_learns () =
  let trace = trace_of branchy in
  let two_bit =
    Analyzer.analyze Config.(with_branch (Two_bit 10) default) trace
  in
  (* loop branch taken 7 times then falls through: 2-bit counters
     mispredict at most the exit *)
  Alcotest.(check bool) "2-bit learns the loop" true (two_bit.mispredicts <= 2)

(* --- config describe -------------------------------------------------------- *)

let test_describe () =
  let s = Config.describe Config.default in
  Alcotest.(check bool) "mentions conservative" true
    (String.length s > 0 &&
     String.sub s 0 12 = "conservative")

(* --- recorded stats digests ---------------------------------------------------

   The MD5 of the canonical Stats_codec bytes of every (workload, config)
   cell, recorded from the hashed single-config engine the kernel
   replaced. Every analysis path must reproduce them byte for byte: the
   kernel at width 1 ([analyze], over both the built and the mapped
   trace), the fused kernel over the whole config list, the streamed
   flat file, and at tiny size the reference interpreter
   ([Reference]). cc1x at default size spans ~65k levels, so profile
   bucket coalescing is pinned too. *)

let digest_configs =
  let fu l = Config.with_fu l Config.default in
  [ ("base", Config.default);
    ("optimistic", Config.dataflow);
    ("no renaming", Config.(with_renaming rename_none default));
    ("regs+stack", Config.(with_renaming rename_registers_stack default));
    ("window 64", Config.(with_window (Some 64) default));
    ("fu total 4", fu { Config.unlimited_fu with total = Some 4 });
    ( "fu 6/int 3/mem 2",
      fu
        { Config.unlimited_fu with
          total = Some 6; int_units = Some 3; mem_units = Some 2 } );
    ("2-bit(10)", Config.(with_branch (Two_bit 10) default));
    ("predict-taken", Config.(with_branch Predict_taken default));
    ( "no renaming, window 64",
      Config.(with_window (Some 64) (with_renaming rename_none default)) );
    ( "no renaming, fu total 4",
      Config.(
        with_renaming rename_none
          (with_fu { unlimited_fu with total = Some 4 } default)) ) ]

let recorded_digests =
  [ ("cc1x/tiny/base", "43f13e6df014a247cce23680669ee9b3");
    ("cc1x/tiny/optimistic", "1702d50679c91e7a2e1f4b40619c2917");
    ("cc1x/tiny/no renaming", "3d08322e2674e68aaf1574929571c17e");
    ("cc1x/tiny/regs+stack", "1ed596391f7d57a74db84ac3a53c8090");
    ("cc1x/tiny/window 64", "a2a58371069915d126a050f8ddf32009");
    ("cc1x/tiny/fu total 4", "1d17fad81d7c5f601bb3cb99d13965aa");
    ("cc1x/tiny/fu 6/int 3/mem 2", "58cccfa62428bba7f3a014b6c918fda0");
    ("cc1x/tiny/2-bit(10)", "456049dea726cd16175f646ab5f28b4e");
    ("cc1x/tiny/predict-taken", "3ffcedaa4e20960137694c58d8134257");
    ("doducx/tiny/base", "e6f23a4599c9c668aff5e9c998b5371d");
    ("doducx/tiny/optimistic", "d05e1580dd6fed86e2c4b1d9315b1989");
    ("doducx/tiny/no renaming", "5d94236492bac04a0297f256522d41b0");
    ("doducx/tiny/regs+stack", "e6f23a4599c9c668aff5e9c998b5371d");
    ("doducx/tiny/window 64", "63e7570887718230207bbb182c8ecded");
    ("doducx/tiny/fu total 4", "2033367fb4067dbfb26293259a5fb99b");
    ("doducx/tiny/fu 6/int 3/mem 2", "031fd03063890535721ba8d90fbae28f");
    ("doducx/tiny/2-bit(10)", "6a7b4b50f775e50313429e41a831e9e6");
    ("doducx/tiny/predict-taken", "9fd9c7b7689d96c15a1a9aa0b8f00adc");
    ("eqnx/tiny/base", "72abc2abf75eaf7c4282de93989e09ae");
    ("eqnx/tiny/optimistic", "932572b9144a841acf60eac71902619c");
    ("eqnx/tiny/no renaming", "4c77f78ede40f07b6cbcb29d01eb165d");
    ("eqnx/tiny/regs+stack", "72abc2abf75eaf7c4282de93989e09ae");
    ("eqnx/tiny/window 64", "5bf59a675f380bc438a145a0cbcbe8d3");
    ("eqnx/tiny/fu total 4", "5e620c5b13c077f7990d7755629f53ea");
    ("eqnx/tiny/fu 6/int 3/mem 2", "35d1092c337ee51f515364be913aa4c5");
    ("eqnx/tiny/2-bit(10)", "7fbbb5f49dd8f0b78f1645bbb334ac83");
    ("eqnx/tiny/predict-taken", "3674c235269421c5d27a5d7f410da87a");
    ("espx/tiny/base", "ef582adeb3a8361ba1743be8d48c2d02");
    ("espx/tiny/optimistic", "d11c7e0ba57721e1fd5c24ea15c26556");
    ("espx/tiny/no renaming", "2ec4fd83f2ec472d66058501e3616c9d");
    ("espx/tiny/regs+stack", "ef582adeb3a8361ba1743be8d48c2d02");
    ("espx/tiny/window 64", "00e682ac4470615fbf413d1a2a567981");
    ("espx/tiny/fu total 4", "2e8b1bef85b6bc0b89323d1802ea482a");
    ("espx/tiny/fu 6/int 3/mem 2", "8b8b6f91408c14933b61d2d29157dfa6");
    ("espx/tiny/2-bit(10)", "bf1693172a099434c30af00e3af81d08");
    ("espx/tiny/predict-taken", "c6279395a1cb3794a2e6831ce223a4dc");
    ("fpx/tiny/base", "7c405b06d0d1e84f252b9ca0fdef8931");
    ("fpx/tiny/optimistic", "46fc73e6fa6ff25b76eef505c2e1060a");
    ("fpx/tiny/no renaming", "006ab8ec3552212f9cfdb50def21cc8d");
    ("fpx/tiny/regs+stack", "fd0569a4ac32ac67c9bab92dc706307e");
    ("fpx/tiny/window 64", "4e383ebf940dee6561670203434b4b9b");
    ("fpx/tiny/fu total 4", "7c0ce997a4794dc3507caa5c751f0865");
    ("fpx/tiny/fu 6/int 3/mem 2", "b86b563fbbbcc903b6d71ea12e9a3266");
    ("fpx/tiny/2-bit(10)", "f117cca74b4023a0145d779a67219c02");
    ("fpx/tiny/predict-taken", "7bb9ba17e29006cba42142fe21f9c507");
    ("mtxx/tiny/base", "e81296729a23b855834be897592dff09");
    ("mtxx/tiny/optimistic", "c83149b2437c9c9e97887dfba9cafc56");
    ("mtxx/tiny/no renaming", "ae75765ca88c8651ab666deaf217c9c6");
    ("mtxx/tiny/regs+stack", "e81296729a23b855834be897592dff09");
    ("mtxx/tiny/window 64", "9e8708fe8b95d45c1a6107f28dffd69b");
    ("mtxx/tiny/fu total 4", "4eeeeab48476208b630ce79909f14a15");
    ("mtxx/tiny/fu 6/int 3/mem 2", "3724f20c16b99bccd01ab0f5fc963deb");
    ("mtxx/tiny/2-bit(10)", "a59c9733274225ccb8aee86dd6f063a8");
    ("mtxx/tiny/predict-taken", "a59c9733274225ccb8aee86dd6f063a8");
    ("naskx/tiny/base", "bcdae79f9bb233e5f39af924a02e8dc9");
    ("naskx/tiny/optimistic", "009e2191f9c67cc9251afe3c8ada66cf");
    ("naskx/tiny/no renaming", "889829193a199e7c3f620bab26833bf1");
    ("naskx/tiny/regs+stack", "06949b74fce8328b4b7fa1502b6cb47c");
    ("naskx/tiny/window 64", "52929565490e0896b2b91ef30b4da102");
    ("naskx/tiny/fu total 4", "d5501c011e44ed3bdd0c099d24a631cc");
    ("naskx/tiny/fu 6/int 3/mem 2", "7e9a863994e99e3658d4b5977e4ed737");
    ("naskx/tiny/2-bit(10)", "5f669520f2f691aa7c629ad1a696f88c");
    ("naskx/tiny/predict-taken", "5f669520f2f691aa7c629ad1a696f88c");
    ("spicex/tiny/base", "34ba65315ab73d262a4335fe2f4f9a2c");
    ("spicex/tiny/optimistic", "f97e3d16095ba000bf36fe9ad73a996b");
    ("spicex/tiny/no renaming", "f9bde96a83fdfc52c92aa0cb8bf9ae95");
    ("spicex/tiny/regs+stack", "34ba65315ab73d262a4335fe2f4f9a2c");
    ("spicex/tiny/window 64", "11bbad783b5518756d10b87d16a70014");
    ("spicex/tiny/fu total 4", "6c97004a41e6211f40187a5c19970482");
    ("spicex/tiny/fu 6/int 3/mem 2", "cf0869440cae49a3a348dc8a4c6e3e62");
    ("spicex/tiny/2-bit(10)", "fd20b5129eda0bf2b44e84600b600025");
    ("spicex/tiny/predict-taken", "fd20b5129eda0bf2b44e84600b600025");
    ("tomcx/tiny/base", "6d84d43f9c0ae3ba6eecdd8e3293cd7f");
    ("tomcx/tiny/optimistic", "96036913d009c2ad3623570495daaa3b");
    ("tomcx/tiny/no renaming", "e3ad16b449d66468c4ec8786dc55c6eb");
    ("tomcx/tiny/regs+stack", "6d84d43f9c0ae3ba6eecdd8e3293cd7f");
    ("tomcx/tiny/window 64", "72f4bce322e5eb6b769f050552c2ad19");
    ("tomcx/tiny/fu total 4", "fc0824252f515be57b605d064760d804");
    ("tomcx/tiny/fu 6/int 3/mem 2", "068b28b0056a36947771063f49c2e20e");
    ("tomcx/tiny/2-bit(10)", "5b21077fa4dfbe876cf89eec9543a5c4");
    ("tomcx/tiny/predict-taken", "5b21077fa4dfbe876cf89eec9543a5c4");
    ("xlispx/tiny/base", "55c664c17aeedc35361e59c3b39e5c4b");
    ("xlispx/tiny/optimistic", "42a20f2efc1441d51425fd8b67178beb");
    ("xlispx/tiny/no renaming", "9425067fad67fe38610db828163335a7");
    ("xlispx/tiny/regs+stack", "01075dc32cb8956bce7b389cdadd4bf4");
    ("xlispx/tiny/window 64", "a27d345f018e3f719ca6c4894710bb07");
    ("xlispx/tiny/fu total 4", "f877e972665e6567c85925e91600d62b");
    ("xlispx/tiny/fu 6/int 3/mem 2", "a14b58b2ddb4b7a474166a4ef546c6cf");
    ("xlispx/tiny/2-bit(10)", "f01a0edb96e7291ee598fcefd3ce3d37");
    ("xlispx/tiny/predict-taken", "5ef52f6a01ef8f594608d1bb553948b4");
    ("cc1x/default/base", "5a5dd8eaca4d4129deddcd4b5d58a1ea");
    ("cc1x/default/window 64", "61e63ec2fe920b8b1f7f76ceeedb0696") ]
  (* storage dependences under a window and under an FU limit, recorded
     from the kernel while it still kept a separate value-row body for
     plain configurations *)
  @ [ ("cc1x/tiny/no renaming, window 64", "deaa1e9969f5faed92c1b216765a02aa");
      ("cc1x/tiny/no renaming, fu total 4", "2046d95bf855f3aec821f3165b91f7c8");
      ("doducx/tiny/no renaming, window 64", "c62ed6e31f304d595ac7fbda170374cf");
      ("doducx/tiny/no renaming, fu total 4", "28dc55d82c61522c90967af78d083682");
      ("eqnx/tiny/no renaming, window 64", "0ae127eb8beaa60f484260a2f17f3f8a");
      ("eqnx/tiny/no renaming, fu total 4", "2ac33a03cae657895f46f0ad1f8bd6dd");
      ("espx/tiny/no renaming, window 64", "d5f652706190335abd4720f836adbd1c");
      ("espx/tiny/no renaming, fu total 4", "4b61eb294fc025710e23bcb4dffde3e2");
      ("fpx/tiny/no renaming, window 64", "6557be07469c7570b841d3644173266c");
      ("fpx/tiny/no renaming, fu total 4", "2d4fe5e157bdea6b96bce6a71c7706b6");
      ("mtxx/tiny/no renaming, window 64", "a5373b9fb291fa6b3e66cb24e2d473c2");
      ("mtxx/tiny/no renaming, fu total 4", "087d9107b53c1906a894a9cc5a30c9e0");
      ("naskx/tiny/no renaming, window 64", "29c55b653a99d82ba804c2905c3074f2");
      ("naskx/tiny/no renaming, fu total 4", "c8783194e0125b4751f7c80057db4944");
      ("spicex/tiny/no renaming, window 64", "c4d121447c61caa96525dd5eb9b08455");
      ("spicex/tiny/no renaming, fu total 4", "eeb8c7fcb11a48e4e783dc51be900aad");
      ("tomcx/tiny/no renaming, window 64", "f8db15e118ce9e40660a79e01c56879f");
      ("tomcx/tiny/no renaming, fu total 4", "9a94b493793d8d4cdf27d438d6bbcf8f");
      ("xlispx/tiny/no renaming, window 64", "122abdf12aeb68f7b7ba0b6c38f20295");
      ("xlispx/tiny/no renaming, fu total 4", "8cf5de87af6a54877163b9e6c4ddeb0f") ]

let test_recorded_digests () =
  let digest s = Digest.to_hex (Digest.string (Stats_codec.to_string s)) in
  let check_cells ~record (w : Ddg_workloads.Workload.t) size names =
    let _, trace = Ddg_workloads.Workload.trace w size in
    let cells = List.map (fun n -> (n, List.assoc n digest_configs)) names in
    let path = Filename.temp_file "ddg_digests" ".trace" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Trace_io.write_file_flat path trace;
    let mapped = Trace_io.map_file path in
    let fused = Analyzer.analyze_many (List.map snd cells) trace in
    List.iter2
      (fun (name, config) fused ->
        let cell =
          Printf.sprintf "%s/%s/%s" w.name
            (Ddg_workloads.Workload.size_to_string size)
            name
        in
        let expect =
          match List.assoc_opt cell recorded_digests with
          | Some d -> d
          | None -> Alcotest.failf "%s: no recorded digest" cell
        in
        let check what s =
          Alcotest.(check string) (cell ^ " " ^ what) expect (digest s)
        in
        check "analyze" (Analyzer.analyze config trace);
        check "analyze (mapped)" (Analyzer.analyze config mapped);
        check "analyze_many" fused;
        check "analyze_stream" (Analyzer.analyze_stream config path);
        if record then
          check "reference" (Reference.analyze config (Trace.to_list trace)))
      cells fused
  in
  List.iter
    (fun w ->
      check_cells ~record:true w Ddg_workloads.Workload.Tiny
        (List.map fst digest_configs))
    Ddg_workloads.Registry.all;
  check_cells ~record:false
    (Option.get (Ddg_workloads.Registry.find "cc1x"))
    Ddg_workloads.Workload.Default [ "base"; "window 64" ]

(* --- recorded explicit graphs -------------------------------------------------

   The MD5 of each explicit DDG's nodes (trace index, pc, class tag,
   destination, level), its true-data and storage edges in order and its
   critical path, recorded from the explicit builder that kept its own
   hashed live well before it became a client of the kernel. Control
   edges are left out: which node a control edge starts from was
   corrected since (the tests below). *)

let graph_configs =
  [ "base"; "optimistic"; "no renaming"; "window 64"; "no renaming, window 64";
    "fu 6/int 3/mem 2"; "2-bit(10)" ]

let recorded_graphs =
  [ ("cc1x/base", "0a81597b3fb6586651f2cb9b59cb22e6");
    ("cc1x/optimistic", "6f89b710a387a67ed341230021c2df3a");
    ("cc1x/no renaming", "3718a4a63f1cfb6050efa62238cdd6a9");
    ("cc1x/window 64", "d03f1a5c1999e59ee146f36e63b85a9f");
    ("cc1x/no renaming, window 64", "caa5dd0fe8acfea39e1e1f676259b6a7");
    ("cc1x/fu 6/int 3/mem 2", "4fe6d7e377d97cfc4fdf9b8b97c278f0");
    ("cc1x/2-bit(10)", "865f0e17f104e9007b1aa4dffa8d2d9c");
    ("doducx/base", "126fc33d0aeb18048b1c95f6aa270fe9");
    ("doducx/optimistic", "63ad9f89d46e87f950f5ab3ace13d26a");
    ("doducx/no renaming", "1a81bd5ac7695dfce8bd61aead493c57");
    ("doducx/window 64", "d88c35feeb2cf4fe522d7db5da8d76dc");
    ("doducx/no renaming, window 64", "4033b002e0bebd57b597a65f5ab8c1df");
    ("doducx/fu 6/int 3/mem 2", "96654de674eb570db7e57c35a4525888");
    ("doducx/2-bit(10)", "42942058ca4592f6c6d65e4bb866601e");
    ("eqnx/base", "a3d646a069c8b4cab89e84305911459d");
    ("eqnx/optimistic", "36cf8e675a01e052ace45ef7644dbb24");
    ("eqnx/no renaming", "1611e6162f79c1628372e8de61add907");
    ("eqnx/window 64", "a7bd87def0cae3d88f71058ddb04188a");
    ("eqnx/no renaming, window 64", "699096eed20b2b60cc97a28f1922c10e");
    ("eqnx/fu 6/int 3/mem 2", "6020545b8873c059ea034cf83d1f924d");
    ("eqnx/2-bit(10)", "e0e6e2c9c5af94908af59429bf25c74a");
    ("espx/base", "1d1c371edb6bd64732d7d95a4a679eb4");
    ("espx/optimistic", "0958765ed74fb70b4e7b35a9b5fe90e7");
    ("espx/no renaming", "840f2584949ba05c8ac3eecca7394bdd");
    ("espx/window 64", "5e27b5fdf132d2044c17af7484afa899");
    ("espx/no renaming, window 64", "663f89d7702bc3a378d28780d27270e7");
    ("espx/fu 6/int 3/mem 2", "0f26606a8885956f1cb7b5b57527aa0b");
    ("espx/2-bit(10)", "859352e3f00242ef2c5fd108c1b845a2");
    ("fpx/base", "430719fe564fd39535b6bb7814a0cda4");
    ("fpx/optimistic", "07ba261576a72555d43863a74f6a7d20");
    ("fpx/no renaming", "e6a608a6a60fb97dd513c5d4b1323c9d");
    ("fpx/window 64", "d853d86f832be462f01a9e58c13be7c8");
    ("fpx/no renaming, window 64", "8fb59b40e1121d81c9244f48eebb3979");
    ("fpx/fu 6/int 3/mem 2", "9bba1c1704f9fe592af7db09f9ad64cc");
    ("fpx/2-bit(10)", "5d610d05dae22f06d59c6dd1531c36d9");
    ("mtxx/base", "aea838df4d8c09504d035eb3f0ead5e6");
    ("mtxx/optimistic", "dfee0f534a77beabc2365afe44e2425e");
    ("mtxx/no renaming", "c32bda13c6482d624a1d88a888ff4707");
    ("mtxx/window 64", "c70f4a668b51ce7a0084bc691fba57e0");
    ("mtxx/no renaming, window 64", "0c9ca914a6e60dd804504115e8a201e1");
    ("mtxx/fu 6/int 3/mem 2", "6d8c0eba2f7044f164690457aeac7328");
    ("mtxx/2-bit(10)", "d21bcd8354e12a2ca3c1ca3202319bf8");
    ("naskx/base", "5800a56806dfb06f1a357e9ea4d5f35d");
    ("naskx/optimistic", "9292dd4e944cbd029faec066198f37b0");
    ("naskx/no renaming", "305a86fb886009dfabe3b0abbc272016");
    ("naskx/window 64", "304c3502ade8e14d0fd9521d09a6a5eb");
    ("naskx/no renaming, window 64", "a816e0409af971551465ece99339236d");
    ("naskx/fu 6/int 3/mem 2", "78a78a71605c7f52712fadfabcd33beb");
    ("naskx/2-bit(10)", "998e8d7232e9a74ebe6c48809ca8055e");
    ("spicex/base", "76dcd267c4f316e6b6effa3f69624134");
    ("spicex/optimistic", "1f2deb24f33f46538ffa70587b812b5b");
    ("spicex/no renaming", "0f3dfd6c8883d69fbf65e4540a40590a");
    ("spicex/window 64", "7f5d7925b80f26ecb8ec0197cdedaf8f");
    ("spicex/no renaming, window 64", "f77d894433bcfbc28893014e779672b3");
    ("spicex/fu 6/int 3/mem 2", "46e07ece88ed359689ea62c9c8dccb52");
    ("spicex/2-bit(10)", "257b0a840630c1057473e03357ebf892");
    ("tomcx/base", "3f3350d186c7cd1547eb516361598b5e");
    ("tomcx/optimistic", "ed8ffbc480137ffa8a0b6c79a716720e");
    ("tomcx/no renaming", "70bbdc025a6ef81513e781f257fe86a9");
    ("tomcx/window 64", "b2c10f7dc0df57565e223021f1f6ef7c");
    ("tomcx/no renaming, window 64", "9212c3926c67b73434c6918706cbdd39");
    ("tomcx/fu 6/int 3/mem 2", "89a98e65a5622d1294303b790fd45c05");
    ("tomcx/2-bit(10)", "d69e8d24dc7dd9edbdc53b4265e008f3");
    ("xlispx/base", "5dd6c208f8e727f8fdec44cab310732c");
    ("xlispx/optimistic", "640b73b892377b134794e1dc75a71384");
    ("xlispx/no renaming", "072c8825504a19ce14bcc8932d264c70");
    ("xlispx/window 64", "56c8a774a0a9cd721a202d46b9aa8ed0");
    ("xlispx/no renaming, window 64", "b8c16ae748952f201c44dbcd9ca5c4e9");
    ("xlispx/fu 6/int 3/mem 2", "c27d12dc990ae2e1e4d88ecc511a4438");
    ("xlispx/2-bit(10)", "1be68cf670e05ca593280e46f44e236e") ]

let graph_digest ddg =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (n : Ddg.node) ->
      Printf.bprintf b "%d %d %d %s %d\n" n.trace_index n.pc
        (Opclass.to_tag n.op_class)
        (match n.dest with Some d -> Loc.to_string d | None -> "-")
        n.level)
    (Ddg.nodes ddg);
  List.iter
    (fun (e : Ddg.edge) ->
      match e.kind with
      | Ddg.True_data -> Printf.bprintf b "d %d %d\n" e.from_node e.to_node
      | Ddg.Storage -> Printf.bprintf b "s %d %d\n" e.from_node e.to_node
      | Ddg.Control -> ())
    (Ddg.edges ddg);
  Printf.bprintf b "cp %d\n" (Ddg.critical_path ddg);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_recorded_graphs () =
  List.iter
    (fun (w : Ddg_workloads.Workload.t) ->
      let _, trace =
        Ddg_workloads.Workload.trace w Ddg_workloads.Workload.Tiny
      in
      List.iter
        (fun name ->
          let cell = w.name ^ "/" ^ name in
          Alcotest.(check string) cell (List.assoc cell recorded_graphs)
            (graph_digest (Ddg.build (List.assoc name digest_configs) trace)))
        graph_configs)
    Ddg_workloads.Registry.all

(* --- which node a control edge comes from ----------------------------------- *)

let events es =
  Trace.of_list
    (List.mapi
       (fun pc (op_class, dest, srcs, branch) ->
         { Trace.pc; op_class; dest; srcs; branch })
       es)

let reg i = Some (Loc.Reg i)

let control_edges ddg =
  List.filter_map
    (fun (e : Ddg.edge) ->
      if e.kind = Ddg.Control then Some (e.from_node, e.to_node) else None)
    (Ddg.edges ddg)

let chain_ids ddg =
  List.map (fun (n : Ddg.node) -> n.id) (Ddg.critical_chain ddg)

let check_control ddg edge =
  Alcotest.(check bool)
    (Printf.sprintf "control edge %d -> %d" (fst edge) (snd edge))
    true
    (List.mem edge (control_edges ddg))

let test_control_syscall () =
  (* syscall; li r1; div r2 <- r1; syscall: the second syscall waits for
     the divide, the deepest node, not for the first syscall *)
  let ddg =
    Ddg.build Config.default
      (events
         [ (Opclass.Syscall, None, [], None);
           (Opclass.Int_alu, reg 1, [], None);
           (Opclass.Int_divide, reg 2, [ Loc.Reg 1 ], None);
           (Opclass.Syscall, None, [], None) ])
  in
  check_control ddg (2, 3);
  Alcotest.(check (list int)) "chain" [ 0; 1; 2; 3 ] (chain_ids ddg)

let test_control_mispredict () =
  (* li r1; div r2 <- r1; branch on r2 (not taken, predicted taken);
     li r3: the branch resolves after the divide, which holds li r3 *)
  let ddg =
    Ddg.build
      Config.(with_branch Predict_taken dataflow)
      (events
         [ (Opclass.Int_alu, reg 1, [], None);
           (Opclass.Int_divide, reg 2, [ Loc.Reg 1 ], None);
           (Opclass.Control, None, [ Loc.Reg 2 ], Some { Trace.taken = false });
           (Opclass.Int_alu, reg 3, [], None) ])
  in
  check_control ddg (1, 2);
  Alcotest.(check (list int)) "chain" [ 0; 1; 2 ] (chain_ids ddg)

let test_control_preexisting () =
  (* div r6; lw r5 <- r4, [data_base] under a window of one: the load's
     pre-existing sources materialise at the divide's level, so the
     divide, displaced from the window, holds the load *)
  let ddg =
    Ddg.build
      Config.(with_window (Some 1) dataflow)
      (events
         [ (Opclass.Int_divide, reg 6, [], None);
           ( Opclass.Load_store,
             reg 5,
             [ Loc.Reg 4; Loc.Mem Segment.data_base ],
             None ) ])
  in
  check_control ddg (0, 1)

let test_chain_storage_binds () =
  (* div r2 <- r1, r6; mul r4; div r2 <- r4, r5 with registers not
     renamed: the second divide sits at 17, the multiply's 5 plus its
     12; its storage predecessor, the first divide at 11, did not bind
     it, so the chain runs through the multiply *)
  let config =
    Config.(with_renaming { rename_all with registers = false } default)
  in
  let ddg =
    Ddg.build config
      (events
         [ (Opclass.Int_divide, reg 2, [ Loc.Reg 1; Loc.Reg 6 ], None);
           (Opclass.Int_multiply, reg 4, [], None);
           (Opclass.Int_divide, reg 2, [ Loc.Reg 4; Loc.Reg 5 ], None) ])
  in
  Alcotest.(check (list int)) "levels" [ 11; 5; 17 ]
    (List.map (fun (n : Ddg.node) -> n.level) (Array.to_list (Ddg.nodes ddg)));
  Alcotest.(check (list int)) "chain" [ 1; 2 ] (chain_ids ddg)

let tests =
  [ Alcotest.test_case "figure 1: dataflow DDG" `Quick test_figure1;
    Alcotest.test_case "figure 2 renamed = figure 1" `Quick
      test_figure2_renamed;
    Alcotest.test_case "figure 2: storage deps" `Quick
      test_figure2_storage_deps;
    Alcotest.test_case "figure 1 unaffected by renaming" `Quick
      test_figure1_no_renaming_unchanged;
    Alcotest.test_case "figure 4: resource deps" `Quick test_figure4_resources;
    Alcotest.test_case "ddg matches analyzer" `Quick
      test_ddg_matches_analyzer_fig1;
    Alcotest.test_case "ddg edges (fig 1)" `Quick test_ddg_edges_fig1;
    Alcotest.test_case "ddg storage edges (fig 2)" `Quick
      test_ddg_storage_edges_fig2;
    Alcotest.test_case "ddg dot export" `Quick test_ddg_dot;
    Alcotest.test_case "syscall conservative vs optimistic" `Quick
      test_syscall_conservative;
    Alcotest.test_case "syscall firewall blocks" `Quick
      test_syscall_firewall_blocks;
    Alcotest.test_case "pre-existing data values" `Quick
      test_preexisting_values;
    Alcotest.test_case "pre-existing registers" `Quick test_preexisting_sp;
    Alcotest.test_case "window limits width" `Quick test_window_limits_width;
    Alcotest.test_case "window of one serialises" `Quick
      test_window_one_serialises;
    Alcotest.test_case "window keeps dataflow chains" `Quick
      test_window_preserves_dataflow_order;
    Alcotest.test_case "table 1 latencies deepen" `Quick test_latencies_deepen;
    Alcotest.test_case "custom latency table" `Quick test_custom_latency;
    Alcotest.test_case "sharing distribution" `Quick test_sharing_distribution;
    Alcotest.test_case "lifetime distribution" `Quick
      test_lifetime_distribution;
    Alcotest.test_case "partition sharing" `Quick test_partition_sharing;
    Alcotest.test_case "partition sharing rejects zero" `Quick
      test_partition_sharing_rejects_zero;
    Alcotest.test_case "two-pass matches figure 1" `Quick
      test_two_pass_matches_figure1;
    Alcotest.test_case "two-pass annotations" `Quick
      test_two_pass_annotations;
    Alcotest.test_case "two-pass peaks match the recorded values" `Quick
      test_two_pass_peaks;
    Alcotest.test_case "storage profile" `Quick test_storage_profile;
    Alcotest.test_case "storage profile long-lived" `Quick
      test_storage_profile_long_lived;
    Alcotest.test_case "perfect branches by default" `Quick
      test_branch_perfect_default;
    Alcotest.test_case "mispredicts deepen" `Quick
      test_branch_mispredicts_deepen;
    Alcotest.test_case "2-bit predictor learns" `Quick test_two_bit_learns;
    Alcotest.test_case "config describe" `Quick test_describe;
    Alcotest.test_case "stats bytes match the recorded digests" `Quick
      test_recorded_digests;
    Alcotest.test_case "explicit DDG matches the recorded digests" `Quick
      test_recorded_graphs;
    Alcotest.test_case "control edge: a syscall waits for the deepest node"
      `Quick test_control_syscall;
    Alcotest.test_case "control edge: a mispredicted branch's source"
      `Quick test_control_mispredict;
    Alcotest.test_case "control edge: pre-existing sources at the firewall"
      `Quick test_control_preexisting;
    Alcotest.test_case "critical chain skips a storage edge that did not bind"
      `Quick test_chain_storage_binds ]
