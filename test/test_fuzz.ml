(* Compiler fuzzing: generate random, well-typed, provably terminating
   Mini-C programs and check that
   - they compile, run and halt at every optimisation level,
   - all three optimisation levels produce identical output,
   - the analyzer accepts the resulting traces (placement never crashes
     and its invariants hold).

   The generator is deliberately conservative so that every generated
   program terminates: loops are [for] loops over literal bounds with
   literal positive steps, there is no recursion, and divisors are
   literal non-zero values or guarded expressions. *)

open Ddg_minic

(* --- generator ------------------------------------------------------------ *)

(* integer-only programs over a fixed set of scalar names and one global
   array *)
let var_names = [| "a"; "b"; "c"; "d" |]

let gen_var = QCheck.Gen.map (fun i -> var_names.(i)) (QCheck.Gen.int_bound 3)

let rec gen_expr depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [ map (fun k -> string_of_int (k - 50)) (int_bound 100);
        gen_var;
        map (fun (v, k) -> Printf.sprintf "arr[(%s + %d) & 15]" v k)
          (pair gen_var (int_bound 15)) ]
  else
    let sub = gen_expr (depth - 1) in
    oneof
      [ gen_expr 0;
        map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
        map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
        map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
        (* literal non-zero divisor keeps division safe *)
        map2
          (fun a k -> Printf.sprintf "(%s / %d)" a (k + 1))
          sub (int_bound 9);
        map2
          (fun a k -> Printf.sprintf "(%s %% %d)" a (k + 1))
          sub (int_bound 9);
        map2 (fun a b -> Printf.sprintf "(%s & %s)" a b) sub sub;
        map2 (fun a b -> Printf.sprintf "(%s ^ %s)" a b) sub sub;
        map2 (fun a k -> Printf.sprintf "(%s >> %d)" a k) sub (int_bound 8);
        map2 (fun a b -> Printf.sprintf "(%s < %s)" a b) sub sub ]

(* every loop nesting depth owns a distinct counter, so nested loops can
   never reset an outer counter and termination is guaranteed *)
let counter_for_depth = [| "k"; "j"; "i" |]

let rec gen_stmt depth =
  let open QCheck.Gen in
  let assign =
    map2 (fun v e -> Printf.sprintf "%s = %s;" v e) gen_var (gen_expr 2)
  in
  let store =
    map2
      (fun (v, k) e -> Printf.sprintf "arr[(%s + %d) & 15] = %s;" v k e)
      (pair gen_var (int_bound 15))
      (gen_expr 2)
  in
  let print = map (fun e -> Printf.sprintf "print_int(%s);" e) (gen_expr 1) in
  if depth = 0 then oneof [ assign; store; print ]
  else
    let body = gen_block (depth - 1) in
    let ctr = counter_for_depth.(depth) in
    oneof
      [ assign;
        store;
        print;
        map2
          (fun e b -> Printf.sprintf "if (%s) { %s }" e b)
          (gen_expr 1) body;
        map2
          (fun (e, b1) b2 ->
            Printf.sprintf "if (%s) { %s } else { %s }" e b1 b2)
          (pair (gen_expr 1) body)
          body;
        (* literal-bounded for loop over this depth's counter: terminates *)
        map2
          (fun (n, s) b ->
            Printf.sprintf "for (%s = 0; %s < %d; %s = %s + %d) { %s }" ctr
              ctr (n + 1) ctr ctr (s + 1) b)
          (pair (int_bound 12) (int_bound 2))
          body;
        (* break/continue exercise, safely inside a bounded loop *)
        map
          (fun n ->
            Printf.sprintf
              "for (%s = 0; %s < %d; %s = %s + 1) { if (%s == 3) continue; \
               if (%s == 7) break; a = a + %s; }"
              ctr ctr (n + 5) ctr ctr ctr ctr ctr)
          (int_bound 10) ]

and gen_block depth =
  QCheck.Gen.map (String.concat " ")
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 4) (gen_stmt depth))

let gen_program =
  let open QCheck.Gen in
  let* body = gen_block 2 in
  return
    (Printf.sprintf
       {|int arr[16];
void main() {
  int a = 1;
  int b = 2;
  int c = 3;
  int d = 4;
  int i;
  int j;
  int k;
  %s
  print_int(a + b + c + d);
  print_char(10);
}|}
       body)

let arb_program = QCheck.make gen_program ~print:(fun s -> s)

(* --- properties ------------------------------------------------------------- *)

let run_at opt source =
  Driver.run ~opt ~max_instructions:2_000_000 source

let prop_levels_agree =
  QCheck.Test.make ~name:"random programs agree across O0/O1/O2" ~count:150
    arb_program (fun source ->
      let r0 = run_at Optimize.O0 source in
      let r1 = run_at Optimize.O1 source in
      let r2 = run_at Optimize.O2 source in
      r0.stop = Ddg_sim.Machine.Halted
      && r1.stop = Ddg_sim.Machine.Halted
      && r2.stop = Ddg_sim.Machine.Halted
      && r0.output = r1.output && r1.output = r2.output)

let prop_traces_analyzable =
  QCheck.Test.make ~name:"random program traces analyze cleanly" ~count:60
    arb_program (fun source ->
      let _, trace = Driver.run_to_trace ~max_instructions:2_000_000 source in
      let stats =
        Ddg_paragraph.Analyzer.analyze Ddg_paragraph.Config.default trace
      in
      let none =
        Ddg_paragraph.Analyzer.analyze
          Ddg_paragraph.Config.(with_renaming rename_none default)
          trace
      in
      stats.placed_ops > 0
      && stats.critical_path >= 1
      && none.critical_path >= stats.critical_path)

(* Real compiled traces (not just synthetic events) down the kernel at
   one and at several configurations, against the reference
   interpreter's canonical bytes. *)
let fuzz_configs =
  Ddg_paragraph.Config.
    [ default; dataflow;
      with_renaming rename_none default;
      with_window (Some 32) default ]

let prop_compiled_paths_agree =
  QCheck.Test.make ~name:"compiled traces: packed, record and fused agree"
    ~count:30 arb_program (fun source ->
      let _, trace = Driver.run_to_trace ~max_instructions:2_000_000 source in
      let events = Ddg_sim.Trace.to_list trace in
      let seq =
        List.map
          (fun c -> Ddg_paragraph.Analyzer.analyze c trace)
          fuzz_configs
      in
      let fused = Ddg_paragraph.Analyzer.analyze_many fuzz_configs trace in
      let agree (a : Ddg_paragraph.Analyzer.stats)
          (b : Ddg_paragraph.Analyzer.stats) =
        a.events = b.events
        && a.placed_ops = b.placed_ops
        && a.syscalls = b.syscalls
        && a.critical_path = b.critical_path
        && a.available_parallelism = b.available_parallelism
        && a.live_locations = b.live_locations
      in
      let bytes = Ddg_paragraph.Stats_codec.to_string in
      List.for_all2 agree seq fused
      && List.for_all2
           (fun config packed ->
             bytes packed = bytes (Reference.analyze config events))
           fuzz_configs seq)

let prop_unrolled_trace_not_longer_dynamically =
  QCheck.Test.make
    ~name:"unrolling never increases the dynamic instruction count by much"
    ~count:60 arb_program (fun source ->
      let r0 = run_at Optimize.O0 source in
      let r2 = run_at Optimize.O2 source in
      (* remainder-loop bookkeeping can add a handful of instructions per
         loop, never a blowup *)
      r2.instructions <= r0.instructions + (r0.instructions / 4) + 64)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_levels_agree;
      prop_traces_analyzable;
      prop_compiled_paths_agree;
      prop_unrolled_trace_not_longer_dynamically ]
