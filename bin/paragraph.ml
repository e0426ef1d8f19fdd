(* The paragraph command-line tool.

   Subcommands:
   - analyze:   trace a Mini-C file, an assembly file or a named workload
                and run the DDG analysis under any switch combination
   - profile:   print the parallelism profile (chart or CSV)
   - ddg:       emit the explicit DDG of a small program as Graphviz DOT
   - run:       just execute a program on the simulator
   - workloads: list the SPEC'89-analog workloads
   - table3 / table4 / fig7 / fig8: regenerate one paper result
   - serve:     run the resident analysis daemon (paragraphd)
   - client:    talk to a running daemon (ping/analyze/simulate/table/
                stats/shutdown) *)

open Cmdliner
open Ddg_paragraph
module Obs = Ddg_obs.Obs

(* Wall time of the CLI-side simulation, so a [--profile] run breaks
   down into simulate + the analyzer's own phase spans. *)
let span_cli_simulate = Obs.span_site "ddg_cli_simulate_ns"

(* --- program / trace loading ------------------------------------------- *)

type source = Workload_name of string | Minic_file of string | Asm_file of string

(* One-line error + nonzero exit: missing or unreadable input files and
   corrupt traces are user errors, not reasons for a backtrace. *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("paragraph: " ^ msg);
      exit 2)
    fmt

let read_source path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg -> die "%s" msg

let load_program = function
  | Workload_name name -> (
      match Ddg_workloads.Registry.find name with
      | Some w -> Ddg_workloads.Workload.program w Ddg_workloads.Workload.Default
      | None -> failwith (Printf.sprintf "unknown workload %S" name))
  | Minic_file path -> (
      let source = read_source path in
      try Ddg_minic.Driver.compile source
      with Ddg_minic.Driver.Error { line; msg } ->
        failwith (Printf.sprintf "%s:%d: %s" path line msg))
  | Asm_file path -> (
      let source = read_source path in
      try Ddg_asm.Assembler.assemble_string source
      with
      | Ddg_asm.Parser.Error { lineno; msg }
      | Ddg_asm.Assembler.Error { lineno; msg } ->
          failwith (Printf.sprintf "%s:%d: %s" path lineno msg))

let read_trace_file path =
  try Ddg_sim.Trace_io.read_file path with
  | Ddg_sim.Trace_io.Corrupt msg -> die "%s: corrupt trace file: %s" path msg
  | Sys_error msg -> die "%s" msg

let classify_input input =
  if Filename.check_suffix input ".mc" || Filename.check_suffix input ".c"
  then Minic_file input
  else if Filename.check_suffix input ".s" || Filename.check_suffix input ".asm"
  then Asm_file input
  else Workload_name input

(* returns [None] for the simulation result and program when the input is
   a saved trace file (no simulation happens) *)
let trace_and_program_of_input input ~max_instructions =
  if Filename.check_suffix input ".trace" then
    (None, None, read_trace_file input)
  else begin
    let program = load_program (classify_input input) in
    let result, trace =
      Obs.time span_cli_simulate (fun () ->
          Ddg_sim.Machine.run_to_trace ~max_instructions program)
    in
    (match result.stop with
    | Ddg_sim.Machine.Halted | Ddg_sim.Machine.Instruction_limit -> ()
    | Ddg_sim.Machine.Fault msg -> failwith ("machine fault: " ^ msg));
    (Some result, Some program, trace)
  end

let trace_of_input input ~max_instructions =
  let result, _, trace = trace_and_program_of_input input ~max_instructions in
  (result, trace)

(* --- per-phase profiling (--profile) ------------------------------------- *)

let obs_site_name name labels =
  match labels with
  | [] -> name
  | ls ->
      Printf.sprintf "%s{%s}" name
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) ls))

let render_obs_profile (s : Obs.snapshot) =
  let module T = Ddg_report.Table in
  let us ns = T.float_cell ~decimals:1 (float_of_int ns /. 1e3) in
  let rows =
    List.filter_map
      (fun (h : Obs.hist_snapshot) ->
        if h.hs_count = 0 then None
        else
          Some
            [ obs_site_name h.hs_name h.hs_labels;
              T.int_cell h.hs_count;
              T.float_cell ~decimals:2 (float_of_int h.hs_sum /. 1e6);
              T.float_cell ~decimals:1 (Obs.hist_mean h /. 1e3);
              us (Obs.quantile h 0.5);
              us (Obs.quantile h 0.99);
              us h.hs_max ])
      s.histograms
  in
  let counters =
    List.filter (fun (c : Obs.counter_snapshot) -> c.cs_value > 0) s.counters
  in
  String.concat ""
    [ T.render ~title:"phase profile"
        ~headers:
          [ ("Site", T.Left); ("Count", T.Right); ("Total ms", T.Right);
            ("Mean us", T.Right); ("p50 us", T.Right); ("p99 us", T.Right);
            ("Max us", T.Right) ]
        rows;
      (if counters = [] then ""
       else
         "\ncounters:\n"
         ^ String.concat ""
             (List.map
                (fun (c : Obs.counter_snapshot) ->
                  Printf.sprintf "  %-40s %d\n"
                    (obs_site_name c.cs_name c.cs_labels)
                    c.cs_value)
                counters)) ]

let profile_flag_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Record per-phase timing spans while running and print the \
           breakdown (counts, total/mean/quantile latencies) to stderr.")

(* The profile goes to stderr so [--json]/piped stdout stays clean. *)
let with_profile profile f =
  if not profile then f ()
  else begin
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        prerr_string (render_obs_profile (Obs.snapshot ()));
        flush stderr)
      f
  end

(* --- common options ------------------------------------------------------ *)

let input_arg =
  let doc =
    "Program to analyze: a workload name (see $(b,workloads)), a Mini-C \
     file (.mc/.c) or an assembly file (.s/.asm)."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let max_instructions_arg =
  let doc = "Maximum instructions to trace." in
  Arg.(value & opt int 100_000_000 & info [ "max-instructions" ] ~doc)

let optimistic_arg =
  let doc =
    "Assume system calls modify nothing (optimistic) instead of placing a \
     firewall (conservative)."
  in
  Arg.(value & flag & info [ "optimistic" ] ~doc)

let renaming_arg =
  let doc = "Renaming: one of none, regs, regs-stack, all." in
  let kind =
    Arg.enum
      [ ("none", Config.rename_none);
        ("regs", Config.rename_registers_only);
        ("regs-stack", Config.rename_registers_stack);
        ("all", Config.rename_all) ]
  in
  Arg.(value & opt kind Config.rename_all & info [ "renaming" ] ~doc)

let window_arg =
  let doc = "Instruction window size (omit for an unbounded window)." in
  Arg.(value & opt (some int) None & info [ "window"; "w" ] ~doc)

let fu_arg =
  let doc = "Total functional-unit limit (omit for unlimited)." in
  Arg.(value & opt (some int) None & info [ "fu" ] ~doc)

let branch_arg =
  let doc = "Branch handling: perfect, taken, not-taken, or 2bit." in
  let kind =
    Arg.enum
      [ ("perfect", Config.Perfect);
        ("taken", Config.Predict_taken);
        ("not-taken", Config.Predict_not_taken);
        ("2bit", Config.Two_bit 12) ]
  in
  Arg.(value & opt kind Config.Perfect & info [ "branch" ] ~doc)

let config_term =
  let make optimistic renaming window fu branch =
    let config =
      {
        Config.default with
        syscall_stall = not optimistic;
        renaming;
        window;
        fu = { Config.unlimited_fu with total = fu };
        branch;
      }
    in
    match Config.validate config with
    | Ok () -> config
    | Error msg -> die "bad analysis configuration: %s" msg
  in
  Term.(
    const make $ optimistic_arg $ renaming_arg $ window_arg $ fu_arg
    $ branch_arg)

(* --- analyze ------------------------------------------------------------- *)

let stats_to_json input config (stats : Analyzer.stats) =
  let open Ddg_report.Json in
  Obj
    [ ("program", String input);
      ("switches", String (Config.describe config));
      ("events", Int stats.events);
      ("placed_ops", Int stats.placed_ops);
      ("syscalls", Int stats.syscalls);
      ("critical_path", Int stats.critical_path);
      ("available_parallelism", Float stats.available_parallelism);
      ("live_locations", Int stats.live_locations);
      ("mispredicts", Int stats.mispredicts);
      ( "lifetimes",
        Obj
          [ ("count", Int (Dist.count stats.lifetimes));
            ("mean", Float (Dist.mean stats.lifetimes));
            ( "max",
              if Dist.count stats.lifetimes = 0 then Null
              else Int (Dist.max_value stats.lifetimes) ) ] );
      ( "sharing",
        Obj
          [ ("count", Int (Dist.count stats.sharing));
            ("mean", Float (Dist.mean stats.sharing));
            ( "max",
              if Dist.count stats.sharing = 0 then Null
              else Int (Dist.max_value stats.sharing) ) ] );
      ( "storage",
        Obj
          [ ( "mean_live",
              Float (Profile.average_parallelism stats.storage_profile) );
            ( "peak_live",
              Float (Profile.max_ops_per_level stats.storage_profile) ) ] ) ]

let analyze_cmd =
  let run input max_instructions config json profile =
    with_profile profile @@ fun () ->
    let result, trace = trace_of_input input ~max_instructions in
    let stats = Analyzer.analyze config trace in
    if json then
      print_endline
        (Ddg_report.Json.to_string (stats_to_json input config stats))
    else begin
      Format.printf "program: %s@." input;
      Format.printf "switches: %s@." (Config.describe config);
      (match result with
      | Some r ->
          Format.printf
            "simulation: %d instructions, %d syscalls, output %d bytes@."
            r.instructions r.syscalls
            (String.length r.output)
      | None ->
          Format.printf "trace file: %d events@."
            (Ddg_sim.Trace.length trace));
      Format.printf "%a@." Analyzer.pp_stats stats
    end
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let doc = "Run the Paragraph DDG analysis on a program or workload." in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ input_arg $ max_instructions_arg $ config_term $ json
      $ profile_flag_arg)

(* --- advise ---------------------------------------------------------------- *)

module Advise = Ddg_advise.Advise

(* Like [trace_and_program_of_input], but compiling with loop marks so
   the advisor has its loop-attribution side channel. A saved .trace is
   used as-is (it must have been recorded from a marked program);
   hand-written assembly may carry its own [.loop]/[lmark] marks. *)
let marked_trace_of_input input ~max_instructions =
  if Filename.check_suffix input ".trace" then read_trace_file input
  else begin
    let program =
      match classify_input input with
      | Workload_name name -> (
          match Ddg_workloads.Registry.find name with
          | Some w ->
              Ddg_workloads.Workload.program ~marks:true w
                Ddg_workloads.Workload.Default
          | None -> failwith (Printf.sprintf "unknown workload %S" name))
      | Minic_file path -> (
          let source = read_source path in
          try Ddg_minic.Driver.compile ~marks:true source
          with Ddg_minic.Driver.Error { line; msg } ->
            failwith (Printf.sprintf "%s:%d: %s" path line msg))
      | Asm_file path -> (
          let source = read_source path in
          try Ddg_asm.Assembler.assemble_string source
          with
          | Ddg_asm.Parser.Error { lineno; msg }
          | Ddg_asm.Assembler.Error { lineno; msg } ->
              failwith (Printf.sprintf "%s:%d: %s" path lineno msg))
    in
    let result, trace =
      Obs.time span_cli_simulate (fun () ->
          Ddg_sim.Machine.run_to_trace ~max_instructions program)
    in
    (match result.stop with
    | Ddg_sim.Machine.Halted | Ddg_sim.Machine.Instruction_limit -> ()
    | Ddg_sim.Machine.Fault msg -> failwith ("machine fault: " ^ msg));
    trace
  end

let advise_to_json input config (a : Advise.t) =
  let open Ddg_report.Json in
  Obj
    [ ("program", String input);
      ("switches", String (Config.describe config));
      ("total_ops", Int a.Advise.total_ops);
      ("total_cp", Int a.total_cp);
      ( "loops",
        List
          (List.map
             (fun (l : Advise.loop_report) ->
               Obj
                 [ ("id", Int l.Advise.id);
                   ("func", String l.func);
                   ("line", Int l.line);
                   ("kind", String l.kind);
                   ( "classification",
                     String (Advise.classification_name l.classification) );
                   ("entries", Int l.entries);
                   ("iterations", Int l.iterations);
                   ("ops", Int l.ops);
                   ("cp_cycles", Int l.cp_cycles);
                   ("avg_iterations", Float (Advise.avg_iterations l));
                   ("speedup_estimate", Float (Advise.speedup_estimate l));
                   ("benefit", Float (Advise.benefit l));
                   ( "carried",
                     List
                       (List.map
                          (fun (c : Advise.carried_dep) ->
                            Obj
                              [ ( "location",
                                  String (Ddg_isa.Loc.to_string c.Advise.location)
                                );
                                ("distance", Int c.distance);
                                ("occurrences", Int c.occurrences) ])
                          l.carried) ) ])
             a.loops) ) ]

let render_advise input config (a : Advise.t) =
  let module T = Ddg_report.Table in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "program: %s\n" input);
  Buffer.add_string buf
    (Printf.sprintf "switches: %s\n" (Config.describe config));
  Buffer.add_string buf
    (Printf.sprintf "trace: %d events, critical path %d cycles\n\n"
       a.Advise.total_ops a.total_cp);
  if a.loops = [] then
    Buffer.add_string buf
      "no loops observed (trace has no loop marks; compile with marks or \
       name a workload)\n"
  else begin
    let rows =
      List.mapi
        (fun i (l : Advise.loop_report) ->
          [ string_of_int (i + 1);
            Printf.sprintf "%s:%d" l.Advise.func l.line;
            l.kind;
            Advise.classification_name l.classification;
            T.int_cell l.entries;
            T.float_cell ~decimals:1 (Advise.avg_iterations l);
            T.int_cell l.ops;
            T.int_cell l.cp_cycles;
            T.float_cell ~decimals:1 (Advise.speedup_estimate l);
            Printf.sprintf "%.1f%%"
              (if a.total_ops = 0 then 0.0
               else 100.0 *. Advise.benefit l /. float_of_int a.total_ops) ])
        a.loops
    in
    Buffer.add_string buf
      (T.render ~title:"loops ranked by parallelization benefit"
         ~headers:
           [ ("#", T.Right); ("Loop", T.Left); ("Kind", T.Left);
             ("Classification", T.Left); ("Entries", T.Right);
             ("Iters/entry", T.Right); ("Ops", T.Right);
             ("CP cycles", T.Right); ("Speedup", T.Right);
             ("Benefit", T.Right) ]
         rows);
    let with_deps =
      List.filter
        (fun (l : Advise.loop_report) -> l.Advise.carried <> [])
        a.loops
    in
    if with_deps <> [] then begin
      Buffer.add_string buf "\ncarried dependences (tightest first):\n";
      List.iter
        (fun (l : Advise.loop_report) ->
          List.iter
            (fun (c : Advise.carried_dep) ->
              Buffer.add_string buf
                (Printf.sprintf "  %-16s %-10s dist %-3d x%d\n"
                   (Printf.sprintf "%s:%d" l.Advise.func l.line)
                   (Ddg_isa.Loc.to_string c.Advise.location)
                   c.distance c.occurrences))
            l.Advise.carried)
        with_deps
    end
  end;
  Buffer.contents buf

let advise_cmd =
  let run input max_instructions config json profile =
    with_profile profile @@ fun () ->
    let trace = marked_trace_of_input input ~max_instructions in
    let advice = Advise.analyze ~config trace in
    if json then
      print_endline
        (Ddg_report.Json.to_string (advise_to_json input config advice))
    else print_string (render_advise input config advice)
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let doc =
    "Classify every executed source loop as DOALL, reduction or      loop-carried (with the minimum observed dependence distance) and      rank loops by how much work parallelizing each would overlap. Works      on workloads, Mini-C files, marked assembly, or saved marked traces."
  in
  Cmd.v
    (Cmd.info "advise" ~doc)
    Term.(
      const run $ input_arg $ max_instructions_arg $ config_term $ json
      $ profile_flag_arg)

(* --- profile -------------------------------------------------------------- *)

let profile_cmd =
  let run input max_instructions config csv storage =
    let _, trace = trace_of_input input ~max_instructions in
    let stats = Analyzer.analyze config trace in
    let profile = if storage then stats.storage_profile else stats.profile in
    let series = Profile.series profile in
    if csv then
      print_string
        (Ddg_report.Csv.to_string
           ~header:[ "level_lo"; "level_hi"; "ops_per_level" ]
           (List.map
              (fun (lo, hi, avg) ->
                [ string_of_int lo; string_of_int hi;
                  Printf.sprintf "%.4f" avg ])
              series))
    else begin
      Format.printf "%s: %d levels, %s mass %d, average %.2f per level@."
        input (Profile.levels profile)
        (if storage then "liveness" else "ops")
        (Profile.total_ops profile)
        (Profile.average_parallelism profile);
      print_string
        (Ddg_report.Chart.column_chart
           ~y_label:
             (if storage then "live values" else "operations available")
           ~log_y:true
           (List.map
              (fun (lo, hi, avg) -> (float_of_int (lo + hi) /. 2.0, avg))
              series))
    end
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a chart.")
  in
  let storage =
    Arg.(
      value & flag
      & info [ "storage" ]
          ~doc:
            "Show the storage (live values per level) profile instead of              the parallelism profile.")
  in
  let doc =
    "Print the parallelism profile (or, with $(b,--storage), the      memory-requirement profile) of a program or workload."
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const run $ input_arg $ max_instructions_arg $ config_term $ csv
      $ storage)

(* --- ddg ------------------------------------------------------------------- *)

let ddg_cmd =
  let run input max_instructions config =
    let _, trace = trace_of_input input ~max_instructions in
    if Ddg_sim.Trace.length trace > 200_000 then
      failwith
        "trace too large for explicit DDG construction; use --max-instructions";
    let ddg = Ddg.build config trace in
    print_string (Ddg.to_dot ddg)
  in
  let doc =
    "Build the explicit DDG of a (small) program and print Graphviz DOT."
  in
  Cmd.v
    (Cmd.info "ddg" ~doc)
    Term.(
      const run $ input_arg
      $ Arg.(value & opt int 2_000 & info [ "max-instructions" ] ~doc:"Cap.")
      $ config_term)

(* --- chain: critical-path diagnosis ----------------------------------------- *)

let chain_cmd =
  let run input max_instructions config top =
    let _, program, trace =
      trace_and_program_of_input input ~max_instructions
    in
    if Ddg_sim.Trace.length trace > 2_000_000 then
      failwith "trace too large; lower --max-instructions";
    let ddg = Ddg.build config trace in
    let chain = Ddg.critical_chain ddg in
    Format.printf
      "critical path %d levels; one maximal chain has %d nodes@.@."
      (Ddg.critical_path ddg) (List.length chain);
    Format.printf "chain composition by operation class:@.";
    List.iter
      (fun (cls, k) ->
        Format.printf "  %-24s %6d  (%d levels)@."
          (Ddg_isa.Opclass.to_string cls)
          k
          (k * Ddg_isa.Opclass.latency cls))
      (Ddg.chain_summary ddg);
    (* the static instructions that recur most along the chain *)
    let by_pc = Hashtbl.create 64 in
    List.iter
      (fun (n : Ddg.node) ->
        Hashtbl.replace by_pc n.pc
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_pc n.pc)))
      chain;
    let ranked =
      List.sort (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun pc k acc -> (pc, k) :: acc) by_pc [])
    in
    Format.printf "@.hottest static instructions on the chain:@.";
    let disassemble pc =
      match program with
      | Some (p : Ddg_asm.Program.t) when pc >= 0 && pc < Array.length p.insns
        ->
          Ddg_isa.Insn.to_string p.insns.(pc)
      | _ -> ""
    in
    (* map a pc to the enclosing function label (the greatest code label
       at or below it) *)
    let enclosing pc =
      match program with
      | Some (p : Ddg_asm.Program.t) ->
          let is_function name =
            name = "main"
            || (String.length name > 3 && String.sub name 0 3 = "mc_")
          in
          List.fold_left
            (fun best (name, addr) ->
              if is_function name && addr <= pc && addr < Array.length p.insns
              then
                match best with
                | Some (_, baddr) when baddr >= addr -> best
                | _ -> Some (name, addr)
              else best)
            None p.symbols
          |> Option.map fst
          |> Option.value ~default:""
      | None -> ""
    in
    let source_line pc =
      match program with
      | Some p -> (
          match Ddg_asm.Program.source_line p pc with
          | Some n -> Printf.sprintf "line %d" n
          | None -> "")
      | None -> ""
    in
    List.iteri
      (fun i (pc, k) ->
        if i < top then
          Format.printf "  pc %6d  x%-8d %-28s %-12s %s@." pc k
            (disassemble pc) (enclosing pc) (source_line pc))
      ranked;
    (* chain time by function *)
    let by_fn = Hashtbl.create 16 in
    List.iter
      (fun (n : Ddg.node) ->
        let f = enclosing n.pc in
        Hashtbl.replace by_fn f
          (1 + Option.value ~default:0 (Hashtbl.find_opt by_fn f)))
      chain;
    let fn_ranked =
      List.sort (fun (_, a) (_, b) -> compare b a)
        (Hashtbl.fold (fun f k acc -> (f, k) :: acc) by_fn [])
    in
    Format.printf "@.chain nodes by enclosing label:@.";
    List.iter
      (fun (f, k) ->
        Format.printf "  %-28s %6d (%.1f%%)@."
          (if f = "" then "<unknown>" else f)
          k
          (100.0 *. float_of_int k /. float_of_int (List.length chain)))
      fn_ranked
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"Rows of hot pcs to show.")
  in
  let doc =
    "Diagnose what limits a program's parallelism: walk one maximal      dependence chain of the DDG and report its composition (loop      counters? FP recurrences? storage reuse?)."
  in
  Cmd.v
    (Cmd.info "chain" ~doc)
    Term.(
      const run $ input_arg
      $ Arg.(
          value & opt int 500_000 & info [ "max-instructions" ] ~doc:"Cap.")
      $ config_term $ top)

(* --- sharing: multiprocessor data-flow (section 2.3) ------------------------- *)

let sharing_cmd =
  let run input max_instructions config =
    let _, trace = trace_of_input input ~max_instructions in
    if Ddg_sim.Trace.length trace > 2_000_000 then
      failwith "trace too large; lower --max-instructions";
    let ddg = Ddg.build config trace in
    let rows =
      List.concat_map
        (fun processors ->
          List.map
            (fun (label, scheme) ->
              let s = Ddg.partition_sharing ddg ~processors ~scheme in
              let total = s.internal_edges + s.cross_edges in
              [ string_of_int processors;
                label;
                Ddg_report.Table.int_cell s.cross_edges;
                Ddg_report.Table.int_cell s.internal_edges;
                Printf.sprintf "%.1f%%"
                  (if total = 0 then 0.0
                   else 100.0 *. float_of_int s.cross_edges /. float_of_int total) ])
            [ ("contiguous", `Contiguous); ("round-robin", `Round_robin) ])
        [ 2; 4; 8; 16 ]
    in
    Format.printf
      "data sharing between processors executing partitions of the DDG@.@.";
    print_string
      (Ddg_report.Table.render
         ~headers:
           [ ("Procs", Ddg_report.Table.Right);
             ("Scheme", Ddg_report.Table.Left);
             ("Cross edges", Ddg_report.Table.Right);
             ("Internal edges", Ddg_report.Table.Right);
             ("Shared", Ddg_report.Table.Right) ]
         rows)
  in
  let doc =
    "Partition the DDG across processors and measure cross-processor data      flow (the paper's section 2.3 multiprocessor sharing analysis)."
  in
  Cmd.v
    (Cmd.info "sharing" ~doc)
    Term.(
      const run $ input_arg
      $ Arg.(
          value & opt int 500_000 & info [ "max-instructions" ] ~doc:"Cap.")
      $ config_term)

(* --- disasm -------------------------------------------------------------------- *)

let disasm_cmd =
  let run input =
    let program = load_program (classify_input input) in
    Array.iteri
      (fun pc insn ->
        let labels =
          List.filter_map
            (fun (name, addr) ->
              if addr = pc && not (String.contains name '(') then Some name
              else None)
            program.Ddg_asm.Program.symbols
        in
        List.iter
          (fun l ->
            if String.length l < 6 || String.sub l 0 2 <> "L:" then
              Format.printf "%s:@." l)
          (List.sort compare labels);
        let line =
          match Ddg_asm.Program.source_line program pc with
          | Some n -> Printf.sprintf "  # line %d" n
          | None -> ""
        in
        Format.printf "  %4d: %-32s%s@." pc (Ddg_isa.Insn.to_string insn)
          line)
      program.insns
  in
  let doc = "Disassemble a compiled program with source-line annotations." in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ input_arg)

(* --- run --------------------------------------------------------------------- *)

let run_cmd =
  let run input max_instructions profile =
    with_profile profile @@ fun () ->
    match trace_of_input input ~max_instructions with
    | Some result, trace ->
        print_string result.output;
        Format.eprintf "[%d instructions, %d syscalls, %d trace events]@."
          result.instructions result.syscalls
          (Ddg_sim.Trace.length trace)
    | None, _ -> failwith "cannot execute a trace file"
  in
  let doc = "Execute a program on the simulator and print its output." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ input_arg $ max_instructions_arg $ profile_flag_arg)

(* --- trace ----------------------------------------------------------------------- *)

let trace_cmd =
  let run input max_instructions output =
    let _, trace = trace_of_input input ~max_instructions in
    Ddg_sim.Trace_io.write_file output trace;
    Format.eprintf "wrote %d events to %s@." (Ddg_sim.Trace.length trace)
      output
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Trace file to write.")
  in
  let doc =
    "Simulate a program and save its execution trace to a binary file      (re-analyzable with $(b,analyze) without re-simulating)."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(const run $ input_arg $ max_instructions_arg $ output)

(* --- workloads ------------------------------------------------------------------ *)

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Ddg_workloads.Workload.t) ->
        Format.printf "%-8s (%s, %s)@.         %s@.@." w.name w.spec_analog
          w.language_kind w.description)
      Ddg_workloads.Registry.all
  in
  let doc = "List the SPEC'89-analog workloads." in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const run $ const ())

(* --- paper tables/figures --------------------------------------------------------- *)

let size_arg =
  let doc = "Workload size class: tiny, default or large." in
  let kind =
    Arg.enum
      [ ("tiny", Ddg_workloads.Workload.Tiny);
        ("default", Ddg_workloads.Workload.Default);
        ("large", Ddg_workloads.Workload.Large) ]
  in
  Arg.(value & opt kind Ddg_workloads.Workload.Default & info [ "size" ] ~doc)

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Progress on stderr.")

let jobs_arg =
  let doc =
    "Parallel jobs: simulate and analyze up to $(docv) workloads \
     concurrently; $(b,serve) and each $(b,cluster) backend run up to \
     $(docv) requests at once (results are identical for any value)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Artifact store directory for traces and analysis results (default \
     ~/.cache/ddg; see $(b,--no-cache))."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the on-disk artifact store (memory cache only)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let runner_of ?trace_budget size verbose jobs cache_dir no_cache =
  let progress =
    if verbose then fun msg -> Printf.eprintf "%s\n%!" msg else fun _ -> ()
  in
  let store =
    if no_cache then None
    else
      match Ddg_store.Store.open_ ?dir:cache_dir () with
      | store -> Some store
      | exception Sys_error msg ->
          Printf.eprintf "paragraph: cannot open artifact store (%s); \
                          continuing without cache\n%!"
            msg;
          None
  in
  Ddg_experiments.Runner.create ~size ~progress ?store ~workers:jobs
    ?trace_budget ()

let runner_term =
  Term.(
    const (fun size -> runner_of size)
    $ size_arg $ verbose_arg $ jobs_arg $ cache_dir_arg
    $ no_cache_arg)

let paper_cmd name doc render =
  let run runner = print_string (render runner) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ runner_term)

let fig7_csv_cmd =
  let run runner workload =
    match Ddg_workloads.Registry.find workload with
    | Some w -> print_string (Ddg_experiments.Fig7.csv runner w)
    | None -> failwith ("unknown workload " ^ workload)
  in
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "fig7-csv" ~doc:"Figure 7 series for one workload, as CSV.")
    Term.(const run $ runner_term $ workload)

let fig8_csv_cmd =
  let run runner = print_string (Ddg_experiments.Fig8.csv runner) in
  Cmd.v
    (Cmd.info "fig8-csv" ~doc:"Figure 8 series for all workloads, as CSV.")
    Term.(const run $ runner_term)

(* --- fsck ------------------------------------------------------------------------ *)

let fsck_cmd =
  let run cache_dir json =
    let store =
      try Ddg_store.Store.open_ ?dir:cache_dir ()
      with Sys_error msg -> die "cannot open artifact store: %s" msg
    in
    let r = Ddg_store.Store.fsck store in
    if json then
      print_endline
        (Ddg_report.Json.to_string
           (Ddg_report.Json.Obj
              [ ("scanned", Int r.Ddg_store.Store.scanned);
                ("valid", Int r.valid);
                ("quarantined", Int r.quarantined);
                ("missing", Int r.missing);
                ("swept_temps", Int r.swept_temps) ]))
    else begin
      Format.printf "scanned:     %d artifacts@." r.Ddg_store.Store.scanned;
      Format.printf "valid:       %d@." r.valid;
      Format.printf "quarantined: %d (moved aside with a .reason file)@."
        r.quarantined;
      Format.printf "missing:     %d manifest entries without a file@."
        r.missing;
      Format.printf "swept:       %d stale temp files@." r.swept_temps
    end;
    if r.quarantined > 0 || r.missing > 0 then exit 1
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let doc =
    "Verify the on-disk artifact store: check every artifact's header,      length and digest against the manifest, quarantine anything      corrupt or misplaced, sweep temp files left by dead writers, and      rebuild the manifest atomically. Exits 1 if anything was      quarantined or missing."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ cache_dir_arg $ json)

(* --- serve / client -------------------------------------------------------- *)

module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Protocol = Ddg_protocol.Protocol
module Router = Ddg_cluster.Router
module Fleet = Ddg_cluster.Fleet

let runtime_dir =
  lazy
    (try Sys.getenv "XDG_RUNTIME_DIR"
     with Not_found -> Filename.get_temp_dir_name ())

let default_socket =
  lazy (Filename.concat (Lazy.force runtime_dir) "paragraphd.sock")

(* the cluster front door: `paragraph cluster` binds its router here by
   default, and `client --via-router` aims here by default *)
let default_cluster_socket =
  lazy (Filename.concat (Lazy.force runtime_dir) "paragraphd-cluster.sock")

let tcp_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let addr = String.sub s 0 i in
        match int_of_string_opt
                (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some port when port > 0 && port < 65536 -> Ok (addr, port)
        | _ -> Error (`Msg "expected ADDR:PORT"))
    | None -> Error (`Msg "expected ADDR:PORT")
  in
  Arg.conv (parse, fun ppf (a, p) -> Format.fprintf ppf "%s:%d" a p)

let describe_endpoint = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (addr, port) -> Printf.sprintf "tcp:%s:%d" addr port

let socket_doc = "Unix-domain socket path of the daemon."

let trace_budget_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-budget" ] ~docv:"MIB"
        ~doc:
          "Cap resident decoded traces at $(docv) MiB; least recently \
           used traces are evicted past the budget.")

let serve_cmd =
  let run size verbose jobs cache_dir no_cache trace_budget_mb socket tcp
      max_inflight max_connections deadline =
    (match Ddg_fault.Fault.configure_from_env () with
    | Ok false -> ()
    | Ok true ->
        Printf.eprintf
          "paragraphd: fault injection ARMED from DDG_FAULTS=%s\n%!"
          (try Sys.getenv "DDG_FAULTS" with Not_found -> "")
    | Error msg -> die "DDG_FAULTS: %s" msg);
    let trace_budget =
      Option.map (fun mb -> mb * 1024 * 1024) trace_budget_mb
    in
    let runner =
      runner_of ?trace_budget size verbose jobs cache_dir no_cache
    in
    let endpoints =
      `Unix socket :: (match tcp with Some (a, p) -> [ `Tcp (a, p) ] | None -> [])
    in
    let server =
      Server.create ~runner ~workers:jobs ~max_inflight ~max_connections
        ~default_deadline_s:deadline
        ~log:(fun msg -> Printf.eprintf "paragraphd: %s\n%!" msg)
        endpoints
    in
    Server.install_signal_handlers server;
    Server.run server
  in
  let trace_budget_mb = trace_budget_mb_arg in
  let socket =
    Arg.(
      value
      & opt string (Lazy.force default_socket)
      & info [ "socket" ] ~docv:"PATH" ~doc:socket_doc)
  in
  let tcp =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"ADDR:PORT"
          ~doc:"Also listen on a TCP address, e.g. 127.0.0.1:7432.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Refuse new work with a Busy error once $(docv) requests are \
             queued or running.")
  in
  let max_connections =
    Arg.(
      value & opt int 256
      & info [ "max-connections" ] ~docv:"N"
          ~doc:
            "Close new connections at accept once $(docv) handlers are \
             already active.")
  in
  let deadline =
    Arg.(
      value & opt float 600.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request deadline for clients that set none.")
  in
  let doc =
    "Run the resident analysis daemon: serve analyze/simulate/table      requests over a Unix-domain socket (and optionally TCP), keeping      traces and results warm in memory and the artifact store. SIGINT or      SIGTERM drains gracefully."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ size_arg $ verbose_arg $ jobs_arg $ cache_dir_arg
      $ no_cache_arg $ trace_budget_mb $ socket $ tcp $ max_inflight
      $ max_connections $ deadline)

let cluster_cmd =
  let run size verbose jobs cache_dir trace_budget_mb socket nodes vnodes
      max_inflight max_connections deadline connect_timeout_ms scrub_rate =
    (match Ddg_fault.Fault.configure_from_env () with
    | Ok false -> ()
    | Ok true ->
        (* children fork after this, so every backend inherits the armed
           plan — one DDG_FAULTS drives the whole fleet *)
        Printf.eprintf
          "paragraph-cluster: fault injection ARMED from DDG_FAULTS=%s\n%!"
          (try Sys.getenv "DDG_FAULTS" with Not_found -> "")
    | Error msg -> die "DDG_FAULTS: %s" msg);
    if nodes < 1 then die "--nodes must be at least 1";
    if vnodes < 1 then die "--vnodes must be at least 1";
    if connect_timeout_ms <= 0.0 then die "--connect-timeout-ms must be > 0";
    if scrub_rate < 0.0 then die "--scrub-rate must be >= 0";
    let trace_budget =
      Option.map (fun mb -> mb * 1024 * 1024) trace_budget_mb
    in
    let base_store =
      match cache_dir with
      | Some dir -> dir
      | None -> Ddg_store.Store.default_dir ()
    in
    let members =
      Fleet.members ~nodes ~base_socket:socket ~base_store
    in
    let log prefix msg = Printf.eprintf "%s: %s\n%!" prefix msg in
    (* the supervisor forks its spawner child now, while this process
       is still single-threaded; every backend (re)spawn is a fork
       from that clean one-thread image *)
    let sup =
      Fleet.supervisor
        ~log:(log "paragraph-cluster")
        ~spawn:(fun (self : Fleet.member) ->
          Fleet.fork_backend ~vnodes ~workers:jobs ?trace_budget
            ~max_inflight ~default_deadline_s:deadline
            ?scrub_rate:(if scrub_rate > 0.0 then Some scrub_rate else None)
            ~log:
              (if verbose then log ("paragraphd-" ^ self.Fleet.node)
               else ignore)
            ~size ~members ~self ())
        ~members ()
    in
    List.iter
      (fun (m : Fleet.member) ->
        Printf.eprintf "paragraph-cluster: node %s socket %s\n%!" m.Fleet.node
          (describe_endpoint m.Fleet.endpoint);
        Fleet.supervisor_spawn sup m.Fleet.node)
      members;
    let router =
      Router.create ~vnodes ~size
        ~connect_timeout_s:(connect_timeout_ms /. 1000.0)
        ~max_connections
        ~on_retire:(Fleet.supervisor_decommissioned sup)
        ~backends:
          (List.map
             (fun (m : Fleet.member) -> (m.Fleet.node, m.Fleet.endpoint))
             members)
        ~log:(log "paragraph-cluster")
        [ `Unix socket ]
    in
    (* crashed backends respawn with backoff; a flapping one is retired
       from the ring instead of being respawned forever *)
    Fleet.supervisor_watch sup ~on_decommission:(fun node ->
        ignore (Router.decommission router ~node));
    Router.install_signal_handlers router;
    Router.run router;
    (* the router is down; the supervisor terminates and reaps the fleet *)
    Fleet.supervisor_stop sup
  in
  let socket =
    Arg.(
      value
      & opt string (Lazy.force default_cluster_socket)
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Router socket path; backend $(i,i) listens on \
             $(i,PATH).node$(i,i).")
  in
  let nodes =
    Arg.(
      value & opt int 3
      & info [ "nodes" ] ~docv:"N" ~doc:"Number of backend daemons to fork.")
  in
  let vnodes =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Virtual nodes per backend on the consistent-hash ring.")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Per-backend in-flight request cap (as $(b,serve)).")
  in
  let max_connections =
    Arg.(
      value & opt int 256
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Router connection cap.")
  in
  let deadline =
    Arg.(
      value & opt float 600.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request deadline (as $(b,serve)).")
  in
  let connect_timeout_ms =
    Arg.(
      value & opt float 1000.0
      & info [ "connect-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Router-to-backend connect timeout: health probes and relays \
             give up on an unresponsive backend after $(docv) ms.")
  in
  let scrub_rate =
    Arg.(
      value & opt float 100.0
      & info [ "scrub-rate" ] ~docv:"N"
          ~doc:
            "Anti-entropy scrub pace: each backend re-verifies its store \
             in the background at $(docv) artifacts per second, repairing \
             corruption from peers and asking the ring owner of each \
             artifact it holds for another node to pull it. 0 disables \
             scrubbing.")
  in
  let doc =
    "Run a self-healing sharded fleet: fork $(b,--nodes) backend daemons,      each with a private artifact store, and route requests to them over      a consistent-hash ring from a router on the main socket. A backend      serving a key it does not own pulls the owner's artifact into its      own store (fetch-through) instead of recomputing. The router      health-checks backends, circuit-breaks dead ones and re-routes to      ring successors; a supervisor respawns crashed backends with backoff      (decommissioning flapping ones), each backend scrubs its store in      the background, and $(b,client join)/$(b,client drain) change      membership live. $(b,client stats) aggregates and $(b,client      metrics) federates the whole fleet."
  in
  Cmd.v
    (Cmd.info "cluster" ~doc)
    Term.(
      const run $ size_arg $ verbose_arg $ jobs_arg $ cache_dir_arg
      $ trace_budget_mb_arg $ socket $ nodes $ vnodes $ max_inflight
      $ max_connections $ deadline $ connect_timeout_ms $ scrub_rate)

let client_endpoint_term =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:socket_doc)
  in
  let tcp =
    Arg.(
      value
      & opt (some tcp_conv) None
      & info [ "tcp" ] ~docv:"ADDR:PORT" ~doc:"TCP address of the daemon.")
  in
  let via_router =
    Arg.(
      value & flag
      & info [ "via-router" ]
          ~doc:
            "Talk to the cluster router's default socket (as bound by \
             $(b,paragraph cluster)) instead of the standalone daemon's. \
             An explicit $(b,--socket) or $(b,--tcp) wins.")
  in
  let make socket tcp via_router =
    match (tcp, socket) with
    | Some (a, p), _ -> `Tcp (a, p)
    | None, Some path -> `Unix path
    | None, None ->
        `Unix
          (Lazy.force
             (if via_router then default_cluster_socket else default_socket))
  in
  Term.(const make $ socket $ tcp $ via_router)

let retry_arg =
  Arg.(
    value & opt float 0.0
    & info [ "retry" ] ~docv:"SECONDS"
        ~doc:
          "Keep retrying the connection for $(docv) seconds if the daemon \
           is not (yet) listening.")

let connect_timeout_ms_arg =
  Arg.(
    value & opt float 0.0
    & info [ "connect-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Bound each connection attempt to $(docv) ms; a routable but \
           unresponsive endpoint fails with ETIMEDOUT instead of hanging \
           for the OS default (which can be minutes). 0 keeps the OS \
           default.")

let deadline_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline; past it the server answers \
           deadline_exceeded. 0 uses the server default.")

let retry_attempts_arg =
  Arg.(
    value
    & opt int Client.default_retry.Client.attempts
    & info [ "retry-attempts" ] ~docv:"N"
        ~doc:
          "Total attempts per request, including the first. Idempotent \
           verbs are replayed with backoff after a Busy refusal, a worker \
           crash or a lost connection; 1 disables replay.")

let retry_base_ms_arg =
  Arg.(
    value
    & opt float (1000.0 *. Client.default_retry.Client.base_delay_s)
    & info [ "retry-base-ms" ] ~docv:"MS"
        ~doc:
          "First backoff sleep before a replay; later sleeps use \
           decorrelated jitter up to a fixed ceiling.")

let retry_policy_term =
  let make attempts base_ms =
    if attempts < 1 then die "--retry-attempts must be at least 1";
    if base_ms < 0.0 then die "--retry-base-ms must be non-negative";
    { Client.default_retry with
      Client.attempts;
      base_delay_s = base_ms /. 1000.0 }
  in
  Term.(const make $ retry_attempts_arg $ retry_base_ms_arg)

let client_request endpoint retry connect_timeout_ms policy deadline_ms req
    handle =
  if connect_timeout_ms < 0.0 then die "--connect-timeout-ms must be >= 0";
  try
    Client.with_session ~retry:policy ~retry_for_s:retry
      ~connect_timeout_s:(connect_timeout_ms /. 1000.0) endpoint (fun s ->
        handle (Client.call ~deadline_ms s req))
  with
  | Client.Server_error { code; message } ->
      prerr_endline
        (Printf.sprintf "paragraph: server error (%s): %s"
           (Protocol.error_code_name code) message);
      exit 3
  | Protocol.Error msg -> die "protocol error: %s" msg
  | End_of_file -> die "server closed the connection"
  | Unix.Unix_error (e, _, _) ->
      die "cannot reach daemon at %s: %s" (describe_endpoint endpoint)
        (Unix.error_message e)

let unexpected_response () = die "unexpected response kind from server"

let client_ping_cmd =
  let run endpoint retry connect_timeout policy deadline_ms delay_ms =
    let t0 = Unix.gettimeofday () in
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Ping { delay_ms })
      (function
      | Protocol.Pong ->
          Format.printf "pong (%.1f ms)@."
            (1000.0 *. (Unix.gettimeofday () -. t0))
      | _ -> unexpected_response ())
  in
  let delay_ms =
    Arg.(
      value & opt int 0
      & info [ "delay-ms" ] ~docv:"MS"
          ~doc:"Hold a server worker slot for $(docv) ms before answering.")
  in
  Cmd.v
    (Cmd.info "ping" ~doc:"Round-trip liveness probe.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ delay_ms)

let client_analyze_cmd =
  let run endpoint retry connect_timeout policy deadline_ms workload config
      json =
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Analyze { workload; config })
      (function
      | Protocol.Analyzed stats ->
          if json then
            print_endline
              (Ddg_report.Json.to_string (stats_to_json workload config stats))
          else begin
            Format.printf "workload: %s@." workload;
            Format.printf "switches: %s@." (Config.describe config);
            Format.printf "%a@." Analyzer.pp_stats stats
          end
      | _ -> unexpected_response ())
  in
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Analyze a workload on the daemon (served from its warm caches      when possible). Same switches and output as the local $(b,analyze).")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ workload $ config_term $ json)

let client_advise_cmd =
  let run endpoint retry connect_timeout policy deadline_ms workload config
      json =
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Advise { workload; config })
      (function
      | Protocol.Advised advice ->
          if json then
            print_endline
              (Ddg_report.Json.to_string
                 (advise_to_json workload config advice))
          else print_string (render_advise workload config advice)
      | _ -> unexpected_response ())
  in
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:
         "Run the parallelization advisor on the daemon (served from its      warm caches when possible). Same output as the local $(b,advise);      the report is bit-identical wherever it is computed.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ workload $ config_term $ json)

let client_simulate_cmd =
  let run endpoint retry connect_timeout policy deadline_ms workload =
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Simulate { workload })
      (function
      | Protocol.Simulated s ->
          Format.printf
            "%s: %d instructions, %d syscalls, output %d bytes, %d words \
             touched, %d trace events@."
            workload s.Protocol.instructions s.syscalls s.output_bytes
            s.memory_footprint s.trace_events
      | _ -> unexpected_response ())
  in
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Ensure a workload's trace is resident on the daemon.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ workload)

let client_table_cmd =
  let run endpoint retry connect_timeout policy deadline_ms name =
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Table { name })
      (function
      | Protocol.Rendered text -> print_string text
      | _ -> unexpected_response ())
  in
  let name_arg =
    let doc =
      Printf.sprintf "One of: %s." (String.concat ", " Server.table_names)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Render a paper table or figure on the daemon.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ name_arg)

let client_stats_cmd =
  let run endpoint retry connect_timeout policy json =
    client_request endpoint retry connect_timeout policy 0
      Protocol.Server_stats (function
      | Protocol.Telemetry c ->
          if json then
            print_endline
              (Ddg_report.Json.to_string
                 (Ddg_report.Json.Obj
                    [ ("uptime_s", Float c.Protocol.uptime_s);
                      ("connections", Int c.connections);
                      ("requests_total", Int c.requests_total);
                      ("requests_ok", Int c.requests_ok);
                      ("requests_error", Int c.requests_error);
                      ("busy_rejections", Int c.busy_rejections);
                      ("deadline_expirations", Int c.deadline_expirations);
                      ("latency_total_s", Float c.latency_total_s);
                      ("latency_max_s", Float c.latency_max_s);
                      ( "by_verb",
                        Obj
                          (List.map
                             (fun (verb, n) ->
                               (verb, Ddg_report.Json.Int n))
                             c.by_verb) );
                      ("simulations", Int c.simulations);
                      ("analyses", Int c.analyses);
                      ("trace_store_hits", Int c.trace_store_hits);
                      ("stats_store_hits", Int c.stats_store_hits);
                      ("trace_mem_hits", Int c.trace_mem_hits);
                      ("trace_evictions", Int c.trace_evictions);
                      ("trace_resident_bytes", Int c.trace_resident_bytes);
                      ("retries_served", Int c.retries_served);
                      ("worker_respawns", Int c.worker_respawns);
                      ("artifact_quarantines", Int c.artifact_quarantines);
                      ("injected_faults", Int c.injected_faults);
                      ("remote_fetches", Int c.remote_fetches) ]))
          else begin
            Format.printf "uptime: %.1fs, connections: %d@."
              c.Protocol.uptime_s c.connections;
            Format.printf
              "requests: %d total, %d ok, %d error (%d busy, %d deadline)@."
              c.requests_total c.requests_ok c.requests_error
              c.busy_rejections c.deadline_expirations;
            Format.printf "latency: %.1f ms mean, %.1f ms max@."
              (if c.requests_total = 0 then 0.0
               else 1000.0 *. c.latency_total_s /. float_of_int c.requests_total)
              (1000.0 *. c.latency_max_s);
            List.iter
              (fun (verb, n) -> Format.printf "  %-10s %d@." verb n)
              c.by_verb;
            Format.printf
              "work: %d simulations, %d analyses@." c.simulations c.analyses;
            Format.printf
              "caches: %d trace mem hits, %d trace store hits, %d stats \
               store hits@."
              c.trace_mem_hits c.trace_store_hits c.stats_store_hits;
            Format.printf "traces resident: %d bytes, %d evictions@."
              c.trace_resident_bytes c.trace_evictions;
            Format.printf
              "resilience: %d retries served, %d worker respawns, %d \
               artifacts quarantined, %d faults injected@."
              c.retries_served c.worker_respawns c.artifact_quarantines
              c.injected_faults;
            if c.remote_fetches > 0 then
              Format.printf "cluster: %d artifacts fetched from peers@."
                c.remote_fetches
          end
      | _ -> unexpected_response ())
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print the daemon's observability counters.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ json)

let client_metrics_cmd =
  let snapshot_to_json (s : Obs.snapshot) =
    let open Ddg_report.Json in
    let labels ls = Obj (List.map (fun (k, v) -> (k, String v)) ls) in
    Obj
      [ ( "counters",
          List
            (List.map
               (fun (c : Obs.counter_snapshot) ->
                 Obj
                   [ ("name", String c.cs_name);
                     ("labels", labels c.cs_labels);
                     ("value", Int c.cs_value) ])
               s.counters) );
        ( "histograms",
          List
            (List.map
               (fun (h : Obs.hist_snapshot) ->
                 Obj
                   [ ("name", String h.hs_name);
                     ("labels", labels h.hs_labels);
                     ("count", Int h.hs_count);
                     ("sum", Int h.hs_sum);
                     ("min", Int h.hs_min);
                     ("max", Int h.hs_max);
                     ("mean", Float (Obs.hist_mean h));
                     ("p50", Int (Obs.quantile h 0.5));
                     ("p99", Int (Obs.quantile h 0.99)) ])
               s.histograms) ) ]
  in
  let run endpoint retry connect_timeout policy prom =
    client_request endpoint retry connect_timeout policy 0 Protocol.Metrics
      (function
      | Protocol.Metrics_snapshot s ->
          if prom then begin
            let text = Obs.prometheus_of_snapshot s in
            (* self-check: never emit exposition text a scraper's parser
               would choke on *)
            (match Obs.validate_exposition text with
            | Ok () -> ()
            | Error msg -> die "invalid Prometheus exposition: %s" msg);
            print_string text
          end
          else print_endline (Ddg_report.Json.to_string (snapshot_to_json s))
      | _ -> unexpected_response ())
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:
            "Emit Prometheus text exposition format (version 0.0.4) instead \
             of JSON.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump the daemon's full metric registry (every counter and latency \
          histogram) as JSON, or as Prometheus text with $(b,--prom).")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ prom)

let client_fsck_cmd =
  let run endpoint retry connect_timeout policy deadline_ms =
    client_request endpoint retry connect_timeout policy deadline_ms
      Protocol.Fsck (function
      | Protocol.Fsck_report r ->
          Format.printf
            "scanned %d artifacts: %d valid, %d quarantined, %d missing, \
             %d temps swept@."
            r.Protocol.scanned r.valid r.quarantined r.missing r.swept_temps;
          if r.quarantined > 0 || r.missing > 0 then exit 1
      | _ -> unexpected_response ())
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Run an artifact-store integrity check on the daemon (same scan      as the local $(b,paragraph fsck)). Exits 1 if anything was      quarantined or missing.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg)

let client_locate_cmd =
  let run endpoint retry connect_timeout policy deadline_ms key =
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Locate { key })
      (function
      | Protocol.Located { node } -> print_endline node
      | _ -> unexpected_response ())
  in
  let key =
    let doc =
      "A routing key ($(i,workload/size), e.g. mtxx/default) or a full \
       artifact-store key; only its first two components route."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KEY" ~doc)
  in
  Cmd.v
    (Cmd.info "locate"
       ~doc:
         "Print which cluster node owns a key on the consistent-hash ring. \
          Works against the router or any cluster member; a standalone \
          daemon answers with an error.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ key)

let print_members members =
  if members = [] then print_endline "(empty fleet)"
  else
    List.iter
      (fun (node, endpoint) -> Printf.printf "%s %s\n" node endpoint)
      members

let client_join_cmd =
  let run endpoint retry connect_timeout policy deadline_ms node
      backend_endpoint =
    (match Server.endpoint_of_string backend_endpoint with
    | Some _ -> ()
    | None ->
        die "bad endpoint %S (want unix:<path> or tcp:<addr>:<port>)"
          backend_endpoint);
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Join { node; endpoint = backend_endpoint })
      (function
      | Protocol.Members { members } -> print_members members
      | _ -> unexpected_response ())
  in
  let node =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NODE" ~doc:"Ring node id for the joining backend.")
  in
  let backend_endpoint =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"ENDPOINT"
          ~doc:
            "The joining backend's endpoint: $(i,unix:PATH) or \
             $(i,tcp:ADDR:PORT). The daemon must already be listening \
             there.")
  in
  Cmd.v
    (Cmd.info "join"
       ~doc:
         "Add a running backend daemon to the cluster ring. The router \
          swaps the ring atomically and broadcasts the new membership; \
          keys move only to the joiner, which copies nothing up front: it \
          computes the keys it now owns until the scrubs of their old \
          holders ask it to pull them. Prints the membership now in force.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ node $ backend_endpoint)

let client_drain_cmd =
  let run endpoint retry connect_timeout policy deadline_ms node =
    client_request endpoint retry connect_timeout policy deadline_ms
      (Protocol.Decommission { node })
      (function
      | Protocol.Members { members } -> print_members members
      | _ -> unexpected_response ())
  in
  let node =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NODE" ~doc:"Ring node id of the backend to retire.")
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:
         "Decommission a cluster backend: the router has each of its \
          artifacts pulled by its new ring owner (streamed, \
          digest-checked), swaps the ring, broadcasts the new membership, \
          and tells the node to drain and exit. Prints the membership now \
          in force.")
    Term.(
      const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg
      $ retry_policy_term $ deadline_ms_arg $ node)

let client_shutdown_cmd =
  let run endpoint retry connect_timeout =
    if connect_timeout < 0.0 then die "--connect-timeout-ms must be >= 0";
    (* shutdown is the one non-idempotent verb: no replay layer *)
    try
      Client.with_connection ~retry_for_s:retry
        ~connect_timeout_s:(connect_timeout /. 1000.0) endpoint (fun c ->
          match Client.request c Protocol.Shutdown with
          | Protocol.Shutting_down_ack -> print_endline "daemon shutting down"
          | _ -> unexpected_response ())
    with
    | Client.Server_error { code; message } ->
        prerr_endline
          (Printf.sprintf "paragraph: server error (%s): %s"
             (Protocol.error_code_name code) message);
        exit 3
    | Protocol.Error msg -> die "protocol error: %s" msg
    | End_of_file -> die "server closed the connection"
    | Unix.Unix_error (e, _, _) ->
        die "cannot reach daemon at %s: %s" (describe_endpoint endpoint)
          (Unix.error_message e)
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to drain and exit.")
    Term.(const run $ client_endpoint_term $ retry_arg $ connect_timeout_ms_arg)

let client_cmd =
  let doc = "Talk to a running $(b,paragraph serve) daemon." in
  Cmd.group (Cmd.info "client" ~doc)
    [ client_ping_cmd;
      client_analyze_cmd;
      client_advise_cmd;
      client_simulate_cmd;
      client_table_cmd;
      client_stats_cmd;
      client_metrics_cmd;
      client_fsck_cmd;
      client_locate_cmd;
      client_join_cmd;
      client_drain_cmd;
      client_shutdown_cmd ]

let main =
  let doc =
    "Dynamic dependency graph analysis of ordinary programs (Austin & \
     Sohi, ISCA 1992)"
  in
  Cmd.group (Cmd.info "paragraph" ~version:Ddg_version.Version.current ~doc)
    [ analyze_cmd;
      advise_cmd;
      profile_cmd;
      ddg_cmd;
      run_cmd;
      chain_cmd;
      sharing_cmd;
      disasm_cmd;
      trace_cmd;
      workloads_cmd;
      paper_cmd "table2" "Regenerate Table 2 (benchmark inventory)."
        Ddg_experiments.Table2.render;
      paper_cmd "table3" "Regenerate Table 3 (dataflow results)."
        Ddg_experiments.Table3.render;
      paper_cmd "table4" "Regenerate Table 4 (renaming conditions)."
        Ddg_experiments.Table4.render;
      paper_cmd "fig7" "Regenerate Figure 7 (parallelism profiles)."
        Ddg_experiments.Fig7.render;
      paper_cmd "fig8" "Regenerate Figure 8 (window size vs parallelism)."
        Ddg_experiments.Fig8.render;
      fig7_csv_cmd;
      fig8_csv_cmd;
      fsck_cmd;
      serve_cmd;
      cluster_cmd;
      client_cmd ]

let () = exit (Cmd.eval main)
