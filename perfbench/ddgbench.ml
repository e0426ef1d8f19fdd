(* ddgbench: the in-process half of the benchmark. [run.py] builds this
   executable, starts daemons and fleets as child processes, and calls
   one subcommand per step; each subcommand prints JSON objects, one per
   line, on stdout and nothing else there.

   Every layer is reached through its public functions only (Runner,
   Workload, Machine, Store, Trace_io, Analyzer, Stats_codec, Jobs,
   Client, Route); spans are recorded here, around those calls, and
   never inside the library.

   Subcommands:
     suite        one cold Runner.prefetch pass of the renaming sweep
     suite-replay the same job graph replayed layer by layer, with spans
     warm         served-sweep set-up: one Simulate per workload
     sweep        served-sweep timed phase (closed loop, one client)
     hot-warm     routed-hot set-up: one Analyze per key, answers saved
     hot          routed-hot timed phase (closed loop, one client) *)

module W = Ddg_workloads.Workload
module Registry = Ddg_workloads.Registry
module Config = Ddg_paragraph.Config
module Analyzer = Ddg_paragraph.Analyzer
module Stats_codec = Ddg_paragraph.Stats_codec
module Store = Ddg_store.Store
module Trace = Ddg_sim.Trace
module Trace_io = Ddg_sim.Trace_io
module Machine = Ddg_sim.Machine
module Runner = Ddg_experiments.Runner
module Jobs = Ddg_jobs.Engine
module Client = Ddg_server.Client
module Protocol = Ddg_protocol.Protocol
module Route = Ddg_cluster.Route
module Obs = Ddg_obs.Obs

let size = W.Default
let now = Unix.gettimeofday

(* --- JSON lines ------------------------------------------------------------ *)

type json =
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let rec emit b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        l;
      Buffer.add_char b ']'
  | Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (Str k);
          Buffer.add_char b ':';
          emit b v)
        kv;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  emit b j;
  print_string (Buffer.contents b);
  print_newline ()

let floats l = List (List.map (fun f -> Float f) l)
let pairs l = Obj (List.map (fun (k, v) -> (k, Float v)) l)

(* --- spans ----------------------------------------------------------------- *)

(* Spans stay in memory (name, request id or -1, start, stop) and are
   written out as JSON lines when the subcommand ends. *)
let spans_lock = Mutex.create ()
let spans : (string * int * float * float) list ref = ref []

let span ?(req = -1) name f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  Mutex.protect spans_lock (fun () -> spans := (name, req, t0, t1) :: !spans);
  r

let span_durations name =
  List.filter_map
    (fun (n, _, t0, t1) -> if n = name then Some (t1 -. t0) else None)
    !spans

let span_total name = List.fold_left ( +. ) 0. (span_durations name)

let span_mean name =
  match span_durations name with
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let write_spans = function
  | None -> ()
  | Some path ->
      let oc = open_out path in
      List.iter
        (fun (n, req, t0, t1) ->
          let b = Buffer.create 128 in
          emit b
            (Obj
               [ ("name", Str n); ("req", Int req); ("start", Float t0);
                 ("stop", Float t1) ]);
          Buffer.add_char b '\n';
          output_string oc (Buffer.contents b))
        (List.rev !spans);
      close_out oc

(* --- shared helpers -------------------------------------------------------- *)

let vmhwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let workload name =
  match Registry.find name with
  | Some w -> w
  | None -> failwith ("unknown workload " ^ name)

let halted (r : Machine.result) (w : W.t) =
  r.stop = Machine.Halted
  && match w.self_check size with None -> true | Some out -> out = r.output

let encode = Stats_codec.to_string

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [--key value] and [--flag] arguments *)
let args = Array.to_list Sys.argv

let arg name =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let arg_req name =
  match arg name with Some v -> v | None -> failwith ("missing --" ^ name)

let flag name = List.mem ("--" ^ name) args
let int_arg name = int_of_string (arg_req name)
let float_arg name = float_of_string (arg_req name)

(* Daemon work counters, read through the [metrics] verb (federated over
   the whole fleet when asked of a router). *)
type counts = {
  sims : int;
  analyses : int;
  evictions : int;
  trace_mem : int;
  trace_store : int;
  stats_mem : int;
  stats_store : int;
}

let counts_of_snapshot (s : Obs.snapshot) =
  let hist name =
    List.fold_left
      (fun acc (h : Obs.hist_snapshot) ->
        if h.hs_name = name then acc + h.hs_count else acc)
      0 s.histograms
  in
  let counter ?cache name =
    List.fold_left
      (fun acc (c : Obs.counter_snapshot) ->
        let labelled =
          match cache with
          | None -> true
          | Some l -> List.mem ("cache", l) c.cs_labels
        in
        if c.cs_name = name && labelled then acc + c.cs_value else acc)
      0 s.counters
  in
  let hits cache = counter ~cache "ddg_runner_cache_hits_total" in
  { sims = hist "ddg_runner_simulate_ns";
    analyses = hist "ddg_runner_analyze_ns";
    evictions = counter "ddg_runner_trace_evictions_total";
    trace_mem = hits "trace_mem"; trace_store = hits "trace_store";
    stats_mem = hits "stats_mem"; stats_store = hits "stats_store" }

let fetch_counts c =
  match Client.request c Protocol.Metrics with
  | Protocol.Metrics_snapshot s -> counts_of_snapshot s
  | _ -> failwith "metrics: unexpected response"

let counts_json c =
  Obj
    [ ("simulations", Int c.sims); ("analyses", Int c.analyses);
      ("trace_evictions", Int c.evictions);
      ("trace_mem_hits", Int c.trace_mem);
      ("trace_store_hits", Int c.trace_store);
      ("stats_mem_hits", Int c.stats_mem);
      ("stats_store_hits", Int c.stats_store) ]

let diff a b =
  { sims = b.sims - a.sims; analyses = b.analyses - a.analyses;
    evictions = b.evictions - a.evictions;
    trace_mem = b.trace_mem - a.trace_mem;
    trace_store = b.trace_store - a.trace_store;
    stats_mem = b.stats_mem - a.stats_mem;
    stats_store = b.stats_store - a.stats_store }

let connect socket = Client.connect ~retry_for_s:60. (`Unix socket)

(* One analyze request: [Ok stats], or [Error name] for a typed refusal
   or a lost connection (the caller then reconnects). *)
let analyze_request c (w : W.t) config =
  match Client.request c (Protocol.Analyze { workload = w.name; config }) with
  | Protocol.Analyzed s -> Ok s
  | _ -> Error "unexpected_response"
  | exception Client.Server_error e ->
      Error (Protocol.error_code_name e.Protocol.code)
  | exception (End_of_file | Unix.Unix_error _ | Protocol.Error _) ->
      Error "connection_lost"

let count_errors errors =
  Obj
    (List.map
       (fun e -> (e, Int (List.length (List.filter (( = ) e) errors))))
       (List.sort_uniq compare errors))

(* --- the in-process layer chain -------------------------------------------- *)

(* One request to check in process: id, workload, config family, config,
   and the encoded answer the daemon gave. *)
type item = {
  id : int;
  w : W.t;
  family : string;
  config : Config.t;
  served : string;
}

let families = [ "window"; "fu"; "branch"; "renaming" ]

(* Replay in process the chain a daemon runs for these requests. With
   [traced], each call is a span: compile, simulate, trace put, store
   find_view, map + structural validation, single-config analysis,
   encode, stats put, decode. Without, only compile, simulate and
   analyze run, as the reference of the correctness gate. Returns the
   ids whose served bytes differ from the in-process answer, and the
   per-layer numbers of a traced replay. *)
let replay ~traced ~store_dir items =
  let sp ?req name f = if traced then span ?req name f else f () in
  let store = Store.open_ ~dir:store_dir () in
  let order =
    List.rev
      (List.fold_left
         (fun acc it -> if List.memq it.w acc then acc else it.w :: acc)
         [] items)
  in
  let events = ref 0 and bytes_written = ref 0 and mismatches = ref [] in
  let analyzed = Hashtbl.create 8 in
  List.iter
    (fun (w : W.t) ->
      let prog = sp "minic.compile" (fun () -> W.program w size) in
      let result, tr = sp "sim.simulate" (fun () -> Machine.run_to_trace prog) in
      if not (halted result w) then failwith (w.name ^ ": bad simulation");
      events := !events + Trace.length tr;
      let key = "perfbench/" ^ w.name in
      if traced then begin
        sp "store.trace_put" (fun () ->
            Store.put store ~kind:"trace" ~key (fun oc ->
                Trace_io.write_channel_flat oc tr));
        bytes_written :=
          !bytes_written
          + (Unix.stat (Store.artifact_path store ~kind:"trace" ~key)).st_size
      end;
      List.iter
        (fun it ->
          if it.w == w then begin
            let req = it.id in
            let tr =
              if not traced then tr
              else
                let v =
                  sp ~req "store.find_view" (fun () ->
                      Store.find_view ~verify:false store ~kind:"trace" ~key)
                in
                let v = Option.get v in
                sp ~req "trace_io.map_validate" (fun () ->
                    Trace_io.map_file ~verify:false ~pos:v.Store.view_pos
                      v.Store.view_path)
            in
            let s =
              sp ~req ("paragraph.analyze." ^ it.family) (fun () ->
                  Analyzer.analyze it.config tr)
            in
            Hashtbl.replace analyzed it.family
              (Trace.length tr
              + Option.value ~default:0 (Hashtbl.find_opt analyzed it.family));
            let enc = sp ~req "stats_codec.encode" (fun () -> encode s) in
            if traced then begin
              sp ~req "store.stats_put" (fun () ->
                  Store.put store ~kind:"stats"
                    ~key:(Printf.sprintf "%s/%d" key req)
                    (fun oc -> output_string oc enc));
              ignore
                (sp ~req "stats_codec.decode" (fun () ->
                     Stats_codec.of_string enc))
            end;
            if enc <> it.served then mismatches := it.id :: !mismatches
          end)
        items)
    order;
  let layers =
    let mb = float_of_int !bytes_written /. 1048576. in
    let put_s = span_total "store.trace_put" in
    let sim_s = span_total "sim.simulate" in
    let per_family f =
      (Hashtbl.find analyzed f, span_total ("paragraph.analyze." ^ f))
    in
    let present = List.filter (Hashtbl.mem analyzed) ("base" :: families) in
    let n, s =
      List.fold_left
        (fun (n, s) f ->
          let n', s' = per_family f in
          (n + n', s +. s'))
        (0, 0.) present
    in
    [ ("minic.compile_ms", span_mean "minic.compile" *. 1000.);
      ("sim.simulate_s", sim_s);
      ("sim.events_per_s", float_of_int !events /. sim_s);
      ("store.trace_put_s", put_s);
      ("store.trace_put_mb_per_s", mb /. put_s);
      ("store.bytes_written_mb", mb);
      ("store.find_view_ms", span_mean "store.find_view" *. 1000.);
      ("trace_io.map_validate_ms", span_mean "trace_io.map_validate" *. 1000.);
      ("store.stats_put_ms", span_mean "store.stats_put" *. 1000.);
      ("stats_codec.encode_ms", span_mean "stats_codec.encode" *. 1000.);
      ("stats_codec.decode_ms", span_mean "stats_codec.decode" *. 1000.);
      ( "stats_codec.bytes",
        float_of_int
          (List.fold_left (fun a it -> a + String.length it.served) 0 items)
        /. float_of_int (max 1 (List.length items)) );
      ("paragraph.analyze_ms", s *. 1000. /. float_of_int (max 1 (List.length items)));
      ("paragraph.events_per_s", float_of_int n /. s) ]
    @ List.filter_map
        (fun f ->
          if Hashtbl.mem analyzed f then
            let n, s = per_family f in
            Some ("paragraph.single_events_per_s." ^ f, float_of_int n /. s)
          else None)
        families
  in
  (List.rev !mismatches, layers)

(* --- suite-batch ----------------------------------------------------------- *)

(* The paper's renaming sweep, fused per workload: the set the table
   suite regenerates (bench/main.ml [fused_configs]). *)
let fused_configs =
  let open Config in
  [ default; dataflow; with_renaming rename_none default;
    with_renaming rename_registers_only default;
    with_renaming rename_registers_stack default;
    with_syscall_stall false (with_renaming rename_none default) ]

let suite_jobs () =
  List.concat_map
    (fun w -> List.map (fun c -> (w, c)) fused_configs)
    Registry.all

let digest encs = Digest.to_hex (Digest.string (String.concat "" encs))

(* One cold pass in a fresh process: print "ready" once the runner and
   its empty store exist (and stop there with [--setup-only]), run the
   sweep, then check it. *)
let cmd_suite () =
  let store = Store.open_ ~dir:(arg_req "store") () in
  let workers = int_arg "workers" in
  let runner = Runner.create ~size ~store ~workers () in
  let jobs = suite_jobs () in
  print_json (Obj [ ("event", Str "ready") ]);
  if not (flag "setup-only") then begin
    let t0 = now () in
    Runner.prefetch runner jobs;
    let pass_s = now () -. t0 in
    let rss = vmhwm_kb () in
    let c0 = Runner.counters runner in
    let problems = ref [] in
    let problem s = problems := s :: !problems in
    let results =
      List.map (fun (w, c) -> (w, c, Runner.analyze runner w c)) jobs
    in
    let c1 = Runner.counters runner in
    let recomputed =
      c1.analyses - c0.analyses + (c1.stats_store_hits - c0.stats_store_hits)
    in
    if recomputed <> 0 then problem "a prefetched job was not in memory";
    if c0.simulations <> List.length Registry.all then
      problem (Printf.sprintf "%d simulations" c0.simulations);
    if c0.analyses <> List.length jobs then
      problem (Printf.sprintf "%d analyses" c0.analyses);
    List.iter
      (fun w ->
        let r, _ = Runner.trace runner w in
        if not (halted r w) then problem (w.W.name ^ ": bad simulation"))
      Registry.all;
    (* two seed-chosen fused results against the single-config kernel *)
    let rng = Random.State.make [| int_arg "seed" |] in
    let arr = Array.of_list results in
    for _ = 1 to 2 do
      let w, c, fused = arr.(Random.State.int rng (Array.length arr)) in
      let _, tr = Runner.trace runner w in
      if encode (Analyzer.analyze c tr) <> encode fused then
        problem (w.W.name ^ ": fused and single-config stats differ")
    done;
    print_json
      (Obj
         [ ("event", Str "pass"); ("pass_s", Float pass_s);
           ("jobs", Int (List.length jobs)); ("vmhwm_kb", Int rss);
           ("problems", List (List.map (fun s -> Str s) !problems));
           ( "digest",
             Str (digest (List.map (fun (_, _, s) -> encode s) results)) );
           ("simulations", Int c0.simulations); ("analyses", Int c0.analyses);
           ("trace_evictions", Int c0.trace_evictions);
           ("stats_mem_hits", Int (List.length jobs - recomputed));
           ("stats_lookups", Int (List.length jobs));
           ("trace_mem_hits", Int c0.trace_mem_hits);
           ( "trace_lookups",
             Int (c0.trace_mem_hits + c0.trace_store_hits + c0.simulations) )
         ])
  end

(* The suite's job graph rebuilt on the public engine, each layer call a
   span: per workload, one job compiles, simulates and puts the trace,
   and a dependent job runs the fused analysis, encodes and puts the
   stats — the graph Runner.prefetch builds. Σ job time / (wall ×
   workers) is the engine's busy ratio. *)
let cmd_suite_replay () =
  let store = Store.open_ ~dir:(arg_req "store") () in
  let workers = int_arg "workers" in
  let max_domains =
    if workers <= 1 then None
    else Some (max 1 (Domain.recommended_domain_count () / workers))
  in
  let engine = Jobs.create () in
  let traces = Hashtbl.create 16 and encs = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let events = ref 0 and bytes_written = ref 0 in
  List.iter
    (fun (w : W.t) ->
      let key = "perfbench/" ^ w.name in
      let sim =
        Jobs.add engine ~name:("simulate " ^ w.name) (fun () ->
            span "jobs.job" (fun () ->
                let prog = span "minic.compile" (fun () -> W.program w size) in
                let result, tr =
                  span "sim.simulate" (fun () -> Machine.run_to_trace prog)
                in
                if not (halted result w) then
                  failwith (w.name ^ ": bad simulation");
                span "store.trace_put" (fun () ->
                    Store.put store ~kind:"trace" ~key (fun oc ->
                        Trace_io.write_channel_flat oc tr));
                let bytes =
                  (Unix.stat (Store.artifact_path store ~kind:"trace" ~key))
                    .st_size
                in
                Mutex.protect lock (fun () ->
                    events := !events + Trace.length tr;
                    bytes_written := !bytes_written + bytes;
                    Hashtbl.replace traces w.name tr)))
      in
      ignore
        (Jobs.add engine ~deps:[ sim ] ~name:("analyze " ^ w.name) (fun () ->
             span "jobs.job" (fun () ->
                 let tr =
                   Mutex.protect lock (fun () -> Hashtbl.find traces w.name)
                 in
                 let stats =
                   span "paragraph.fused" (fun () ->
                       Analyzer.analyze_many ?max_domains fused_configs tr)
                 in
                 let es =
                   List.mapi
                     (fun i s ->
                       let enc =
                         span "stats_codec.encode" (fun () -> encode s)
                       in
                       span "store.stats_put" (fun () ->
                           Store.put store ~kind:"stats"
                             ~key:(Printf.sprintf "%s/%d" key i)
                             (fun oc -> output_string oc enc));
                       enc)
                     stats
                 in
                 Mutex.protect lock (fun () ->
                     Hashtbl.remove traces w.name;
                     Hashtbl.replace encs w.name es)))))
    Registry.all;
  let t0 = now () in
  Jobs.run ~workers engine;
  let wall = now () -. t0 in
  let all_encs =
    List.concat_map (fun w -> Hashtbl.find encs w.W.name) Registry.all
  in
  (* decoding is off the cold path (a warm re-render reads stats back),
     so it is timed after the wall clock stops *)
  List.iter
    (fun e ->
      ignore (span "stats_codec.decode" (fun () -> Stats_codec.of_string e)))
    all_encs;
  let chain =
    [ "minic.compile"; "sim.simulate"; "store.trace_put"; "paragraph.fused";
      "stats_codec.encode"; "store.stats_put" ]
  in
  let layer_s = List.fold_left (fun acc n -> acc +. span_total n) 0. chain in
  let mb = float_of_int !bytes_written /. 1048576. in
  let fused_s = span_total "paragraph.fused" in
  let sim_s = span_total "sim.simulate" in
  let put_s = span_total "store.trace_put" in
  print_json
    (Obj
       [ ("event", Str "replay"); ("wall_s", Float wall);
         ("workers", Int workers); ("digest", Str (digest all_encs));
         ("busy_s", Float (span_total "jobs.job"));
         ("worker_s", Float (wall *. float_of_int workers));
         ("layer_s", Float layer_s);
         ( "layers",
           pairs
             [ ("minic.compile_ms", span_mean "minic.compile" *. 1000.);
               ("sim.simulate_s", sim_s);
               ("sim.events_per_s", float_of_int !events /. sim_s);
               ("store.trace_put_s", put_s);
               ("store.trace_put_mb_per_s", mb /. put_s);
               ("store.bytes_written_mb", mb);
               ("store.stats_put_ms", span_mean "store.stats_put" *. 1000.);
               ("stats_codec.encode_ms", span_mean "stats_codec.encode" *. 1000.);
               ("stats_codec.decode_ms", span_mean "stats_codec.decode" *. 1000.);
               ( "stats_codec.bytes",
                 float_of_int
                   (List.fold_left (fun a e -> a + String.length e) 0 all_encs)
                 /. float_of_int (List.length all_encs) );
               ("paragraph.fused_events_per_s", float_of_int !events /. fused_s);
               ( "paragraph.events_per_s",
                 float_of_int (!events * List.length fused_configs) /. fused_s ) ]
         ) ]);
  write_spans (arg "spans")

(* --- served-sweep ---------------------------------------------------------- *)

let cmd_warm () =
  let c = connect (arg_req "socket") in
  List.iter
    (fun (w : W.t) ->
      match Client.request c (Protocol.Simulate { workload = w.name }) with
      | Protocol.Simulated s when s.Protocol.trace_events > 0 -> ()
      | _ -> failwith ("simulate " ^ w.name))
    Registry.all;
  Client.close c;
  print_json (Obj [ ("event", Str "warmed") ])

(* A config of the given family with seed-drawn parameters. FU limits
   are total limits only: a per-class limit under a total (fpx with
   total=159, int=118 takes 12-46 s against 0.2 s for either limit
   alone) would turn one request into most of a run. *)
let draw_config rng family =
  let base =
    Config.with_syscall_stall (Random.State.bool rng) Config.default
  in
  match family with
  | "window" -> Config.with_window (Some (8 + Random.State.int rng 4089)) base
  | "fu" ->
      Config.with_fu
        { Config.unlimited_fu with total = Some (64 + Random.State.int rng 193) }
        base
  | "branch" ->
      Config.with_branch
        (match Random.State.int rng 3 with
        | 0 -> Config.Predict_taken
        | 1 -> Config.Predict_not_taken
        | _ -> Config.Two_bit (4 + Random.State.int rng 9))
        base
  | _ ->
      (* every renaming combination but "rename all", the default *)
      let k = Random.State.int rng 7 in
      Config.with_renaming
        { Config.registers = k land 1 <> 0; stack = k land 2 <> 0;
          data = k land 4 <> 0 }
        base

(* The request plan: whole rounds of one request per (workload, family)
   class in seed-shuffled order, so every run sees the same class mix; no
   (workload, config) pair repeats. Planning stops at the first round
   that cannot be completed without a repeat (the renaming family has
   14 distinct configs per workload). *)
let round_length = List.length Registry.all * List.length families

let sweep_plan seed ~phase =
  let rng = Random.State.make [| seed; phase |] in
  let seen = Hashtbl.create 1024 in
  let rec draw (w : W.t) f tries =
    let c = draw_config rng f in
    let k = (w.name, Config.describe c) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      Some (w, f, c)
    end
    else if tries > 0 then draw w f (tries - 1)
    else None
  in
  let rec rounds acc =
    let slots =
      Array.of_list
        (List.concat_map
           (fun w -> List.map (fun f -> (w, f)) families)
           Registry.all)
    in
    shuffle rng slots;
    let round = Array.map (fun (w, f) -> draw w f 50) slots in
    if Array.for_all Option.is_some round then
      rounds (Array.map Option.get round :: acc)
    else Array.concat (List.rev acc)
  in
  rounds []

let sweep_classes =
  List.concat_map
    (fun (w : W.t) -> List.map (fun f -> w.name ^ "/" ^ f) families)
    Registry.all

let cmd_sweep () =
  let socket = arg_req "socket" and seed = int_arg "seed" in
  let seconds = float_arg "seconds" and traced = flag "trace" in
  let plan = sweep_plan seed ~phase:(int_arg "phase") in
  let c = ref (connect socket) in
  let before = fetch_counts !c in
  let served = ref [] and errors = ref [] and attempted = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  (* the timed phase ends with the first whole round past the deadline *)
  while
    (now () < deadline || !attempted mod round_length <> 0)
    && !attempted < Array.length plan
  do
    let i = !attempted in
    let w, f, config = plan.(i) in
    incr attempted;
    let t0 = now () in
    match analyze_request !c w config with
    | Ok s -> served := (i, w, f, config, s, (now () -. t0) *. 1000.) :: !served
    | Error code ->
        errors := code :: !errors;
        if code = "connection_lost" then begin
          Client.close !c;
          c := connect socket
        end
  done;
  let elapsed = now () -. t_start in
  let after = fetch_counts !c in
  Client.close !c;
  let served = List.rev !served in
  let class_index (w : W.t) f =
    let name = w.name ^ "/" ^ f in
    let rec find i = function
      | x :: _ when x = name -> i
      | _ :: rest -> find (i + 1) rest
      | [] -> -1
    in
    find 0 sweep_classes
  in
  let items =
    List.map
      (fun (i, w, family, config, s, _) ->
        { id = i; w; family; config; served = encode s })
      served
  in
  (* correctness gate: in-process analysis of a seed-chosen sample, or of
     every answer in the traced run *)
  let checked =
    if traced then items
    else begin
      let a = Array.of_list items in
      shuffle (Random.State.make [| seed; 17 |]) a;
      Array.to_list (Array.sub a 0 (min (int_arg "sample") (Array.length a)))
    end
  in
  let mismatches, layers =
    if checked = [] then ([], [])
    else replay ~traced ~store_dir:(arg_req "store") checked
  in
  print_json
    (Obj
       ([ ("event", Str "sweep"); ("elapsed_s", Float elapsed);
          ("attempted", Int !attempted);
          ( "latencies_ms",
            floats (List.map (fun (_, _, _, _, _, l) -> l) served) );
          ( "classes",
            List
              (List.map (fun (_, w, f, _, _, _) -> Int (class_index w f)) served)
          );
          ("class_names", List (List.map (fun s -> Str s) sweep_classes));
          ("errors", count_errors !errors);
          ("counts", counts_json (diff before after));
          ("checked", Int (List.length checked));
          ("mismatches", List (List.map (fun i -> Int i) mismatches)) ]
       @ if traced then [ ("layers", pairs layers) ] else []));
  write_spans (arg "spans")

(* --- routed-hot ------------------------------------------------------------ *)

(* The fixed hot key set, with mix weights out of 60. Answer sizes fall
   in three well-separated classes: small (2-47 KB; every config family
   is represented), cc1x at 114 KB and xlispx at 241 KB. With 40% small,
   30% medium and 30% large, p50 sits a third of the way into the medium
   class and p90 two thirds into the large one: neither rank is on a
   class boundary. *)
let hot_keys =
  let open Config in
  [| ("tomcx", "base", default, 4);
     ("mtxx", "base", default, 4);
     ("eqnx", "renaming", with_renaming rename_registers_only default, 4);
     ("fpx", "branch", with_branch Predict_taken default, 4);
     ("doducx", "fu", with_fu { unlimited_fu with total = Some 64 } default, 4);
     ("spicex", "window", with_window (Some 4096) default, 4);
     ("cc1x", "base", default, 18);
     ("xlispx", "base", default, 18) |]

let hot_weight_total = Array.fold_left (fun a (_, _, _, k) -> a + k) 0 hot_keys

let pick_key rng =
  let r = Random.State.int rng hot_weight_total in
  let rec go i acc =
    let _, _, _, k = hot_keys.(i) in
    if r < acc + k then i else go (i + 1) (acc + k)
  in
  go 0 0

let key_name i =
  let w, f, _, _ = hot_keys.(i) in
  w ^ "/" ^ f

let cmd_hot_warm () =
  let c = connect (arg_req "socket") in
  let oc = open_out_bin (arg_req "answers") in
  Array.iter
    (fun (w, _, config, _) ->
      match analyze_request c (workload w) config with
      | Ok s ->
          let e = encode s in
          output_binary_int oc (String.length e);
          output_string oc e
      | Error code -> failwith ("warm " ^ w ^ ": " ^ code))
    hot_keys;
  close_out oc;
  Client.close c;
  print_json (Obj [ ("event", Str "warmed") ])

let read_answers path =
  let ic = open_in_bin path in
  let a =
    Array.map
      (fun _ ->
        let n = input_binary_int ic in
        really_input_string ic n)
      hot_keys
  in
  close_in ic;
  a

(* Sequential RTT replay of the hot keys: per key, alternate a routed
   request with a direct one to the key's owning backend, and time the
   in-process encode and decode of the same answer. Returns the
   mix-weighted per-request medians. *)
let rtt_layers ~socket c refs =
  let reps = 15 in
  let direct = Hashtbl.create 2 in
  let direct_for node =
    match Hashtbl.find_opt direct node with
    | Some d -> d
    | None ->
        let d = connect (socket ^ "." ^ node) in
        Hashtbl.add direct node d;
        d
  in
  let weighted = Array.make 5 0. in
  Array.iteri
    (fun k (w, _, config, weight) ->
      let w = workload w in
      let req = Protocol.Analyze { workload = w.W.name; config } in
      let node =
        match
          Client.request c
            (Protocol.Locate { key = Option.get (Route.of_request ~size req) })
        with
        | Protocol.Located { node } -> node
        | _ -> failwith "locate: unexpected response"
      in
      let d = direct_for node in
      let rtt conn =
        let t0 = now () in
        (match analyze_request conn w config with
        | Ok s when compare s refs.(k) = 0 -> ()
        | _ -> failwith ("rtt replay " ^ key_name k));
        (now () -. t0) *. 1000.
      in
      let samples = Array.make 4 [] in
      for _ = 1 to reps do
        let routed = rtt c in
        let dir = rtt d in
        let t0 = now () in
        let e = encode refs.(k) in
        let t1 = now () in
        ignore (Stats_codec.of_string e);
        let t2 = now () in
        List.iteri
          (fun i x -> samples.(i) <- x :: samples.(i))
          [ routed; dir; (t1 -. t0) *. 1000.; (t2 -. t1) *. 1000. ]
      done;
      let share = float_of_int weight /. float_of_int hot_weight_total in
      Array.iteri
        (fun i l -> weighted.(i) <- weighted.(i) +. (share *. median l))
        samples;
      weighted.(4) <-
        weighted.(4)
        +. (share *. float_of_int (String.length (encode refs.(k)))))
    hot_keys;
  Hashtbl.iter (fun _ d -> Client.close d) direct;
  let routed = weighted.(0) and dir = weighted.(1) in
  let enc = weighted.(2) and dec = weighted.(3) in
  [ ("routed_rtt_ms", routed); ("server.direct_rtt_ms", dir);
    ("server.overhead_ms", dir -. enc -. dec);
    ("router.relay_ms", routed -. dir); ("stats_codec.encode_ms", enc);
    ("stats_codec.decode_ms", dec); ("stats_codec.bytes", weighted.(4)) ]

let cmd_hot () =
  let socket = arg_req "socket" and seed = int_arg "seed" in
  let seconds = float_arg "seconds" and traced = flag "trace" in
  let phase = int_arg "phase" and check = flag "check" || flag "trace" in
  let answers = read_answers (arg_req "answers") in
  let refs = Array.map Stats_codec.of_string answers in
  let c = ref (connect socket) in
  let before = fetch_counts !c in
  let rng = Random.State.make [| seed; phase |] in
  let lat = ref [] and wrong = ref 0 and attempted = ref 0 in
  let errors = ref [] in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline do
    let k = pick_key rng in
    let w, _, config, _ = hot_keys.(k) in
    incr attempted;
    let t0 = now () in
    match analyze_request !c (workload w) config with
    | Ok s ->
        let ms = (now () -. t0) *. 1000. in
        (* decoding is canonical: equal values mean equal bytes *)
        if compare s refs.(k) <> 0 then incr wrong;
        lat := (ms, k) :: !lat
    | Error code ->
        errors := code :: !errors;
        if code = "connection_lost" then begin
          Client.close !c;
          c := connect socket
        end
  done;
  let elapsed = now () -. t_start in
  let c = !c in
  let after = fetch_counts c in
  let lat = List.rev !lat in
  (* correctness gate, with --check: every set-up answer against
     in-process analysis *)
  let items =
    if not check then []
    else
      Array.to_list
        (Array.mapi
           (fun i (w, family, config, _) ->
             { id = i; w = workload w; family; config; served = answers.(i) })
           hot_keys)
  in
  let mismatches, chain =
    if items = [] then ([], [])
    else replay ~traced ~store_dir:(arg_req "store") items
  in
  let layers =
    if not traced then []
    else
      (* codec numbers are the weighted hot mix's, not the chain's *)
      List.filter
        (fun (k, _) -> not (String.starts_with ~prefix:"stats_codec." k))
        chain
      @ rtt_layers ~socket c refs
  in
  Client.close c;
  print_json
    (Obj
       ([ ("event", Str "hot"); ("elapsed_s", Float elapsed);
          ("attempted", Int !attempted);
          ("latencies_ms", floats (List.map fst lat));
          ("classes", List (List.map (fun (_, k) -> Int k) lat));
          ( "class_names",
            List (List.init (Array.length hot_keys) (fun i -> Str (key_name i)))
          );
          ("wrong", Int !wrong);
          ("errors", count_errors !errors);
          ("counts", counts_json (diff before after));
          ("checked", Int (List.length items));
          ("mismatches", List (List.map (fun i -> Int i) mismatches)) ]
       @ if traced then [ ("layers", pairs layers) ] else []));
  write_spans (arg "spans")

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match args with
  | _ :: "suite" :: _ -> cmd_suite ()
  | _ :: "suite-replay" :: _ -> cmd_suite_replay ()
  | _ :: "warm" :: _ -> cmd_warm ()
  | _ :: "sweep" :: _ -> cmd_sweep ()
  | _ :: "hot-warm" :: _ -> cmd_hot_warm ()
  | _ :: "hot" :: _ -> cmd_hot ()
  | _ ->
      prerr_endline
        "usage: ddgbench (suite|suite-replay|warm|sweep|hot-warm|hot) \
         [--key value ...]";
      exit 2
