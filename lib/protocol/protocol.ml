let version = 8
let max_frame_bytes = 16 * 1024 * 1024
let magic = "DDGP"

exception Error of string

let fail fmt = Format.kasprintf (fun msg -> raise (Error msg)) fmt

(* name lengths are protocol constants: both sides enforce them, so a
   hostile peer cannot force a large allocation through a string field *)
let max_name = 256
let max_message = 4096
let max_verbs = 64
let max_metrics = 4096
let max_labels = 16

(* store keys compose workload / size / format versions / config
   description — far longer than a name, still firmly bounded *)
let max_key = 4096

(* cluster membership lists are small (one entry per node); store
   listings enumerate every artifact a node holds, so they get a much
   larger but still firm ceiling *)
let max_members = 256
let max_store_entries = 65536

type error_code =
  | Bad_frame
  | Unsupported_version
  | Unknown_workload
  | Unknown_table
  | Busy
  | Deadline_exceeded
  | Shutting_down
  | Internal
  | Worker_crashed
  | No_backends
  | Unknown_node

type error = { code : error_code; message : string }

type request =
  | Ping of { delay_ms : int }
  | Analyze of { workload : string; config : Ddg_paragraph.Config.t }
  | Simulate of { workload : string }
  | Table of { name : string }
  | Server_stats
  | Shutdown
  | Fsck
  | Metrics
  | Locate of { key : string }
  | Advise of { workload : string; config : Ddg_paragraph.Config.t }
  | Join of { node : string; endpoint : string }
  | Decommission of { node : string }
  | Ring_update of { members : (string * string) list }
  | Store_list
  | Pull of { kind : string; key : string; source : string }
  | Forward_range of { kind : string; key : string; offset : int; length : int }

type sim_summary = {
  instructions : int;
  syscalls : int;
  output_bytes : int;
  memory_footprint : int;
  trace_events : int;
}

type fsck_summary = {
  scanned : int;
  valid : int;
  quarantined : int;
  missing : int;
  swept_temps : int;
}

type counters = {
  uptime_s : float;
  connections : int;
  requests_total : int;
  requests_ok : int;
  requests_error : int;
  busy_rejections : int;
  deadline_expirations : int;
  latency_total_s : float;
  latency_max_s : float;
  by_verb : (string * int) list;
  simulations : int;
  analyses : int;
  trace_store_hits : int;
  stats_store_hits : int;
  trace_mem_hits : int;
  trace_evictions : int;
  trace_resident_bytes : int;
  retries_served : int;
  worker_respawns : int;
  artifact_quarantines : int;
  injected_faults : int;
  remote_fetches : int;
}

type response =
  | Pong
  | Analyzed of Ddg_paragraph.Analyzer.stats
  | Simulated of sim_summary
  | Rendered of string
  | Telemetry of counters
  | Shutting_down_ack
  | Fsck_report of fsck_summary
  | Metrics_snapshot of Ddg_obs.Obs.snapshot
  | Located of { node : string }
  | Advised of Ddg_advise.Advise.t
  | Members of { members : (string * string) list }
  | Store_listing of { entries : (string * string) list }
  | Pulled of { kind : string; key : string }
  | Fetched_range of { total : int; data : string }

type frame =
  | Hello of { protocol : int; software : string; node : string }
  | Request of { deadline_ms : int; attempt : int; request : request }
  | Ok_response of response
  | Error_response of error

let verb_name = function
  | Ping _ -> "ping"
  | Analyze _ -> "analyze"
  | Simulate _ -> "simulate"
  | Table _ -> "table"
  | Server_stats -> "stats"
  | Shutdown -> "shutdown"
  | Fsck -> "fsck"
  | Metrics -> "metrics"
  | Locate _ -> "locate"
  | Advise _ -> "advise"
  | Join _ -> "join"
  | Decommission _ -> "decommission"
  | Ring_update _ -> "ring-update"
  | Store_list -> "store-list"
  | Pull _ -> "pull"
  | Forward_range _ -> "forward-range"

(* every [verb_name], in request-tag order: the server pre-registers a
   metric series per entry, so keep it in step with the function above *)
let verbs =
  [ "ping"; "analyze"; "simulate"; "table"; "stats"; "shutdown"; "fsck";
    "metrics"; "locate"; "advise"; "join"; "decommission"; "ring-update";
    "store-list"; "pull"; "forward-range" ]

(* a verb is idempotent when replaying it after an ambiguous failure
   (connection dropped mid-request) cannot change server state beyond
   what one execution would: everything but [Shutdown], whose replay
   could kill a daemon restarted in between *)
let idempotent = function
  | Ping _ | Analyze _ | Simulate _ | Table _ | Server_stats | Fsck | Metrics
  | Locate _ | Advise _ | Join _ | Decommission _ | Ring_update _
  | Store_list | Pull _ | Forward_range _ ->
      true
  | Shutdown -> false

let error_code_name = function
  | Bad_frame -> "bad-frame"
  | Unsupported_version -> "unsupported-version"
  | Unknown_workload -> "unknown-workload"
  | Unknown_table -> "unknown-table"
  | Busy -> "busy"
  | Deadline_exceeded -> "deadline-exceeded"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"
  | Worker_crashed -> "worker-crashed"
  | No_backends -> "no-backends"
  | Unknown_node -> "unknown-node"

(* --- payload encoding (Buffer) --------------------------------------------- *)

let e_byte b v = Buffer.add_char b (Char.chr (v land 0xFF))

let e_varint b v =
  if v < 0 then fail "negative varint";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      e_byte b byte;
      continue := false
    end
    else e_byte b (byte lor 0x80)
  done

let e_bool b v = e_byte b (if v then 1 else 0)

let e_string ~max b s =
  if String.length s > max then fail "string field too long to encode";
  e_varint b (String.length s);
  Buffer.add_string b s

let e_float b f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    e_byte b (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
  done

let e_opt_varint b = function
  | None -> e_bool b false
  | Some v ->
      e_bool b true;
      e_varint b v

(* --- payload decoding (bounded cursor over a string) ------------------------ *)

type cur = { data : string; mutable pos : int }

let c_byte c =
  if c.pos >= String.length c.data then fail "truncated frame payload"
  else begin
    let v = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    v
  end

let c_varint c =
  let rec go shift acc =
    if shift > 56 then fail "varint too long";
    let byte = c_byte c in
    (* at shift 56 only 6 payload bits fit under OCaml's 63-bit sign
       bit; a wider final byte would decode negative and sail past
       every downstream length guard *)
    if shift = 56 && byte land 0x7F > 0x3F then fail "varint overflows";
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let c_bool c =
  match c_byte c with
  | 0 -> false
  | 1 -> true
  | b -> fail "bad boolean byte %d" b

(* the [remaining] check precedes [String.sub], so allocation is bounded
   by the bytes actually on hand, never by the untrusted length *)
let c_string ~max c =
  let n = c_varint c in
  if n > max then fail "string field of %d bytes exceeds limit %d" n max;
  if c.pos + n > String.length c.data then fail "truncated string field";
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let c_float c =
  let bits = ref 0L in
  for _ = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (c_byte c))
  done;
  Int64.float_of_bits !bits

let c_opt_varint c = if c_bool c then Some (c_varint c) else None

(* --- analysis configurations ------------------------------------------------ *)

let e_config b (cfg : Ddg_paragraph.Config.t) =
  e_bool b cfg.syscall_stall;
  e_bool b cfg.renaming.registers;
  e_bool b cfg.renaming.stack;
  e_bool b cfg.renaming.data;
  e_opt_varint b cfg.window;
  e_opt_varint b cfg.fu.total;
  e_opt_varint b cfg.fu.int_units;
  e_opt_varint b cfg.fu.fp_units;
  e_opt_varint b cfg.fu.mem_units;
  (match cfg.branch with
  | Ddg_paragraph.Config.Perfect -> e_varint b 0
  | Ddg_paragraph.Config.Predict_taken -> e_varint b 1
  | Ddg_paragraph.Config.Predict_not_taken -> e_varint b 2
  | Ddg_paragraph.Config.Two_bit n ->
      e_varint b 3;
      e_varint b n);
  (* the latency function travels tabulated by class tag, so a served
     analysis uses exactly the caller's operation times *)
  let table = Ddg_paragraph.Config.latency_table cfg in
  e_varint b (Array.length table);
  Array.iter (e_varint b) table

let c_config c : Ddg_paragraph.Config.t =
  let syscall_stall = c_bool c in
  let registers = c_bool c in
  let stack = c_bool c in
  let data = c_bool c in
  let window = c_opt_varint c in
  let total = c_opt_varint c in
  let int_units = c_opt_varint c in
  let fp_units = c_opt_varint c in
  let mem_units = c_opt_varint c in
  let branch =
    match c_varint c with
    | 0 -> Ddg_paragraph.Config.Perfect
    | 1 -> Ddg_paragraph.Config.Predict_taken
    | 2 -> Ddg_paragraph.Config.Predict_not_taken
    | 3 -> Ddg_paragraph.Config.Two_bit (c_varint c)
    | t -> fail "bad branch policy tag %d" t
  in
  let n = c_varint c in
  if n <> Ddg_isa.Opclass.count then
    fail "latency table has %d entries (this build has %d classes)" n
      Ddg_isa.Opclass.count;
  let table = Array.init n (fun _ -> c_varint c) in
  let config =
    {
      Ddg_paragraph.Config.syscall_stall;
      renaming = { Ddg_paragraph.Config.registers; stack; data };
      window;
      latency = (fun cls -> table.(Ddg_isa.Opclass.to_tag cls));
      fu = { Ddg_paragraph.Config.total; int_units; fp_units; mem_units };
      branch;
    }
  in
  match Ddg_paragraph.Config.validate config with
  | Ok () -> config
  | Error msg -> fail "bad analysis configuration: %s" msg

(* --- requests, responses, errors -------------------------------------------- *)

(* membership lists ((node, endpoint) pairs) and store listings
   ((kind, key) pairs) share one shape: a length-bounded list of string
   pairs, each string with its own ceiling *)
let e_pairs ~what ~limit ~max_fst ~max_snd b pairs =
  if List.length pairs > limit then fail "too many %s to encode" what;
  e_varint b (List.length pairs);
  List.iter
    (fun (a, z) ->
      e_string ~max:max_fst b a;
      e_string ~max:max_snd b z)
    pairs

let c_pairs ~what ~limit ~max_fst ~max_snd c =
  let n = c_varint c in
  if n > limit then fail "too many %s (%d)" what n;
  List.init n (fun _ ->
      let a = c_string ~max:max_fst c in
      let z = c_string ~max:max_snd c in
      (a, z))

let e_members = e_pairs ~what:"members" ~limit:max_members ~max_fst:max_name
    ~max_snd:max_key

let c_members = c_pairs ~what:"members" ~limit:max_members ~max_fst:max_name
    ~max_snd:max_key

let e_entries = e_pairs ~what:"store entries" ~limit:max_store_entries
    ~max_fst:max_name ~max_snd:max_key

let c_entries = c_pairs ~what:"store entries" ~limit:max_store_entries
    ~max_fst:max_name ~max_snd:max_key

let e_request b = function
  | Ping { delay_ms } ->
      e_varint b 0;
      e_varint b delay_ms
  | Analyze { workload; config } ->
      e_varint b 1;
      e_string ~max:max_name b workload;
      e_config b config
  | Simulate { workload } ->
      e_varint b 2;
      e_string ~max:max_name b workload
  | Table { name } ->
      e_varint b 3;
      e_string ~max:max_name b name
  | Server_stats -> e_varint b 4
  | Shutdown -> e_varint b 5
  | Fsck -> e_varint b 6
  | Metrics -> e_varint b 7
  | Locate { key } ->
      e_varint b 8;
      e_string ~max:max_key b key
  | Advise { workload; config } ->
      e_varint b 10;
      e_string ~max:max_name b workload;
      e_config b config
  | Join { node; endpoint } ->
      e_varint b 11;
      e_string ~max:max_name b node;
      e_string ~max:max_key b endpoint
  | Decommission { node } ->
      e_varint b 12;
      e_string ~max:max_name b node
  | Ring_update { members } ->
      e_varint b 13;
      e_members b members
  | Store_list -> e_varint b 14
  | Pull { kind; key; source } ->
      e_varint b 15;
      e_string ~max:max_name b kind;
      e_string ~max:max_key b key;
      e_string ~max:max_name b source
  | Forward_range { kind; key; offset; length } ->
      e_varint b 16;
      e_string ~max:max_name b kind;
      e_string ~max:max_key b key;
      e_varint b offset;
      e_varint b length

let c_request c =
  match c_varint c with
  | 0 -> Ping { delay_ms = c_varint c }
  | 1 ->
      let workload = c_string ~max:max_name c in
      let config = c_config c in
      Analyze { workload; config }
  | 2 -> Simulate { workload = c_string ~max:max_name c }
  | 3 -> Table { name = c_string ~max:max_name c }
  | 4 -> Server_stats
  | 5 -> Shutdown
  | 6 -> Fsck
  | 7 -> Metrics
  | 8 -> Locate { key = c_string ~max:max_key c }
  | 10 ->
      let workload = c_string ~max:max_name c in
      let config = c_config c in
      Advise { workload; config }
  | 11 ->
      let node = c_string ~max:max_name c in
      let endpoint = c_string ~max:max_key c in
      Join { node; endpoint }
  | 12 -> Decommission { node = c_string ~max:max_name c }
  | 13 -> Ring_update { members = c_members c }
  | 14 -> Store_list
  | 15 ->
      let kind = c_string ~max:max_name c in
      let key = c_string ~max:max_key c in
      let source = c_string ~max:max_name c in
      Pull { kind; key; source }
  | 16 ->
      let kind = c_string ~max:max_name c in
      let key = c_string ~max:max_key c in
      let offset = c_varint c in
      let length = c_varint c in
      Forward_range { kind; key; offset; length }
  | t -> fail "bad request verb tag %d" t

let e_counters b k =
  e_float b k.uptime_s;
  e_varint b k.connections;
  e_varint b k.requests_total;
  e_varint b k.requests_ok;
  e_varint b k.requests_error;
  e_varint b k.busy_rejections;
  e_varint b k.deadline_expirations;
  e_float b k.latency_total_s;
  e_float b k.latency_max_s;
  if List.length k.by_verb > max_verbs then fail "too many verb counters";
  e_varint b (List.length k.by_verb);
  List.iter
    (fun (name, count) ->
      e_string ~max:max_name b name;
      e_varint b count)
    k.by_verb;
  e_varint b k.simulations;
  e_varint b k.analyses;
  e_varint b k.trace_store_hits;
  e_varint b k.stats_store_hits;
  e_varint b k.trace_mem_hits;
  e_varint b k.trace_evictions;
  e_varint b k.trace_resident_bytes;
  e_varint b k.retries_served;
  e_varint b k.worker_respawns;
  e_varint b k.artifact_quarantines;
  e_varint b k.injected_faults;
  e_varint b k.remote_fetches

let c_counters c =
  let uptime_s = c_float c in
  let connections = c_varint c in
  let requests_total = c_varint c in
  let requests_ok = c_varint c in
  let requests_error = c_varint c in
  let busy_rejections = c_varint c in
  let deadline_expirations = c_varint c in
  let latency_total_s = c_float c in
  let latency_max_s = c_float c in
  let nverbs = c_varint c in
  if nverbs > max_verbs then fail "too many verb counters (%d)" nverbs;
  let by_verb =
    List.init nverbs (fun _ ->
        let name = c_string ~max:max_name c in
        let count = c_varint c in
        (name, count))
  in
  let simulations = c_varint c in
  let analyses = c_varint c in
  let trace_store_hits = c_varint c in
  let stats_store_hits = c_varint c in
  let trace_mem_hits = c_varint c in
  let trace_evictions = c_varint c in
  let trace_resident_bytes = c_varint c in
  let retries_served = c_varint c in
  let worker_respawns = c_varint c in
  let artifact_quarantines = c_varint c in
  let injected_faults = c_varint c in
  let remote_fetches = c_varint c in
  { uptime_s; connections; requests_total; requests_ok; requests_error;
    busy_rejections; deadline_expirations; latency_total_s; latency_max_s;
    by_verb; simulations; analyses; trace_store_hits; stats_store_hits;
    trace_mem_hits; trace_evictions; trace_resident_bytes; retries_served;
    worker_respawns; artifact_quarantines; injected_faults; remote_fetches }

(* --- observability snapshots -------------------------------------------------

   Histogram buckets travel sparse — (index, count) pairs in strictly
   increasing index order — because a 63-bucket array is almost empty
   for real latency data. Every list is length-bounded before any
   allocation, as elsewhere in the decoder. *)

let e_labels b labels =
  if List.length labels > max_labels then fail "too many labels to encode";
  e_varint b (List.length labels);
  List.iter
    (fun (k, v) ->
      e_string ~max:max_name b k;
      e_string ~max:max_name b v)
    labels

let c_labels c =
  let n = c_varint c in
  if n > max_labels then fail "too many labels (%d)" n;
  List.init n (fun _ ->
      let k = c_string ~max:max_name c in
      let v = c_string ~max:max_name c in
      (k, v))

let e_obs_snapshot b (s : Ddg_obs.Obs.snapshot) =
  if List.length s.counters > max_metrics then fail "too many counters";
  e_varint b (List.length s.counters);
  List.iter
    (fun (cs : Ddg_obs.Obs.counter_snapshot) ->
      e_string ~max:max_name b cs.cs_name;
      e_labels b cs.cs_labels;
      e_varint b cs.cs_value)
    s.counters;
  if List.length s.histograms > max_metrics then fail "too many histograms";
  e_varint b (List.length s.histograms);
  List.iter
    (fun (h : Ddg_obs.Obs.hist_snapshot) ->
      e_string ~max:max_name b h.hs_name;
      e_labels b h.hs_labels;
      e_varint b h.hs_count;
      e_varint b h.hs_sum;
      e_varint b h.hs_min;
      e_varint b h.hs_max;
      let occupied =
        Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 h.hs_buckets
      in
      e_varint b occupied;
      Array.iteri
        (fun i c ->
          if c > 0 then begin
            e_varint b i;
            e_varint b c
          end)
        h.hs_buckets)
    s.histograms

let c_obs_snapshot c : Ddg_obs.Obs.snapshot =
  let nc = c_varint c in
  if nc > max_metrics then fail "too many counters (%d)" nc;
  let counters =
    List.init nc (fun _ ->
        let cs_name = c_string ~max:max_name c in
        let cs_labels = c_labels c in
        let cs_value = c_varint c in
        { Ddg_obs.Obs.cs_name; cs_labels; cs_value })
  in
  let nh = c_varint c in
  if nh > max_metrics then fail "too many histograms (%d)" nh;
  let histograms =
    List.init nh (fun _ ->
        let hs_name = c_string ~max:max_name c in
        let hs_labels = c_labels c in
        let hs_count = c_varint c in
        let hs_sum = c_varint c in
        let hs_min = c_varint c in
        let hs_max = c_varint c in
        let hs_buckets = Array.make Ddg_obs.Obs.buckets 0 in
        let npairs = c_varint c in
        if npairs > Ddg_obs.Obs.buckets then
          fail "too many bucket entries (%d)" npairs;
        let last = ref (-1) in
        for _ = 1 to npairs do
          let i = c_varint c in
          if i <= !last || i >= Ddg_obs.Obs.buckets then
            fail "bad bucket index %d" i;
          last := i;
          hs_buckets.(i) <- c_varint c
        done;
        { Ddg_obs.Obs.hs_name; hs_labels; hs_count; hs_sum; hs_min; hs_max;
          hs_buckets })
  in
  { Ddg_obs.Obs.counters; histograms }

(* An analyze or advise answer is its canonical codec bytes behind the
   response tag and a length, so a cached answer can go on the wire
   without a codec pass ([answer_payload]). *)
let e_blob b tag blob =
  e_varint b tag;
  e_varint b (String.length blob);
  Buffer.add_string b blob

let e_response b = function
  | Pong -> e_varint b 0
  | Analyzed stats -> e_blob b 1 (Ddg_paragraph.Stats_codec.to_string stats)
  | Simulated s ->
      e_varint b 2;
      e_varint b s.instructions;
      e_varint b s.syscalls;
      e_varint b s.output_bytes;
      e_varint b s.memory_footprint;
      e_varint b s.trace_events
  | Rendered text ->
      e_varint b 3;
      e_string ~max:max_frame_bytes b text
  | Telemetry k ->
      e_varint b 4;
      e_counters b k
  | Shutting_down_ack -> e_varint b 5
  | Fsck_report r ->
      e_varint b 6;
      e_varint b r.scanned;
      e_varint b r.valid;
      e_varint b r.quarantined;
      e_varint b r.missing;
      e_varint b r.swept_temps
  | Metrics_snapshot s ->
      e_varint b 7;
      e_obs_snapshot b s
  | Located { node } ->
      e_varint b 8;
      e_string ~max:max_name b node
  | Advised report -> e_blob b 10 (Ddg_advise.Advise_codec.to_string report)
  | Members { members } ->
      e_varint b 11;
      e_members b members
  | Store_listing { entries } ->
      e_varint b 12;
      e_entries b entries
  | Pulled { kind; key } ->
      e_varint b 13;
      e_string ~max:max_name b kind;
      e_string ~max:max_key b key
  | Fetched_range { total; data } ->
      e_varint b 14;
      e_varint b total;
      e_string ~max:max_frame_bytes b data

let c_response c =
  match c_varint c with
  | 0 -> Pong
  | 1 ->
      let blob = c_string ~max:max_frame_bytes c in
      let stats =
        try Ddg_paragraph.Stats_codec.of_string blob
        with Ddg_paragraph.Stats_codec.Corrupt msg ->
          fail "bad stats payload: %s" msg
      in
      Analyzed stats
  | 2 ->
      let instructions = c_varint c in
      let syscalls = c_varint c in
      let output_bytes = c_varint c in
      let memory_footprint = c_varint c in
      let trace_events = c_varint c in
      Simulated
        { instructions; syscalls; output_bytes; memory_footprint;
          trace_events }
  | 3 -> Rendered (c_string ~max:max_frame_bytes c)
  | 4 -> Telemetry (c_counters c)
  | 5 -> Shutting_down_ack
  | 6 ->
      let scanned = c_varint c in
      let valid = c_varint c in
      let quarantined = c_varint c in
      let missing = c_varint c in
      let swept_temps = c_varint c in
      Fsck_report { scanned; valid; quarantined; missing; swept_temps }
  | 7 -> Metrics_snapshot (c_obs_snapshot c)
  | 8 -> Located { node = c_string ~max:max_name c }
  | 10 ->
      let blob = c_string ~max:max_frame_bytes c in
      let report =
        try Ddg_advise.Advise_codec.of_string blob
        with Ddg_advise.Advise_codec.Corrupt msg ->
          fail "bad advise payload: %s" msg
      in
      Advised report
  | 11 -> Members { members = c_members c }
  | 12 -> Store_listing { entries = c_entries c }
  | 13 ->
      let kind = c_string ~max:max_name c in
      let key = c_string ~max:max_key c in
      Pulled { kind; key }
  | 14 ->
      let total = c_varint c in
      let data = c_string ~max:max_frame_bytes c in
      Fetched_range { total; data }
  | t -> fail "bad response tag %d" t

let error_code_tag = function
  | Bad_frame -> 0
  | Unsupported_version -> 1
  | Unknown_workload -> 2
  | Unknown_table -> 3
  | Busy -> 4
  | Deadline_exceeded -> 5
  | Shutting_down -> 6
  | Internal -> 7
  | Worker_crashed -> 8
  | No_backends -> 9
  | Unknown_node -> 10

let error_code_of_tag = function
  | 0 -> Bad_frame
  | 1 -> Unsupported_version
  | 2 -> Unknown_workload
  | 3 -> Unknown_table
  | 4 -> Busy
  | 5 -> Deadline_exceeded
  | 6 -> Shutting_down
  | 7 -> Internal
  | 8 -> Worker_crashed
  | 9 -> No_backends
  | 10 -> Unknown_node
  | t -> fail "bad error code tag %d" t

let truncate_message m =
  if String.length m <= max_message then m else String.sub m 0 max_message

(* --- frames ------------------------------------------------------------------ *)

let ok_kind = 3

let frame_kind = function
  | Hello _ -> 1
  | Request _ -> 2
  | Ok_response _ -> ok_kind
  | Error_response _ -> 4

let encode_payload b = function
  | Hello { protocol; software; node } ->
      e_varint b protocol;
      e_string ~max:max_name b software;
      e_string ~max:max_name b node
  | Request { deadline_ms; attempt; request } ->
      e_varint b deadline_ms;
      e_varint b attempt;
      e_request b request
  | Ok_response r -> e_response b r
  | Error_response { code; message } ->
      e_varint b (error_code_tag code);
      e_string ~max:max_message b (truncate_message message)

let to_payload encode v =
  let b = Buffer.create 64 in
  encode b v;
  Buffer.contents b

let encode_response = to_payload e_response

let answer_payload answer blob =
  let b = Buffer.create (String.length blob + 12) in
  e_blob b (match answer with `Analyzed -> 1 | `Advised -> 10) blob;
  Buffer.contents b

(* every payload must be consumed exactly: trailing bytes are garbage *)
let of_payload decode payload =
  let c = { data = payload; pos = 0 } in
  let v = decode c in
  if c.pos <> String.length payload then
    fail "%d trailing bytes after frame payload" (String.length payload - c.pos);
  v

let decode_response = of_payload c_response

let decode_frame kind =
  of_payload (fun c ->
      match kind with
      | 1 ->
          let protocol = c_varint c in
          let software = c_string ~max:max_name c in
          let node = c_string ~max:max_name c in
          Hello { protocol; software; node }
      | 2 ->
          let deadline_ms = c_varint c in
          let attempt = c_varint c in
          let request = c_request c in
          Request { deadline_ms; attempt; request }
      | 3 -> Ok_response (c_response c)
      | 4 ->
          let code = error_code_of_tag (c_varint c) in
          let message = c_string ~max:max_message c in
          Error_response { code; message }
      | k -> fail "bad frame kind %d" k)

(* header: magic, kind byte, big-endian payload length *)
let raw_frame kind payload =
  let n = String.length payload in
  if n > max_frame_bytes then fail "frame payload of %d bytes too large" n;
  let b = Bytes.create (n + 9) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 kind;
  Bytes.set_int32_be b 5 (Int32.of_int n);
  Bytes.blit_string payload 0 b 9 n;
  b

(* the declared length is checked against the cap before anything is
   allocated for the payload *)
let parse_header h =
  if Bytes.sub_string h 0 4 <> magic then fail "bad frame magic";
  let len = Int32.to_int (Bytes.get_int32_be h 5) land 0xFFFF_FFFF in
  if len > max_frame_bytes then
    fail "declared frame payload of %d bytes exceeds limit %d" len
      max_frame_bytes;
  (Bytes.get_uint8 h 4, len)

let frame_to_string frame =
  Bytes.unsafe_to_string
    (raw_frame (frame_kind frame) (to_payload encode_payload frame))

let frame_of_string s =
  if String.length s < 9 then fail "truncated frame header";
  let kind, len = parse_header (Bytes.of_string (String.sub s 0 9)) in
  if String.length s - 9 < len then fail "truncated frame payload";
  if String.length s - 9 > len then fail "trailing bytes after frame";
  decode_frame kind (String.sub s 9 len)

(* --- raw file-descriptor frame I/O ------------------------------------------ *)

(* The daemon and client speak frames directly over [Unix.file_descr]:
   every transfer goes through one syscall wrapper that restarts on
   EINTR (a signal arriving mid-read must never surface as
   [Unix_error]) and tolerates short transfers by looping. The fault
   sites model exactly the conditions the wrapper must absorb —
   [proto.read.eintr]/[proto.write.eintr] raise EINTR before the
   syscall, [proto.read.short]/[proto.write.short] cap the transfer at
   one byte — plus one it cannot: [proto.conn.drop] raises
   ECONNRESET/EPIPE, which propagates to the caller as a genuine peer
   loss. *)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let read_fd fd buf pos len =
  if Ddg_fault.Fault.fire "proto.conn.drop" then
    raise (Unix.Unix_error (Unix.ECONNRESET, "read", "fault-injected"));
  let len = if Ddg_fault.Fault.fire "proto.read.short" then min len 1 else len in
  restart_on_eintr (fun () ->
      if Ddg_fault.Fault.fire "proto.read.eintr" then
        raise (Unix.Unix_error (Unix.EINTR, "read", "fault-injected"));
      Unix.read fd buf pos len)

let write_fd fd buf pos len =
  if Ddg_fault.Fault.fire "proto.conn.drop" then
    raise (Unix.Unix_error (Unix.EPIPE, "write", "fault-injected"));
  let len = if Ddg_fault.Fault.fire "proto.write.short" then min len 1 else len in
  restart_on_eintr (fun () ->
      if Ddg_fault.Fault.fire "proto.write.eintr" then
        raise (Unix.Unix_error (Unix.EINTR, "write", "fault-injected"));
      Unix.write fd buf pos len)

let really_read_fd fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let n = read_fd fd buf pos len in
      if n = 0 then raise End_of_file;
      go (pos + n) (len - n)
    end
  in
  go pos len

let really_write_fd fd buf pos len =
  let rec go pos len =
    if len > 0 then begin
      let n = write_fd fd buf pos len in
      go (pos + n) (len - n)
    end
  in
  go pos len

(* The one frame reader and writer move a frame as its kind byte and
   undecoded payload; the typed pair below is decode / encode around
   them, and callers relaying a payload they need not read skip it. *)

let read_raw_frame_fd fd =
  let header = Bytes.create 9 in
  really_read_fd fd header 0 9;
  let kind, len = parse_header header in
  (* chunked payload read: allocation per step is bounded by the chunk
     size, never by the untrusted declared length *)
  let buf = Buffer.create (min len 65536) in
  let chunk = Bytes.create (min (max len 1) 65536) in
  let remaining = ref len in
  while !remaining > 0 do
    let n = min !remaining (Bytes.length chunk) in
    really_read_fd fd chunk 0 n;
    Buffer.add_subbytes buf chunk 0 n;
    remaining := !remaining - n
  done;
  (kind, Buffer.contents buf)

let write_raw_frame_fd fd kind payload =
  let b = raw_frame kind payload in
  really_write_fd fd b 0 (Bytes.length b)

let read_frame_fd fd =
  let kind, payload = read_raw_frame_fd fd in
  decode_frame kind payload

let write_frame_fd fd frame =
  write_raw_frame_fd fd (frame_kind frame) (to_payload encode_payload frame)
