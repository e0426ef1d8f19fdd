open Ddg_workloads
module Store = Ddg_store.Store
module Jobs = Ddg_jobs.Engine
module Obs = Ddg_obs.Obs

(* Observability sites: wall time of the two expensive operations, and
   one hit counter per cache layer (memory / disk store, trace / stats). *)
let span_simulate = Obs.span_site "ddg_runner_simulate_ns"
let span_analyze = Obs.span_site "ddg_runner_analyze_ns"
let span_advise = Obs.span_site "ddg_runner_advise_ns"

let hit_trace_mem =
  Obs.counter ~labels:[ ("cache", "trace_mem") ] "ddg_runner_cache_hits_total"

let hit_trace_store =
  Obs.counter ~labels:[ ("cache", "trace_store") ] "ddg_runner_cache_hits_total"

let hit_stats_mem =
  Obs.counter ~labels:[ ("cache", "stats_mem") ] "ddg_runner_cache_hits_total"

let hit_stats_store =
  Obs.counter
    ~labels:[ ("cache", "stats_store") ]
    "ddg_runner_cache_hits_total"

let hit_advise_mem =
  Obs.counter ~labels:[ ("cache", "advise_mem") ] "ddg_runner_cache_hits_total"

let hit_advise_store =
  Obs.counter
    ~labels:[ ("cache", "advise_store") ]
    "ddg_runner_cache_hits_total"

let advises_total = Obs.counter "ddg_runner_advises_total"

let evictions_total = Obs.counter "ddg_runner_trace_evictions_total"
let remote_fetches_total = Obs.counter "ddg_runner_remote_fetches_total"

(* A resident decoded trace: the LRU entry of the byte-budgeted memory
   cache. [last_use] is a logical clock tick, bumped on every hit. *)
type trace_entry = {
  value : Ddg_sim.Machine.result * Ddg_sim.Trace.t;
  bytes : int;
  mutable last_use : int;
}

type counters = {
  simulations : int;
  analyses : int;
  trace_store_hits : int;
  stats_store_hits : int;
  trace_mem_hits : int;
  trace_evictions : int;
  trace_resident_bytes : int;
  artifact_quarantines : int;
  remote_fetches : int;
}

type t = {
  size : Workload.size;
  progress : string -> unit;
  store : Store.t option;
  workers : int;
  trace_budget : int option;
  mutable fetch : (kind:string -> key:string -> bool) option;
      (* cluster fetch-through: called on a store miss with the missing
         artifact's address; [true] means the artifact was imported
         into the local store and the lookup should be retried *)
  lock : Mutex.t;  (* guards the memory caches and the counters *)
  traces : (string, trace_entry) Hashtbl.t;
  (* answers as canonical Stats_codec / Advise_codec bytes: encoded
     once, then stored, cached and served as the same string *)
  stats : (string * string, string) Hashtbl.t;
  advice : (string * string, string) Hashtbl.t;
  mutable tick : int;
  mutable resident_bytes : int;
  mutable n_simulations : int;
  mutable n_analyses : int;
  mutable n_trace_store_hits : int;
  mutable n_stats_store_hits : int;
  mutable n_trace_mem_hits : int;
  mutable n_trace_evictions : int;
  mutable n_remote_fetches : int;
}

let create ?(size = Workload.Default) ?(progress = fun _ -> ()) ?store
    ?(workers = 1) ?trace_budget () =
  { size; progress; store; workers = max 1 workers; trace_budget;
    fetch = None; lock = Mutex.create (); traces = Hashtbl.create 16;
    stats = Hashtbl.create 64; advice = Hashtbl.create 16;
    tick = 0; resident_bytes = 0;
    n_simulations = 0; n_analyses = 0; n_trace_store_hits = 0;
    n_stats_store_hits = 0; n_trace_mem_hits = 0; n_trace_evictions = 0;
    n_remote_fetches = 0 }

let size t = t.size
let workloads _ = Registry.all
let set_fetch t fetch = t.fetch <- Some fetch

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counters t =
  (* the quarantine count lives in the store handle; read it outside
     the runner lock to keep the lock order store-free *)
  let artifact_quarantines =
    match t.store with None -> 0 | Some s -> Store.quarantine_count s
  in
  locked t (fun () ->
      { simulations = t.n_simulations;
        analyses = t.n_analyses;
        trace_store_hits = t.n_trace_store_hits;
        stats_store_hits = t.n_stats_store_hits;
        trace_mem_hits = t.n_trace_mem_hits;
        trace_evictions = t.n_trace_evictions;
        trace_resident_bytes = t.resident_bytes;
        artifact_quarantines;
        remote_fetches = t.n_remote_fetches })

let store t = t.store

(* On a store miss, give the cluster hook one chance to pull the
   artifact from its owner; [true] means the import landed and a retry
   of the local lookup will hit. No store, no hook, or a failed fetch
   all degrade to local computation. *)
let fetch_through t ~kind ~key =
  match (t.store, t.fetch) with
  | Some _, Some fetch when fetch ~kind ~key ->
      locked t (fun () -> t.n_remote_fetches <- t.n_remote_fetches + 1);
      Obs.incr remote_fetches_total;
      true
  | _ -> false

(* --- store keys ------------------------------------------------------------ *)

(* Keyed by the software version too, so artifacts written by one
   release are never misattributed to another even when the payload
   format versions happen to match. *)
let trace_key t (w : Workload.t) =
  Printf.sprintf "%s/%s/%s/v%s" w.name
    (Workload.size_to_string t.size)
    Ddg_sim.Trace_io.format_version Ddg_version.Version.current

let stats_key t (w : Workload.t) config =
  Printf.sprintf "%s/%s/analyzer-v%d" (trace_key t w)
    (Ddg_paragraph.Config.describe config)
    Ddg_paragraph.Stats_codec.version

(* A loop-marked trace is a distinct artifact from the plain trace of
   the same workload: marks change the trace encoding (format v2) but
   also what the simulator was asked to run, so the two are cached —
   in memory and in the store — under separate keys. *)
let marked_trace_key t (w : Workload.t) = trace_key t w ^ "+marks"

let advise_key t (w : Workload.t) config =
  Printf.sprintf "%s/%s/advise-v%d" (marked_trace_key t w)
    (Ddg_paragraph.Config.describe config)
    Ddg_advise.Advise_codec.version

(* --- trace artifacts: a Machine.result header, then the trace stream ------- *)

let write_result oc (r : Ddg_sim.Machine.result) =
  (match r.stop with
  | Ddg_sim.Machine.Halted -> Store.write_varint oc 0
  | Ddg_sim.Machine.Instruction_limit -> Store.write_varint oc 1
  | Ddg_sim.Machine.Fault msg ->
      Store.write_varint oc 2;
      Store.write_string oc msg);
  Store.write_varint oc r.instructions;
  Store.write_varint oc r.syscalls;
  Store.write_string oc r.output;
  Store.write_varint oc r.memory_footprint

let read_result ic : Ddg_sim.Machine.result =
  let stop =
    match Store.read_varint ic with
    | 0 -> Ddg_sim.Machine.Halted
    | 1 -> Ddg_sim.Machine.Instruction_limit
    | 2 -> Ddg_sim.Machine.Fault (Store.read_string ic)
    | k -> raise (Store.Corrupt (Printf.sprintf "bad stop tag %d" k))
  in
  let instructions = Store.read_varint ic in
  let syscalls = Store.read_varint ic in
  let output = Store.read_string ic in
  let memory_footprint = Store.read_varint ic in
  { Ddg_sim.Machine.stop; instructions; syscalls; output; memory_footprint }

(* A failed cache write (disk full, permissions) degrades to uncached
   operation; it never fails the experiment. *)
let try_put t ~kind ~key ~wall write_payload =
  match t.store with
  | None -> ()
  | Some s -> (
      try Store.put s ~kind ~key ~wall write_payload
      with Sys_error msg ->
        t.progress (Printf.sprintf "store write failed (%s): %s" kind msg))

(* Insert a freshly decoded trace into the LRU and evict the
   least-recently-used entries until the byte budget holds again. The
   entry just inserted always survives (its tick is newest and at least
   one trace must stay resident for the caller), so a single trace
   larger than the budget degrades to exactly-one-resident, not
   thrashing. Lock held. *)
let lru_insert_locked t name value =
  let bytes =
    let result, tr = value in
    Ddg_sim.Trace.memory_bytes tr
    + String.length result.Ddg_sim.Machine.output
  in
  (match Hashtbl.find_opt t.traces name with
  | Some old -> t.resident_bytes <- t.resident_bytes - old.bytes
  | None -> ());
  t.tick <- t.tick + 1;
  Hashtbl.replace t.traces name { value; bytes; last_use = t.tick };
  t.resident_bytes <- t.resident_bytes + bytes;
  match t.trace_budget with
  | None -> ()
  | Some budget ->
      while t.resident_bytes > budget && Hashtbl.length t.traces > 1 do
        let victim =
          Hashtbl.fold
            (fun name entry acc ->
              match acc with
              | Some (_, best) when best.last_use <= entry.last_use -> acc
              | _ -> Some (name, entry))
            t.traces None
        in
        match victim with
        | None -> ()
        | Some (victim_name, entry) ->
            Hashtbl.remove t.traces victim_name;
            t.resident_bytes <- t.resident_bytes - entry.bytes;
            t.n_trace_evictions <- t.n_trace_evictions + 1;
            Obs.incr evictions_total;
            t.progress
              (Printf.sprintf "evicting %s trace (%d bytes resident)"
                 victim_name t.resident_bytes)
      done

let trace_aux t (w : Workload.t) ~marks =
  let mem_name = if marks then w.name ^ "+marks" else w.name in
  let key = if marks then marked_trace_key t w else trace_key t w in
  let hit =
    locked t (fun () ->
        match Hashtbl.find_opt t.traces mem_name with
        | Some entry ->
            t.tick <- t.tick + 1;
            entry.last_use <- t.tick;
            t.n_trace_mem_hits <- t.n_trace_mem_hits + 1;
            Obs.incr hit_trace_mem;
            Some entry.value
        | None -> None)
  in
  match hit with
  | Some cached -> cached
  | None ->
      (* Traces are served as zero-copy views: the store hands back the
         payload's position ([~verify:false] — content digests are
         enforced at put/import/fsck/scrub time), the simulation result
         is decoded from a short prefix and the flat trace behind it is
         mapped in place. Structural validation always runs inside
         [map_file]; anything it rejects (including a legacy v1/v2
         payload, converted below) discredits the artifact so the next
         lookup recomputes. *)
      let look () =
        match t.store with
        | None -> None
        | Some s -> (
            match Store.find_view ~verify:false s ~kind:"trace" ~key with
            | None -> None
            | Some v -> (
                match
                  let ic = open_in_bin v.Store.view_path in
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic)
                    (fun () ->
                      seek_in ic v.Store.view_pos;
                      let result = read_result ic in
                      let tr =
                        Ddg_sim.Trace_io.map_file ~verify:false
                          ~pos:(pos_in ic) v.Store.view_path
                      in
                      (result, tr))
                with
                | value -> Some value
                | exception e ->
                    let reason =
                      match e with
                      | Ddg_sim.Trace_io.Corrupt msg -> msg
                      | Store.Corrupt msg -> msg
                      | End_of_file -> "truncated artifact"
                      | e -> Printexc.to_string e
                    in
                    Store.discredit s ~kind:"trace" ~key reason;
                    None))
      in
      let from_store =
        match look () with
        | Some _ as hit -> hit
        | None when fetch_through t ~kind:"trace" ~key -> look ()
        | None -> None
      in
      let v =
        match from_store with
        | Some v ->
            t.progress (Printf.sprintf "store hit: %s trace" mem_name);
            locked t (fun () ->
                t.n_trace_store_hits <- t.n_trace_store_hits + 1);
            Obs.incr hit_trace_store;
            v
        | None ->
            t.progress
              (Printf.sprintf "tracing %s (%s)" mem_name
                 (Workload.size_to_string t.size));
            let t0 = Unix.gettimeofday () in
            let result, tr =
              Obs.time span_simulate (fun () -> Workload.trace ~marks w t.size)
            in
            (match result.stop with
            | Ddg_sim.Machine.Halted -> ()
            | s ->
                failwith
                  (Format.asprintf "workload %s did not halt: %a" w.name
                     Ddg_sim.Machine.pp_stop_reason s));
            locked t (fun () -> t.n_simulations <- t.n_simulations + 1);
            try_put t ~kind:"trace" ~key
              ~wall:(Unix.gettimeofday () -. t0)
              (fun oc ->
                write_result oc result;
                Ddg_sim.Trace_io.write_channel_flat oc tr);
            (result, tr)
      in
      locked t (fun () -> lru_insert_locked t mem_name v);
      v

let trace t w = trace_aux t w ~marks:false
let marked_trace t w = trace_aux t w ~marks:true

(* --- answers: canonical bytes, memory tier → store → compute ---------------

   A store hit is read through [Store.find], so its digest is checked,
   then decoded once by [validate] and kept as bytes only: a
   digest-valid but malformed artifact (one pulled from a peer, say)
   raises inside the callback, so the store quarantines it and the
   caller recomputes. *)

let find_store_bytes t ~kind ~key ~validate ~hit =
  match t.store with
  | None -> None
  | Some s -> (
      let look () =
        Store.find s ~kind ~key (fun ic ->
            let bytes = In_channel.input_all ic in
            validate bytes;
            bytes)
      in
      let found =
        match look () with
        | Some _ as found -> found
        | None when fetch_through t ~kind ~key -> look ()
        | None -> None
      in
      if found <> None then hit ();
      found)

let find_store_stats t w config =
  find_store_bytes t ~kind:"stats" ~key:(stats_key t w config)
    ~validate:(fun b -> ignore (Ddg_paragraph.Stats_codec.of_string b))
    ~hit:(fun () ->
      locked t (fun () -> t.n_stats_store_hits <- t.n_stats_store_hits + 1);
      Obs.incr hit_stats_store)

(* A fresh answer is encoded once; the same string goes to the store,
   the memory tier and the wire. *)
let put_bytes t ~kind ~key ~wall bytes =
  try_put t ~kind ~key ~wall (fun oc -> output_string oc bytes);
  bytes

let cached_bytes t tier ~mem_hit ~what (w : Workload.t) config ~find ~compute =
  let key = (w.name, Ddg_paragraph.Config.describe config) in
  match locked t (fun () -> Hashtbl.find_opt tier key) with
  | Some bytes ->
      Obs.incr mem_hit;
      bytes
  | None ->
      let bytes =
        match find () with
        | Some bytes ->
            t.progress
              (Printf.sprintf "store hit: %s %s [%s]" w.name what (snd key));
            bytes
        | None -> compute ()
      in
      locked t (fun () -> Hashtbl.replace tier key bytes);
      bytes

let analyze_bytes t (w : Workload.t) config =
  cached_bytes t t.stats ~mem_hit:hit_stats_mem ~what:"stats" w config
    ~find:(fun () -> find_store_stats t w config)
    ~compute:(fun () ->
      let _, tr = trace t w in
      t.progress
        (Printf.sprintf "analyzing %s under %s" w.name
           (Ddg_paragraph.Config.describe config));
      let t0 = Unix.gettimeofday () in
      let s = Obs.time span_analyze (fun () -> Ddg_paragraph.Analyzer.analyze config tr) in
      locked t (fun () -> t.n_analyses <- t.n_analyses + 1);
      put_bytes t ~kind:"stats" ~key:(stats_key t w config)
        ~wall:(Unix.gettimeofday () -. t0)
        (Ddg_paragraph.Stats_codec.to_string s))

let analyze t w config =
  Ddg_paragraph.Stats_codec.of_string (analyze_bytes t w config)

(* --- the parallelization advisor -------------------------------------------

   Same three-layer discipline as [analyze]: memory, then the artifact
   store (kind "advise", keyed by the marked trace plus the advisor
   codec version), then compute from the loop-marked trace. The single
   forward pass of {!Ddg_advise.Advise.analyze} is deterministic, so a
   report computed anywhere (in-process, daemon, cluster peer) encodes
   to identical bytes. *)

let advise_bytes t (w : Workload.t) config =
  cached_bytes t t.advice ~mem_hit:hit_advise_mem ~what:"advice" w config
    ~find:(fun () ->
      find_store_bytes t ~kind:"advise" ~key:(advise_key t w config)
        ~validate:(fun b -> ignore (Ddg_advise.Advise_codec.of_string b))
        ~hit:(fun () -> Obs.incr hit_advise_store))
    ~compute:(fun () ->
      let _, tr = marked_trace t w in
      t.progress
        (Printf.sprintf "advising %s under %s" w.name
           (Ddg_paragraph.Config.describe config));
      let t0 = Unix.gettimeofday () in
      let r =
        Obs.time span_advise (fun () -> Ddg_advise.Advise.analyze ~config tr)
      in
      Obs.incr advises_total;
      put_bytes t ~kind:"advise" ~key:(advise_key t w config)
        ~wall:(Unix.gettimeofday () -. t0)
        (Ddg_advise.Advise_codec.to_string r))

let advise t w config =
  Ddg_advise.Advise_codec.of_string (advise_bytes t w config)

(* Cache fill, three layers deep: jobs already in the memory cache are
   dropped; stats present in the disk store are loaded without touching
   (or simulating) any trace; whatever remains becomes a job graph — one
   simulate job per workload feeding one fused-analysis job
   ({!Analyzer.analyze_many}) for that workload's pending configurations
   — executed on a fixed pool of [workers] domains. analyze_many's
   internal domain use is bounded by the pool width so the two levels of
   parallelism compose without oversubscription; the bound changes
   scheduling only, so results are identical whatever [workers] is. *)
let prefetch t jobs =
  let seen = Hashtbl.create 64 in
  let pending =
    List.filter
      (fun ((w : Workload.t), config) ->
        let key = (w.name, Ddg_paragraph.Config.describe config) in
        if locked t (fun () -> Hashtbl.mem t.stats key) || Hashtbl.mem seen key
        then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      jobs
  in
  (* disk-store pass: a stats hit needs no trace at all *)
  let pending =
    List.filter
      (fun ((w : Workload.t), config) ->
        match find_store_stats t w config with
        | Some s ->
            let key = (w.name, Ddg_paragraph.Config.describe config) in
            t.progress
              (Printf.sprintf "store hit: %s stats [%s]" w.name (snd key));
            locked t (fun () -> Hashtbl.replace t.stats key s);
            false
        | None -> true)
      pending
  in
  if pending <> [] then begin
    (* group the pending configurations by workload, keeping job order *)
    let by_workload = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun ((w : Workload.t), config) ->
        match Hashtbl.find_opt by_workload w.name with
        | None ->
            order := w :: !order;
            Hashtbl.add by_workload w.name [ config ]
        | Some cs -> Hashtbl.replace by_workload w.name (config :: cs))
      pending;
    let engine = Jobs.create () in
    let max_domains =
      if t.workers <= 1 then None
      else Some (max 1 (Domain.recommended_domain_count () / t.workers))
    in
    List.iter
      (fun (w : Workload.t) ->
        let configs = List.rev (Hashtbl.find by_workload w.name) in
        let sim =
          Jobs.add engine ~name:("simulate " ^ w.name) (fun () ->
              ignore (trace t w))
        in
        ignore
          (Jobs.add engine ~deps:[ sim ] ~name:("analyze " ^ w.name)
             (fun () ->
               let _, tr = trace t w in
               t.progress
                 (Printf.sprintf "analyzing %s under %d configurations" w.name
                    (List.length configs));
               let t0 = Unix.gettimeofday () in
               let stats =
                 Obs.time span_analyze (fun () ->
                     Ddg_paragraph.Analyzer.analyze_many ?max_domains configs
                       tr)
               in
               locked t (fun () ->
                   t.n_analyses <- t.n_analyses + List.length configs);
               let wall_each =
                 (Unix.gettimeofday () -. t0)
                 /. float_of_int (List.length configs)
               in
               List.iter2
                 (fun config s ->
                   let bytes =
                     put_bytes t ~kind:"stats" ~key:(stats_key t w config)
                       ~wall:wall_each
                       (Ddg_paragraph.Stats_codec.to_string s)
                   in
                   locked t (fun () ->
                       Hashtbl.replace t.stats
                         (w.name, Ddg_paragraph.Config.describe config)
                         bytes))
                 configs stats)))
      (List.rev !order);
    Jobs.run ~workers:t.workers
      ~progress:(function
        | Jobs.Job_done (name, wall) ->
            t.progress (Printf.sprintf "%s: %.2fs" name wall)
        | Jobs.Job_failed (name, _) -> t.progress (name ^ ": failed")
        | Jobs.Job_started _ | Jobs.Job_skipped _ -> ())
      engine
  end
