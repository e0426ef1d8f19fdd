module Protocol = Ddg_protocol.Protocol
module Obs = Ddg_obs.Obs
module Fault = Ddg_fault.Fault
module Server = Ddg_server.Server
module Client = Ddg_server.Client
module Runner = Ddg_experiments.Runner
module Store = Ddg_store.Store

let fetches_total = Obs.counter "ddg_cluster_fetch_attempts_total"
let fetch_hits_total = Obs.counter "ddg_cluster_fetch_hits_total"
let backend_respawns_total = Obs.counter "ddg_backend_respawns_total"
let scrub_repairs_total = Obs.counter "ddg_scrub_repairs_total"
let scrub_pass_ns = Obs.span_site "ddg_scrub_pass_ns"

type member = {
  node : string;
  endpoint : Server.endpoint;
  store_dir : string;
}

let members ~nodes ~base_socket ~base_store =
  if nodes < 1 then invalid_arg "Fleet.members: nodes < 1";
  List.init nodes (fun i ->
      let node = Printf.sprintf "node%d" i in
      { node;
        endpoint = `Unix (Printf.sprintf "%s.%s" base_socket node);
        store_dir = Filename.concat base_store node })

(* --- live membership: one backend's view of the fleet ----------------------- *)

type view = {
  vm : Mutex.t;
  v_self : string;
  v_vnodes : int option;
  mutable v_ring : Ring.t;
  mutable v_peers : (string * Server.endpoint) list;
  mutable v_generation : int;
}

let view ?vnodes ~self ~members:all () =
  { vm = Mutex.create ();
    v_self = self;
    v_vnodes = vnodes;
    v_ring = Ring.create ?vnodes (List.map (fun m -> m.node) all);
    v_peers =
      List.filter_map
        (fun m -> if m.node = self then None else Some (m.node, m.endpoint))
        all;
    v_generation = 0 }

let view_locked v f =
  Mutex.lock v.vm;
  Fun.protect ~finally:(fun () -> Mutex.unlock v.vm) f

let view_snapshot v =
  view_locked v (fun () -> (v.v_ring, v.v_peers, v.v_generation))

let view_update v pairs =
  let parsed =
    List.filter_map
      (fun (node, ep) ->
        match Server.endpoint_of_string ep with
        | Some endpoint -> Some (node, endpoint)
        | None -> None)
      pairs
  in
  match parsed with
  | [] -> () (* an empty or unparseable membership cannot be a ring *)
  | parsed ->
      (* build outside the lock: ring construction hashes every vnode *)
      let ring = Ring.create ?vnodes:v.v_vnodes (List.map fst parsed) in
      let peers = List.filter (fun (n, _) -> n <> v.v_self) parsed in
      view_locked v (fun () ->
          v.v_ring <- ring;
          v.v_peers <- peers;
          v.v_generation <- v.v_generation + 1)

(* flip one payload bit so the importer's digest check must fire; the
   last byte is always content, never the artifact magic *)
let corrupt bytes =
  let b = Bytes.of_string bytes in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 1));
  Bytes.to_string b

(* The one artifact-transfer path. Fetch-through, scrub repair and the
   [pull] verb all copy an artifact by requesting [Forward_range]
   slices on one connection, each written straight into the store's
   import temp file — a small artifact is just one slice, and a pull
   holds at most one slice in the heap whatever the artifact's size.
   [Store.import]'s header, length and digest check is the only
   acceptance gate, and a pull that fails midway leaves nothing
   behind. Fault sites: [cluster.forward.fail] fails the pull as if
   the peer were unreachable, [cluster.fetch.corrupt] flips a byte of
   the final slice, which the digest check must reject. *)
let range_chunk_bytes = 8 * 1024 * 1024
let max_ranged_bytes = 1 lsl 32 (* refuse absurd totals before writing *)

let pull ~connect_timeout_s store endpoint ~kind ~key =
  let slices c oc =
    let rec go offset =
      match
        Client.request c
          (Protocol.Forward_range
             { kind; key; offset; length = range_chunk_bytes })
      with
      | Protocol.Fetched_range { total; data }
        when total > 0 && total <= max_ranged_bytes && data <> "" ->
          let got = offset + String.length data in
          let last = got >= total in
          output_string oc
            (if last && Fault.fire "cluster.fetch.corrupt" then corrupt data
             else data);
          if not last then go got
      | _ -> failwith "empty or implausible slice"
    in
    go 0
  in
  if Fault.fire "cluster.forward.fail" then Error "unreachable (fault-injected)"
  else
    match
      Client.with_connection ~connect_timeout_s endpoint (fun c ->
          Store.import store (slices c))
    with
    | Some (k, k') when k = kind && k' = key -> Ok ()
    | Some _ | None -> Error "rejected on import"
    | exception e -> Error (Printexc.to_string e)

let fetch_hook ~view:v ~connect_timeout_s ~log store ~kind ~key =
  let ring, peers, _ = view_snapshot v in
  let owner = Ring.owner ring (Route.of_store_key key) in
  (* [peers] excludes this node: a key it owns itself is recomputed *)
  match List.assoc_opt owner peers with
  | None -> false
  | Some endpoint -> (
      Obs.incr fetches_total;
      match pull ~connect_timeout_s store endpoint ~kind ~key with
      | Ok () ->
          Obs.incr fetch_hits_total;
          log (Printf.sprintf "fetched %s %s from %s" kind key owner);
          true
      | Error reason ->
          log
            (Printf.sprintf "fetch of %s %s from %s failed (%s); recomputing"
               kind key owner reason);
          false)

(* the [pull] verb: copy one artifact from the named peer, unless a
   verified copy is already here *)
let pull_verb ~view:v ~connect_timeout_s ~log store ~kind ~key ~source =
  let _, peers, _ = view_snapshot v in
  match List.assoc_opt source peers with
  | None ->
      Error
        { Protocol.code = Unknown_node;
          message = Printf.sprintf "%S is not a peer of %s" source v.v_self }
  | Some _ when Store.verify store ~kind ~key = `Ok -> Ok ()
  | Some endpoint -> (
      match pull ~connect_timeout_s store endpoint ~kind ~key with
      | Ok () ->
          log (Printf.sprintf "pulled %s %s from %s" kind key source);
          Ok ()
      | Error reason ->
          Error
            { Protocol.code = Internal;
              message =
                Printf.sprintf "pull of %s %s from %s failed: %s" kind key
                  source reason })

(* --- anti-entropy scrub ----------------------------------------------------- *)

(* pull one artifact back from the first holder in ring order (owner
   first, then successors) — the scrub's repair path after a
   quarantine *)
let refetch ~view:v ~connect_timeout_s store ~kind ~key =
  let ring, peers, _ = view_snapshot v in
  List.exists
    (fun node ->
      match List.assoc_opt node peers with
      | None -> false
      | Some endpoint ->
          Result.is_ok (pull ~connect_timeout_s store endpoint ~kind ~key))
    (Ring.successors ring (Route.of_store_key key))

(* one artifact's scrub: verify in place; a quarantine re-fetches the
   good copy from a peer, and a key whose ring owner is a peer asks
   that owner to pull it — one attempt per membership generation (a
   failed request raises, and the caller logs it) *)
let scrub_one ~view:v ~connect_timeout_s ~log ~asked store ~kind ~key =
  match Store.verify store ~kind ~key with
  | `Missing -> ()
  | `Quarantined ->
      log (Printf.sprintf "scrub: %s %s corrupt, quarantined" kind key);
      if refetch ~view:v ~connect_timeout_s store ~kind ~key then begin
        Obs.incr scrub_repairs_total;
        log (Printf.sprintf "scrub: %s %s repaired from a peer" kind key)
      end
  | `Ok -> (
      let ring, peers, generation = view_snapshot v in
      let owner = Ring.owner ring (Route.of_store_key key) in
      match List.assoc_opt owner peers with
      | Some endpoint when Hashtbl.find_opt asked (kind, key) <> Some generation
        -> (
          (* a later membership change re-arms the request *)
          Hashtbl.replace asked (kind, key) generation;
          match
            Client.with_connection ~connect_timeout_s endpoint (fun c ->
                Client.request c
                  (Protocol.Pull { kind; key; source = v.v_self }))
          with
          | Protocol.Pulled _ ->
              Obs.incr scrub_repairs_total;
              log
                (Printf.sprintf "scrub: owner %s pulled %s %s" owner kind key)
          | _ -> ())
      | Some _ | None -> ())

type scrubber = { sc_stop : bool ref; sc_thread : Thread.t }

let scrub_burst = 20
let scrub_pause_s = 0.05

let start_scrub ~rate ~connect_timeout_s ~log ~view:v store =
  if rate <= 0.0 then invalid_arg "Fleet.start_scrub: rate <= 0";
  let stop = ref false in
  let asked : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let thread =
    Thread.create
      (fun () ->
        (* token bucket: one token per artifact, [rate] tokens/s, at
           most [scrub_burst] banked — an idle store never buys the
           scrub a burst past the cap *)
        let burst = float_of_int scrub_burst in
        let tokens = ref burst in
        let last = ref (Unix.gettimeofday ()) in
        let rec take () =
          if not !stop then begin
            let now = Unix.gettimeofday () in
            tokens := Float.min burst (!tokens +. ((now -. !last) *. rate));
            last := now;
            if !tokens >= 1.0 then tokens := !tokens -. 1.0
            else begin
              Thread.delay (Float.max 0.001 (1.0 /. rate));
              take ()
            end
          end
        in
        while not !stop do
          Obs.time scrub_pass_ns (fun () ->
              List.iter
                (fun (kind, key) ->
                  if not !stop then begin
                    take ();
                    try
                      scrub_one ~view:v ~connect_timeout_s ~log ~asked store
                        ~kind ~key
                    with e ->
                      log
                        (Printf.sprintf "scrub: %s %s: %s" kind key
                           (Printexc.to_string e))
                  end)
                (Store.entries store));
          if not !stop then Thread.delay scrub_pause_s
        done)
      ()
  in
  { sc_stop = stop; sc_thread = thread }

let stop_scrub s =
  s.sc_stop := true;
  Thread.join s.sc_thread

(* --- one backend ------------------------------------------------------------ *)

type backend = {
  server : Server.t;
  runner : Runner.t;
  store : Store.t;
  view : view;
  scrubber : scrubber option;
}

let backend ?vnodes ?workers ?trace_budget ?max_inflight ?default_deadline_s
    ?(connect_timeout_s = 1.0) ?scrub_rate ?(log = ignore) ~size ~members:all
    ~self () =
  let v = view ?vnodes ~self:self.node ~members:all () in
  let store = Store.open_ ~dir:self.store_dir () in
  let runner = Runner.create ~size ~store ?workers ?trace_budget () in
  Runner.set_fetch runner (fetch_hook ~view:v ~connect_timeout_s ~log store);
  let server =
    Server.create ~runner
      ~cluster:
        { Server.node_id = self.node;
          locate =
            (fun key ->
              let ring, _, _ = view_snapshot v in
              Ring.owner ring (Route.of_store_key key));
          update =
            (fun pairs ->
              view_update v pairs;
              log
                (Printf.sprintf "membership now [%s]"
                   (String.concat " " (List.map fst pairs))));
          pull = pull_verb ~view:v ~connect_timeout_s ~log store }
      ?workers ?max_inflight ?default_deadline_s ~log [ self.endpoint ]
  in
  let scrubber =
    Option.map
      (fun rate -> start_scrub ~rate ~connect_timeout_s ~log ~view:v store)
      scrub_rate
  in
  { server; runner; store; view = v; scrubber }

let stop_backend b =
  Server.stop b.server;
  Option.iter stop_scrub b.scrubber

let fork_backend ?vnodes ?workers ?trace_budget ?max_inflight
    ?default_deadline_s ?connect_timeout_s ?scrub_rate ?log ~size ~members
    ~self () =
  match Unix.fork () with
  | 0 ->
      let code =
        try
          let b =
            backend ?vnodes ?workers ?trace_budget ?max_inflight
              ?default_deadline_s ?connect_timeout_s ?scrub_rate ?log ~size
              ~members ~self ()
          in
          Server.install_signal_handlers b.server;
          Server.run b.server;
          Option.iter stop_scrub b.scrubber;
          0
        with e ->
          prerr_endline
            (Printf.sprintf "backend %s died: %s" self.node
               (Printexc.to_string e));
          1
      in
      (* bypass at_exit: the child must not run the parent's exit hooks *)
      Unix._exit code
  | pid -> pid

(* --- supervision ------------------------------------------------------------ *)

let rec write_all fd b pos len =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b pos len

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  write_all fd b 0 (Bytes.length b)

(* split complete lines out of an accumulation buffer, leaving the
   unterminated tail in place *)
let split_lines acc =
  let text = Buffer.contents acc in
  let rec go start lines =
    match String.index_from_opt text start '\n' with
    | Some i -> go (i + 1) (String.sub text start (i - start) :: lines)
    | None ->
        Buffer.clear acc;
        Buffer.add_substring acc text start (String.length text - start);
        List.rev lines
  in
  go 0 []

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit:%d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal:%d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped:%d" s

(* The spawner: a dedicated child forked while the parent is still
   single-threaded, so a respawn is always a fork from a clean
   one-thread image no matter how many router threads the parent has
   since started (fork in a threaded OCaml process only survives in
   the calling thread — locks held elsewhere stay locked forever in
   the child). Line protocol on two pipes: commands
   "spawn\tnode" / "kill\tnode\tsignal" / "stop" down, events
   "spawned\tnode\tpid" / "died\tnode\tstatus" up. *)
let spawner_main ~spawn ~members:all cmd_r ev_w =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let children : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let emit line = try write_line ev_w line with _ -> () in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | pid, status ->
        let node =
          Hashtbl.fold
            (fun n p acc -> if p = pid then Some n else acc)
            children None
        in
        (match node with
        | Some n ->
            Hashtbl.remove children n;
            emit (Printf.sprintf "died\t%s\t%s" n (describe_status status))
        | None -> ());
        reap ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> reap ()
  in
  let handle = function
    | [ "spawn"; node ] -> (
        match List.find_opt (fun m -> m.node = node) all with
        | Some m when not (Hashtbl.mem children node) ->
            let pid = spawn m in
            Hashtbl.replace children node pid;
            emit (Printf.sprintf "spawned\t%s\t%d" node pid)
        | Some _ | None -> ())
    | [ "kill"; node; signal ] -> (
        match (Hashtbl.find_opt children node, int_of_string_opt signal) with
        | Some pid, Some s -> (
            try Unix.kill pid s with Unix.Unix_error _ -> ())
        | _ -> ())
    | [ "stop" ] -> raise Exit
    | _ -> ()
  in
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  (try
     while true do
       (match Unix.select [ cmd_r ] [] [] 0.05 with
       | [], _, _ -> ()
       | _ :: _, _, _ -> (
           match Unix.read cmd_r chunk 0 (Bytes.length chunk) with
           | 0 -> raise Exit (* parent is gone *)
           | n -> Buffer.add_subbytes acc chunk 0 n
           | exception Unix.Unix_error (EINTR, _, _) -> ())
       | exception Unix.Unix_error (EINTR, _, _) -> ());
       List.iter
         (fun line -> handle (String.split_on_char '\t' line))
         (split_lines acc);
       reap ()
     done
   with Exit -> ());
  (* drain: ask nicely, give the fleet a moment, then kill hard *)
  Hashtbl.iter
    (fun _ pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    children;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Hashtbl.length children > 0 && Unix.gettimeofday () < deadline do
    reap ();
    if Hashtbl.length children > 0 then Unix.sleepf 0.02
  done;
  Hashtbl.iter
    (fun _ pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    children;
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Hashtbl.length children > 0 && Unix.gettimeofday () < deadline do
    reap ();
    if Hashtbl.length children > 0 then Unix.sleepf 0.01
  done

type node_state = {
  mutable ns_pid : int option;
  mutable ns_deaths : float list; (* recent death times, newest first *)
  mutable ns_respawn_at : float option;
  mutable ns_decommissioned : bool;
}

type supervisor = {
  sup_cmd_w : Unix.file_descr;
  sup_ev_r : Unix.file_descr;
  sup_pid : int;
  sup_lock : Mutex.t;
  sup_nodes : (string, node_state) Hashtbl.t;
  mutable sup_stopping : bool;
  mutable sup_watcher : Thread.t option;
  mutable sup_respawns : int;
  sup_backoff_base_s : float;
  sup_backoff_max_s : float;
  sup_flap_window_s : float;
  sup_flap_max : int;
  sup_log : string -> unit;
}

let supervisor ?(backoff_base_s = 0.1) ?(backoff_max_s = 5.0)
    ?(flap_window_s = 10.0) ?(flap_max = 5) ?(log = ignore) ~spawn
    ~members:all () =
  if flap_max < 1 then invalid_arg "Fleet.supervisor: flap_max < 1";
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let ev_r, ev_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close cmd_w;
      Unix.close ev_r;
      (try spawner_main ~spawn ~members:all cmd_r ev_w with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close cmd_r;
      Unix.close ev_w;
      { sup_cmd_w = cmd_w;
        sup_ev_r = ev_r;
        sup_pid = pid;
        sup_lock = Mutex.create ();
        sup_nodes = Hashtbl.create 8;
        sup_stopping = false;
        sup_watcher = None;
        sup_respawns = 0;
        sup_backoff_base_s = backoff_base_s;
        sup_backoff_max_s = backoff_max_s;
        sup_flap_window_s = flap_window_s;
        sup_flap_max = flap_max;
        sup_log = log }

let sup_locked sup f =
  Mutex.lock sup.sup_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sup.sup_lock) f

let sup_send sup line =
  sup_locked sup (fun () ->
      try write_line sup.sup_cmd_w line
      with Unix.Unix_error _ | Sys_error _ -> ())

let supervisor_spawn sup node =
  sup_locked sup (fun () ->
      if not (Hashtbl.mem sup.sup_nodes node) then
        Hashtbl.replace sup.sup_nodes node
          { ns_pid = None;
            ns_deaths = [];
            ns_respawn_at = None;
            ns_decommissioned = false });
  sup_send sup ("spawn\t" ^ node)

let supervisor_kill ?signal sup node =
  let s = match signal with Some s -> s | None -> Sys.sigkill in
  sup_send sup (Printf.sprintf "kill\t%s\t%d" node s)

let supervisor_decommissioned sup node =
  sup_locked sup (fun () ->
      match Hashtbl.find_opt sup.sup_nodes node with
      | Some ns ->
          ns.ns_decommissioned <- true;
          ns.ns_respawn_at <- None
      | None -> ())

let supervisor_watch ?(on_decommission = fun _ -> ()) sup =
  if sup.sup_watcher <> None then
    invalid_arg "Fleet.supervisor_watch: already watching";
  let chaos_rr = ref 0 in
  let handle line =
    match String.split_on_char '\t' line with
    | [ "spawned"; node; pid ] -> (
        match int_of_string_opt pid with
        | Some pid ->
            sup_locked sup (fun () ->
                match Hashtbl.find_opt sup.sup_nodes node with
                | Some ns -> ns.ns_pid <- Some pid
                | None -> ());
            sup.sup_log (Printf.sprintf "backend %s up (pid %d)" node pid)
        | None -> ())
    | [ "died"; node; status ] -> (
        let now = Unix.gettimeofday () in
        let action =
          sup_locked sup (fun () ->
              match Hashtbl.find_opt sup.sup_nodes node with
              | None -> `Ignore
              | Some ns ->
                  ns.ns_pid <- None;
                  if sup.sup_stopping || ns.ns_decommissioned then `Ignore
                  else begin
                    ns.ns_deaths <-
                      now
                      :: List.filter
                           (fun t -> now -. t <= sup.sup_flap_window_s)
                           ns.ns_deaths;
                    let deaths = List.length ns.ns_deaths in
                    if deaths >= sup.sup_flap_max then begin
                      ns.ns_decommissioned <- true;
                      `Flap
                    end
                    else begin
                      let backoff =
                        Float.min sup.sup_backoff_max_s
                          (sup.sup_backoff_base_s
                          *. (2.0 ** float_of_int (deaths - 1)))
                      in
                      ns.ns_respawn_at <- Some (now +. backoff);
                      `Respawn_in backoff
                    end
                  end)
        in
        match action with
        | `Ignore -> ()
        | `Flap ->
            sup.sup_log
              (Printf.sprintf
                 "backend %s (%s) died %d times inside %.0fs; \
                  decommissioning instead of respawning"
                 node status sup.sup_flap_max sup.sup_flap_window_s);
            on_decommission node
        | `Respawn_in backoff ->
            sup.sup_log
              (Printf.sprintf "backend %s died (%s); respawn in %.2fs" node
                 status backoff))
    | _ -> ()
  in
  let fire_due () =
    let now = Unix.gettimeofday () in
    let due =
      sup_locked sup (fun () ->
          Hashtbl.fold
            (fun node ns acc ->
              match ns.ns_respawn_at with
              | Some at
                when at <= now && (not ns.ns_decommissioned)
                     && not sup.sup_stopping ->
                  ns.ns_respawn_at <- None;
                  sup.sup_respawns <- sup.sup_respawns + 1;
                  node :: acc
              | _ -> acc)
            sup.sup_nodes [])
    in
    List.iter
      (fun node ->
        Obs.incr backend_respawns_total;
        sup.sup_log (Printf.sprintf "respawning backend %s" node);
        sup_send sup ("spawn\t" ^ node))
      due
  in
  let chaos () =
    (* deterministic chaos: the fault injector picks the moments, a
       round-robin cursor picks the victim *)
    if Fault.fire "cluster.backend.kill" then begin
      let running =
        sup_locked sup (fun () ->
            Hashtbl.fold
              (fun node ns acc ->
                if ns.ns_pid <> None && not ns.ns_decommissioned then
                  node :: acc
                else acc)
              sup.sup_nodes [])
        |> List.sort compare
      in
      match running with
      | [] -> ()
      | l ->
          let victim = List.nth l (!chaos_rr mod List.length l) in
          incr chaos_rr;
          sup.sup_log (Printf.sprintf "chaos: killing backend %s" victim);
          supervisor_kill sup victim
    end
  in
  let watcher =
    Thread.create
      (fun () ->
        let acc = Buffer.create 256 in
        let chunk = Bytes.create 4096 in
        let running = ref true in
        while !running do
          (match Unix.select [ sup.sup_ev_r ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
              match Unix.read sup.sup_ev_r chunk 0 (Bytes.length chunk) with
              | 0 -> running := false (* spawner exited *)
              | n -> Buffer.add_subbytes acc chunk 0 n
              | exception Unix.Unix_error (EINTR, _, _) -> ())
          | exception Unix.Unix_error (EINTR, _, _) -> ());
          List.iter handle (split_lines acc);
          fire_due ();
          chaos ()
        done)
      ()
  in
  sup.sup_watcher <- Some watcher

let supervisor_status sup =
  sup_locked sup (fun () ->
      Hashtbl.fold
        (fun node ns acc ->
          let st =
            if ns.ns_decommissioned then `Decommissioned
            else
              match ns.ns_pid with
              | Some pid -> `Running pid
              | None -> `Restarting
          in
          (node, st) :: acc)
        sup.sup_nodes [])
  |> List.sort compare

let supervisor_respawns sup = sup_locked sup (fun () -> sup.sup_respawns)

let supervisor_stop sup =
  sup_locked sup (fun () -> sup.sup_stopping <- true);
  sup_send sup "stop";
  (match sup.sup_watcher with
  | Some t ->
      Thread.join t;
      sup.sup_watcher <- None
  | None -> ());
  (try ignore (Unix.waitpid [] sup.sup_pid) with Unix.Unix_error _ -> ());
  (try Unix.close sup.sup_cmd_w with Unix.Unix_error _ -> ());
  try Unix.close sup.sup_ev_r with Unix.Unix_error _ -> ()
