(* Tests for the dependency-aware job engine: ordering, diamond
   dependencies, failure containment (skip + re-raise), per-job timing,
   incremental re-runs, and a parallel stress run. *)

module Engine = Ddg_jobs.Engine

(* Execution order log, safe to append to from worker domains. *)
let make_log () =
  let lock = Mutex.create () and log = ref [] in
  let record name =
    Mutex.lock lock;
    log := name :: !log;
    Mutex.unlock lock
  in
  let contents () =
    Mutex.lock lock;
    let l = List.rev !log in
    Mutex.unlock lock;
    l
  in
  (record, contents)

let index name order =
  let rec go i = function
    | [] -> Alcotest.failf "%s never ran" name
    | x :: _ when x = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 order

let test_submission_order () =
  (* workers = 1 runs ready jobs sequentially in submission order *)
  let record, contents = make_log () in
  let t = Engine.create () in
  List.iter
    (fun name -> ignore (Engine.add t ~name (fun () -> record name)))
    [ "a"; "b"; "c"; "d" ];
  Engine.run ~workers:1 t;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c"; "d" ] (contents ())

let test_deps_respected () =
  let record, contents = make_log () in
  let t = Engine.create () in
  let a = Engine.add t ~name:"a" (fun () -> record "a") in
  let b = Engine.add t ~deps:[ a ] ~name:"b" (fun () -> record "b") in
  let c = Engine.add t ~deps:[ a ] ~name:"c" (fun () -> record "c") in
  ignore (Engine.add t ~deps:[ b; c ] ~name:"d" (fun () -> record "d"));
  Engine.run ~workers:4 t;
  let order = contents () in
  Alcotest.(check int) "all ran" 4 (List.length order);
  let i name = index name order in
  Alcotest.(check bool) "a before b" true (i "a" < i "b");
  Alcotest.(check bool) "a before c" true (i "a" < i "c");
  Alcotest.(check bool) "b before d" true (i "b" < i "d");
  Alcotest.(check bool) "c before d" true (i "c" < i "d")

exception Boom

let test_failure_skips_and_reraises () =
  let record, contents = make_log () in
  let events_lock = Mutex.create () and events = ref [] in
  let progress e =
    Mutex.lock events_lock;
    events := e :: !events;
    Mutex.unlock events_lock
  in
  let t = Engine.create () in
  let bad = Engine.add t ~name:"bad" (fun () -> raise Boom) in
  let child = Engine.add t ~deps:[ bad ] ~name:"child" (fun () -> record "child") in
  ignore
    (Engine.add t ~deps:[ child ] ~name:"grandchild" (fun () ->
         record "grandchild"));
  ignore (Engine.add t ~name:"independent" (fun () -> record "independent"));
  (match Engine.run ~workers:2 ~progress t with
  | () -> Alcotest.fail "expected Boom to be re-raised"
  | exception Boom -> ());
  Alcotest.(check (list string))
    "only the independent job ran" [ "independent" ] (contents ());
  let skipped =
    List.filter_map
      (function Engine.Job_skipped n -> Some n | _ -> None)
      !events
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "dependents skipped transitively" [ "child"; "grandchild" ] skipped;
  Alcotest.(check bool) "failure event delivered" true
    (List.exists
       (function Engine.Job_failed ("bad", Boom) -> true | _ -> false)
       !events)

let test_wall_times () =
  let t = Engine.create () in
  let ok = Engine.add t ~name:"ok" (fun () -> ignore (Sys.opaque_identity 1)) in
  let bad = Engine.add t ~name:"bad" (fun () -> raise Boom) in
  (try Engine.run ~workers:1 t with Boom -> ());
  (match Engine.wall ok with
  | Some w -> Alcotest.(check bool) "nonnegative wall" true (w >= 0.0)
  | None -> Alcotest.fail "completed job has no wall time");
  Alcotest.(check bool) "failed job has no wall time" true
    (Engine.wall bad = None);
  Alcotest.(check string) "names kept" "ok" (Engine.name ok)

let test_run_again () =
  (* a second run sees already-completed dependencies as satisfied *)
  let record, contents = make_log () in
  let t = Engine.create () in
  let a = Engine.add t ~name:"a" (fun () -> record "a") in
  Engine.run ~workers:1 t;
  ignore (Engine.add t ~deps:[ a ] ~name:"b" (fun () -> record "b"));
  Engine.run ~workers:1 t;
  Alcotest.(check (list string)) "both ran once" [ "a"; "b" ] (contents ())

let test_foreign_dep_rejected () =
  let t1 = Engine.create () and t2 = Engine.create () in
  let a = Engine.add t1 ~name:"a" (fun () -> ()) in
  match Engine.add t2 ~deps:[ a ] ~name:"b" (fun () -> ()) with
  | _ -> Alcotest.fail "foreign dependency accepted"
  | exception Invalid_argument _ -> ()

let test_parallel_stress () =
  (* chains hanging off a shared root: every job runs exactly once and
     every chain runs in order, whatever the pool does *)
  let n_chains = 8 and chain_len = 5 in
  let ran = Atomic.make 0 in
  let record, contents = make_log () in
  let t = Engine.create () in
  let root =
    Engine.add t ~name:"root" (fun () ->
        Atomic.incr ran;
        record "root")
  in
  for c = 0 to n_chains - 1 do
    let prev = ref root in
    for k = 0 to chain_len - 1 do
      let name = Printf.sprintf "%d.%d" c k in
      prev :=
        Engine.add t ~deps:[ !prev ] ~name (fun () ->
            Atomic.incr ran;
            record name)
    done
  done;
  Engine.run ~workers:4 t;
  Alcotest.(check int) "every job ran exactly once"
    (1 + (n_chains * chain_len))
    (Atomic.get ran);
  let order = contents () in
  for c = 0 to n_chains - 1 do
    for k = 1 to chain_len - 1 do
      let earlier = Printf.sprintf "%d.%d" c (k - 1)
      and later = Printf.sprintf "%d.%d" c k in
      Alcotest.(check bool)
        (Printf.sprintf "chain %d link %d ordered" c k)
        true
        (index earlier order < index later order)
    done
  done

let test_pool_timeout_cancels () =
  let module Pool = Engine.Pool in
  let p = Pool.pool ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let saw_cancel = Atomic.make false in
      let ticket =
        match
          Pool.submit p (fun cancelled ->
              (* hold the worker until the awaiter's timeout flips the
                 cancellation poll *)
              let give_up = Unix.gettimeofday () +. 5.0 in
              while (not (cancelled ())) && Unix.gettimeofday () < give_up do
                Thread.delay 0.002
              done;
              Atomic.set saw_cancel (cancelled ()))
        with
        | Some t -> t
        | None -> Alcotest.fail "submit refused"
      in
      (match Pool.await ~timeout_s:0.05 ticket with
      | Error `Timeout -> ()
      | Ok () -> Alcotest.fail "expected a timeout"
      | Error (`Failed e) -> raise e);
      (* the abandoned worker observes cancellation and frees its slot *)
      let give_up = Unix.gettimeofday () +. 5.0 in
      while Pool.pool_inflight p > 0 && Unix.gettimeofday () < give_up do
        Thread.delay 0.002
      done;
      Alcotest.(check int) "slot released" 0 (Pool.pool_inflight p);
      Alcotest.(check bool) "cancellation observed" true
        (Atomic.get saw_cancel);
      (* the pool still serves fresh work after an abandoned ticket,
         and its pipe fds are intact *)
      match Pool.submit p (fun _ -> 42) with
      | None -> Alcotest.fail "submit refused after abandonment"
      | Some t -> (
          match Pool.await ~timeout_s:5.0 t with
          | Ok v -> Alcotest.(check int) "post-abandon result" 42 v
          | Error `Timeout -> Alcotest.fail "post-abandon timeout"
          | Error (`Failed e) -> raise e))

let test_pool_supervisor_respawns () =
  let module Pool = Engine.Pool in
  let module Fault = Ddg_fault.Fault in
  let p = Pool.pool ~workers:2 () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Pool.shutdown p)
    (fun () ->
      (* first pickup crashes the worker domain itself (budget 1), every
         later pickup is clean *)
      Fault.enable ~seed:0
        ~sites:
          [ ( "jobs.worker.crash",
              { Fault.probability = 1.0; budget = Some 1 } ) ];
      let ticket =
        match Pool.submit p (fun _ -> 1) with
        | Some t -> t
        | None -> Alcotest.fail "submit refused"
      in
      (match Pool.await ~timeout_s:5.0 ticket with
      | Error (`Failed (Pool.Worker_crashed _)) -> ()
      | Error (`Failed e) ->
          Alcotest.failf "expected Worker_crashed, got %s"
            (Printexc.to_string e)
      | Error `Timeout -> Alcotest.fail "crashed ticket never resolved"
      | Ok _ -> Alcotest.fail "crashed task reported success");
      (* the dead domain is replaced: the pool regains full strength *)
      let give_up = Unix.gettimeofday () +. 5.0 in
      while Pool.pool_respawns p < 1 && Unix.gettimeofday () < give_up do
        Thread.delay 0.002
      done;
      Alcotest.(check int) "one respawn" 1 (Pool.pool_respawns p);
      Alcotest.(check int) "pool never shrinks" 2 (Pool.pool_size p);
      Alcotest.(check int) "no stuck inflight slot" 0 (Pool.pool_inflight p);
      (* both workers still serve: saturate the pool with fresh work *)
      let tickets =
        List.init 4 (fun i ->
            match Pool.submit p (fun _ -> 10 + i) with
            | Some t -> t
            | None -> Alcotest.fail "submit refused after respawn")
      in
      List.iteri
        (fun i t ->
          match Pool.await ~timeout_s:5.0 t with
          | Ok v -> Alcotest.(check int) "post-respawn result" (10 + i) v
          | Error `Timeout -> Alcotest.fail "post-respawn timeout"
          | Error (`Failed e) -> raise e)
        tickets)

let test_pool_slot_freed_before_completion () =
  (* a finished request's slot is free by the time its await returns: a
     sequential caller on a one-slot pool is never refused Busy *)
  let module Pool = Engine.Pool in
  let p = Pool.pool ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let refused = ref 0 in
      for i = 1 to 10_000 do
        match Pool.submit p ~max_inflight:1 (fun _ -> i) with
        | None -> incr refused
        | Some t -> (
            match Pool.await ~timeout_s:5.0 t with
            | Ok v -> if v <> i then Alcotest.failf "ticket %d got %d" i v
            | Error `Timeout -> Alcotest.fail "await timed out"
            | Error (`Failed e) -> raise e)
      done;
      Alcotest.(check int) "refusals after a completed await" 0 !refused)

let tests =
  [ Alcotest.test_case "submission order (sequential)" `Quick
      test_submission_order;
    Alcotest.test_case "dependencies respected" `Quick test_deps_respected;
    Alcotest.test_case "failure skips dependents and re-raises" `Quick
      test_failure_skips_and_reraises;
    Alcotest.test_case "wall times recorded" `Quick test_wall_times;
    Alcotest.test_case "incremental re-run" `Quick test_run_again;
    Alcotest.test_case "foreign dependency rejected" `Quick
      test_foreign_dep_rejected;
    Alcotest.test_case "parallel stress" `Quick test_parallel_stress;
    Alcotest.test_case "pool timeout abandons and cancels" `Quick
      test_pool_timeout_cancels;
    Alcotest.test_case "pool supervisor respawns crashed workers" `Quick
      test_pool_supervisor_respawns;
    Alcotest.test_case "pool frees a slot before completing its ticket"
      `Quick test_pool_slot_freed_before_completion ]
