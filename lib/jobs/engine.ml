type state =
  | Waiting of int  (* unfinished dependency count, > 0 *)
  | Ready
  | Running
  | Done of float   (* wall seconds *)
  | Failed of exn
  | Skipped

type event =
  | Job_started of string
  | Job_done of string * float
  | Job_failed of string * exn
  | Job_skipped of string

type job = {
  name : string;
  thunk : unit -> unit;
  owner : t;
  mutable state : state;
  mutable dependents : job list;
}

and t = {
  lock : Mutex.t;
  cond : Condition.t;
  ready : job Queue.t;
  mutable jobs : job list;     (* newest first *)
  mutable remaining : int;     (* jobs not yet Done/Failed/Skipped, while running *)
  mutable failure : exn option;
  mutable running : bool;
}

let create () =
  { lock = Mutex.create (); cond = Condition.create (); ready = Queue.create ();
    jobs = []; remaining = 0; failure = None; running = false }

let name j = j.name
let wall j = match j.state with Done w -> Some w | _ -> None

let add t ?(deps = []) ~name thunk =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      if t.running then invalid_arg "Jobs.add: engine is running";
      List.iter
        (fun d ->
          if d.owner != t then invalid_arg "Jobs.add: foreign dependency")
        deps;
      let pending =
        List.length
          (List.filter (fun d -> match d.state with Done _ -> false | _ -> true)
             deps)
      in
      let j =
        { name; thunk; owner = t;
          state = (if pending = 0 then Ready else Waiting pending);
          dependents = [] }
      in
      List.iter
        (fun d ->
          match d.state with
          | Done _ -> ()
          | _ -> d.dependents <- j :: d.dependents)
        deps;
      t.jobs <- j :: t.jobs;
      j)

(* Skip a failed job's dependents, transitively. Lock held. *)
let rec skip t progress j =
  match j.state with
  | Waiting _ | Ready ->
      j.state <- Skipped;
      t.remaining <- t.remaining - 1;
      progress (Job_skipped j.name);
      List.iter (skip t progress) j.dependents
  | Running | Done _ | Failed _ | Skipped -> ()

let worker t progress () =
  Mutex.lock t.lock;
  let rec loop () =
    if t.remaining = 0 then Mutex.unlock t.lock
    else
      match Queue.take_opt t.ready with
      | None ->
          Condition.wait t.cond t.lock;
          loop ()
      | Some j ->
          j.state <- Running;
          progress (Job_started j.name);
          Mutex.unlock t.lock;
          let t0 = Unix.gettimeofday () in
          let outcome = try Ok (j.thunk ()) with e -> Error e in
          let elapsed = Unix.gettimeofday () -. t0 in
          Mutex.lock t.lock;
          (match outcome with
          | Ok () ->
              j.state <- Done elapsed;
              t.remaining <- t.remaining - 1;
              progress (Job_done (j.name, elapsed));
              List.iter
                (fun d ->
                  match d.state with
                  | Waiting 1 ->
                      d.state <- Ready;
                      Queue.add d t.ready
                  | Waiting n -> d.state <- Waiting (n - 1)
                  | _ -> ())
                j.dependents
          | Error e ->
              j.state <- Failed e;
              t.remaining <- t.remaining - 1;
              if t.failure = None then t.failure <- Some e;
              progress (Job_failed (j.name, e));
              List.iter (skip t progress) j.dependents);
          Condition.broadcast t.cond;
          loop ()
  in
  loop ()

let run ?workers ?(progress = fun _ -> ()) t =
  Mutex.lock t.lock;
  if t.running then begin
    Mutex.unlock t.lock;
    invalid_arg "Jobs.run: engine is already running"
  end;
  t.running <- true;
  t.failure <- None;
  Queue.clear t.ready;
  let pending =
    List.filter
      (fun j -> match j.state with Ready | Waiting _ -> true | _ -> false)
      (List.rev t.jobs)
  in
  List.iter
    (fun j -> match j.state with Ready -> Queue.add j t.ready | _ -> ())
    pending;
  t.remaining <- List.length pending;
  Mutex.unlock t.lock;
  let workers =
    let w =
      match workers with
      | Some w -> max 1 w
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min w (List.length pending))
  in
  let helpers =
    List.init (workers - 1) (fun _ -> Domain.spawn (worker t progress))
  in
  worker t progress ();
  List.iter Domain.join helpers;
  Mutex.lock t.lock;
  t.running <- false;
  let failure = t.failure in
  Mutex.unlock t.lock;
  match failure with Some e -> raise e | None -> ()

(* --- persistent worker pool -------------------------------------------------

   The one-shot graph engine above drains and returns; a daemon needs a
   pool that outlives any single request. [Pool] keeps a fixed set of
   domains blocked on a queue of submitted closures. Each submission
   returns a ticket; completion is signalled through a pipe so a waiter
   can block with a deadline via [Unix.select] (stdlib [Condition] has
   no timed wait). The submit path is where backpressure lives: with
   [max_inflight] set, a full pool refuses the closure outright instead
   of queueing it behind an unbounded backlog. *)

module Pool = struct
  exception Worker_crashed of string

  module Obs = Ddg_obs.Obs

  (* Observability sites: how long a submission sat in the queue before
     a worker picked it up, and how long the closure itself ran. *)
  let span_queue_wait = Obs.span_site "ddg_pool_queue_wait_ns"
  let span_run = Obs.span_site "ddg_pool_run_ns"

  (* [run] executes the closure and completes the ticket; [abort] fails
     the ticket without running it — the supervisor's lever when the
     worker domain dies between dequeuing a task and finishing it. Both
     free the task's inflight slot (see [release]). *)
  type task = { run : unit -> unit; abort : exn -> unit }

  type t = {
    plock : Mutex.t;
    pcond : Condition.t;
    pqueue : task Queue.t;
    mutable inflight : int; (* queued + running *)
    mutable stop : bool;
    mutable domains : unit Domain.t list;
    mutable respawns : int; (* workers replaced after a crash *)
    pool_workers : int;
  }

  type 'a outcome = Pending | Completed of ('a, exn) result | Abandoned

  (* Each pipe end has exactly one owner: the worker closes [notify_w]
     (always, whether it completed or found the ticket abandoned) and
     the awaiter closes [notify_r] on every exit path of [await]. No fd
     is ever closed by both sides, so a number reused by the kernel in
     between can never be closed out from under another connection. *)
  type 'a ticket = {
    tlock : Mutex.t;
    mutable outcome : 'a outcome;
    notify_r : Unix.file_descr;
    notify_w : Unix.file_descr;
    cancelled : bool Atomic.t;
  }

  let worker_loop p =
    Mutex.lock p.plock;
    let rec loop () =
      match Queue.take_opt p.pqueue with
      | Some task ->
          Mutex.unlock p.plock;
          (* the supervised region: an exception escaping here — the
             injected crash, or in real life an asynchronous exception
             like Out_of_memory landing outside [task.run]'s own
             handler — kills this domain. Fail the one ticket the crash
             took with it, free its slot, and unwind to the supervisor;
             every other queued task is untouched. *)
          (try
             Ddg_fault.Fault.inject "jobs.worker.crash";
             task.run ()
           with e ->
             task.abort (Worker_crashed (Printexc.to_string e));
             raise e);
          Mutex.lock p.plock;
          loop ()
      | None ->
          if p.stop then Mutex.unlock p.plock
          else begin
            Condition.wait p.pcond p.plock;
            loop ()
          end
    in
    loop ()

  (* Supervisor: each pool domain runs the loop under a catch-all; on a
     crash it spawns its own replacement (unless the pool is shutting
     down) and exits cleanly so [Domain.join] never re-raises. The pool
     therefore never shrinks: [pool_size] domains are live whenever any
     submission can still be queued. *)
  let rec pool_worker p () =
    try worker_loop p
    with _ ->
      Mutex.lock p.plock;
      p.respawns <- p.respawns + 1;
      if not p.stop then p.domains <- Domain.spawn (pool_worker p) :: p.domains;
      Mutex.unlock p.plock

  let pool ?workers () =
    let pool_workers =
      max 1
        (match workers with
        | Some w -> w
        | None -> Domain.recommended_domain_count ())
    in
    let p =
      { plock = Mutex.create (); pcond = Condition.create ();
        pqueue = Queue.create (); inflight = 0; stop = false; domains = [];
        respawns = 0; pool_workers }
    in
    p.domains <- List.init pool_workers (fun _ -> Domain.spawn (pool_worker p));
    p

  let pool_size p = p.pool_workers

  let pool_respawns p =
    Mutex.lock p.plock;
    let n = p.respawns in
    Mutex.unlock p.plock;
    n

  let pool_inflight p =
    Mutex.lock p.plock;
    let n = p.inflight in
    Mutex.unlock p.plock;
    n

  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

  (* A task frees its inflight slot once, from [run] or from [abort],
     and before its ticket can be seen complete: a caller submitting
     again as soon as [await] returns is never refused for a slot its
     finished request still held. *)
  let release p =
    Mutex.lock p.plock;
    p.inflight <- p.inflight - 1;
    Mutex.unlock p.plock

  let submit p ?max_inflight f =
    Mutex.lock p.plock;
    let refused =
      p.stop
      || match max_inflight with Some m -> p.inflight >= m | None -> false
    in
    if refused then begin
      Mutex.unlock p.plock;
      None
    end
    else begin
      p.inflight <- p.inflight + 1;
      let notify_r, notify_w = Unix.pipe ~cloexec:true () in
      let ticket =
        { tlock = Mutex.create (); outcome = Pending; notify_r; notify_w;
          cancelled = Atomic.make false }
      in
      let complete result =
        release p;
        Mutex.lock ticket.tlock;
        (match ticket.outcome with
        | Abandoned ->
            (* the waiter timed out, closed [notify_r], and went away:
               nobody will read the result; the worker still owns only
               the write end *)
            close_quietly ticket.notify_w
        | Pending ->
            ticket.outcome <- Completed result;
            (try ignore (Unix.write ticket.notify_w (Bytes.make 1 '\000') 0 1)
             with Unix.Unix_error _ -> ());
            close_quietly ticket.notify_w
        | Completed _ ->
            (* already completed: the write end is closed; nothing to do *)
            ());
        Mutex.unlock ticket.tlock
      in
      (* [t_submit = 0] means observability was off at submit time: the
         pickup then skips the queue-wait sample rather than recording a
         wait measured from the epoch *)
      let t_submit = if Obs.enabled () then Obs.Clock.now_ns () else 0 in
      let run () =
        if t_submit > 0 then
          Obs.observe span_queue_wait (Obs.Clock.now_ns () - t_submit);
        let poll () = Atomic.get ticket.cancelled in
        (* close the span before signalling completion, so the span's
           final clock read happens-before the waiter resumes — under a
           deterministic clock the read order is then reproducible *)
        complete (Obs.time span_run (fun () -> try Ok (f poll) with e -> Error e))
      in
      let abort e = complete (Error e) in
      Queue.add { run; abort } p.pqueue;
      Condition.signal p.pcond;
      Mutex.unlock p.plock;
      Some ticket
    end

  let rec select_read fd timeout =
    match Unix.select [ fd ] [] [] timeout with
    | readable, _, _ -> readable <> []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fd timeout

  let await ?timeout_s ticket =
    let deadline =
      Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s
    in
    let rec wait () =
      Mutex.lock ticket.tlock;
      match ticket.outcome with
      | Completed result ->
          ticket.outcome <- Abandoned;
          close_quietly ticket.notify_r;
          Mutex.unlock ticket.tlock;
          (match result with
          | Ok v -> Ok v
          | Error e -> Error (`Failed e))
      | Abandoned ->
          Mutex.unlock ticket.tlock;
          invalid_arg "Pool.await: ticket already consumed"
      | Pending ->
          Mutex.unlock ticket.tlock;
          let remaining =
            match deadline with
            | None -> -1.0 (* negative = wait forever *)
            | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
          in
          if select_read ticket.notify_r remaining then wait ()
          else begin
            (* timed out; recheck under the lock in case the worker won
               the race, then abandon the ticket to the worker *)
            Mutex.lock ticket.tlock;
            match ticket.outcome with
            | Completed result ->
                ticket.outcome <- Abandoned;
                close_quietly ticket.notify_r;
                Mutex.unlock ticket.tlock;
                (match result with
                | Ok v -> Ok v
                | Error e -> Error (`Failed e))
            | Pending ->
                ticket.outcome <- Abandoned;
                Atomic.set ticket.cancelled true;
                close_quietly ticket.notify_r;
                Mutex.unlock ticket.tlock;
                Error `Timeout
            | Abandoned ->
                Mutex.unlock ticket.tlock;
                invalid_arg "Pool.await: ticket already consumed"
          end
    in
    wait ()

  let shutdown p =
    Mutex.lock p.plock;
    if not p.stop then begin
      p.stop <- true;
      Condition.broadcast p.pcond;
      let domains = p.domains in
      p.domains <- [];
      Mutex.unlock p.plock;
      List.iter Domain.join domains
    end
    else Mutex.unlock p.plock
end
