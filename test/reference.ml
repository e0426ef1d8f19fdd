(* The placement rule of DESIGN.md §6.0, transcribed one bullet at a
   time over record events: a hashed live well, a queue for the
   instruction window, a linear scan for functional units. No packing,
   no banking, no specialisation — this is the slow, obvious reading
   every library engine is checked against, byte for byte. Each step
   names the §6.0 bullet it implements. *)

open Ddg_isa
open Ddg_paragraph
module Trace = Ddg_sim.Trace

(* §6.0 Resource throttle: an operation ready at [ready] issues at the
   least level >= [ready] at which every pool it draws from (the total
   pool and its class pool, whichever are limited) has used < capacity,
   found by a linear scan. *)
module Oracle = struct
  (* a limited pool: its capacity and the units it has used per level *)
  type pool = { cap : int; mutable used : int array }
  type t = { total : pool option; own : Opclass.t -> pool option }

  let create (limits : Config.fu_limits) =
    let pool = Option.map (fun cap -> { cap; used = [||] }) in
    let int_units = pool limits.int_units and fp_units = pool limits.fp_units
    and mem_units = pool limits.mem_units in
    let own : Opclass.t -> pool option = function
      | Int_alu | Int_multiply | Int_divide -> int_units
      | Fp_add_sub | Fp_multiply | Fp_divide -> fp_units
      | Load_store -> mem_units
      | Syscall | Control -> None
    in
    { total = pool limits.total; own }

  let used p level = if level < Array.length p.used then p.used.(level) else 0

  let take p level =
    if level >= Array.length p.used then begin
      let grown = Array.make (max (level + 1) (2 * Array.length p.used)) 0 in
      Array.blit p.used 0 grown 0 (Array.length p.used);
      p.used <- grown
    end;
    p.used.(level) <- p.used.(level) + 1

  let place t cls ready =
    let pools = List.filter_map Fun.id [ t.total; t.own cls ] in
    let room level = List.for_all (fun p -> used p level < p.cap) pools in
    let level = ref ready in
    while not (room !level) do incr level done;
    List.iter (fun p -> take p !level) pools;
    !level
end

(* A value in the live well: where it was created, how deep and how
   often it was used, and whether an operation computed it. *)
type value = {
  created : int;
  mutable deepest : int;
  mutable uses : int;
  computed : bool;
}

let analyze (config : Config.t) (events : Trace.event list) : Analyzer.stats =
  let well : (Loc.t, value) Hashtbl.t = Hashtbl.create 256 in
  let window = Queue.create () in
  let fu = Oracle.create config.fu in
  let predictor = Branch_pred.create config.branch in
  let profile = Profile.create () in
  let lifetimes = Dist.create () and sharing = Dist.create () in
  let liveness = Intervals.create () in
  (* §6.0 Levels: highestLevel H is the first placeable level, 0 at the
     start; deepestLevelYetUsed starts below level 0 *)
  let h = ref 0 and deepest = ref (-1) in
  let placed = ref 0 and syscalls = ref 0 and mispredicts = ref 0 in
  (* §6.0 Retirement *)
  let retire v =
    if v.computed then begin
      Dist.add lifetimes (max 0 (v.deepest - v.created));
      Dist.add sharing v.uses;
      Intervals.add liveness ~lo:v.created ~hi:(max v.deepest v.created)
    end
  in
  (* §6.0 Pre-existing values: the first reference materialises the
     location's value at H - 1 *)
  let lookup loc =
    match Hashtbl.find_opt well loc with
    | Some v -> v
    | None ->
        let v =
          { created = !h - 1; deepest = !h - 1; uses = 0; computed = false }
        in
        Hashtbl.replace well loc v;
        v
  in
  (* §6.0 Ready: max(H - 1, the sources' creation levels) *)
  let ready srcs =
    List.fold_left (fun r loc -> max r (lookup loc).created) (!h - 1) srcs
  in
  (* §6.0 Placement rule: counted in the profile at its level; its
     sources are used there, and its destination's previous value
     retires as the new one is created there *)
  let place (e : Trace.event) level =
    Profile.add profile level;
    incr placed;
    deepest := max !deepest level;
    List.iter
      (fun loc ->
        let v = lookup loc in
        v.deepest <- max v.deepest level;
        v.uses <- v.uses + 1)
      e.srcs;
    Option.iter
      (fun loc ->
        Option.iter retire (Hashtbl.find_opt well loc);
        Hashtbl.replace well loc
          { created = level; deepest = level; uses = 0; computed = true })
      e.dest
  in
  (* §6.0 Storage dependencies: with renaming off for the destination's
     class, Ldest = max(Ldest, Ddest + 1), where Ddest is the later of
     the held value's creation and deepest use *)
  let storage_constraint loc level =
    let renamed =
      match Segment.storage_class_of_loc loc with
      | Loc.Register -> config.renaming.registers
      | Loc.Stack_memory -> config.renaming.stack
      | Loc.Data_memory -> config.renaming.data
    in
    match Hashtbl.find_opt well loc with
    | Some v when not renamed -> max level (max v.created v.deepest + 1)
    | _ -> level
  in
  let step (e : Trace.event) =
    (* §6.0 Window: an event displaced from the window raises H to one
       past its level, before the incoming event is placed *)
    (match config.window with
    | Some w when Queue.length window = w ->
        h := max !h (Queue.pop window + 1)
    | _ -> ());
    let level =
      match e.op_class with
      | Opclass.Control ->
          (* §6.0 Mispredicted branches: H rises to the resolution level,
             one past the branch's readiness *)
          (match e.branch with
          | Some { taken }
            when Branch_pred.mispredicted predictor ~pc:e.pc ~taken ->
              incr mispredicts;
              h := max !h (ready e.srcs + 1)
          | _ -> ());
          (* §6.0 Non-value-creating instructions: no DDG node, but a
             window slot holding H - 1 *)
          !h - 1
      | Opclass.Syscall when config.syscall_stall ->
          (* §6.0 Conservative syscalls: placed after the deepest level
             yet used, then a firewall just past it *)
          incr syscalls;
          let level = max (!deepest + config.latency Opclass.Syscall) !h in
          place e level;
          h := level + 1;
          level
      | Opclass.Syscall ->
          (* §6.0 Conservative syscalls: an optimistic one is ignored *)
          incr syscalls;
          !h - 1
      | cls ->
          (* §6.0 Ready, Storage dependencies, Resource throttle *)
          let level = ready e.srcs + config.latency cls in
          let level =
            match e.dest with
            | Some loc -> storage_constraint loc level
            | None -> level
          in
          let level = Oracle.place fu cls level in
          place e level;
          level
    in
    if config.window <> None then Queue.push level window
  in
  List.iter step events;
  (* §6.0 Retirement: values still live at the end retire too *)
  Hashtbl.iter (fun _ v -> retire v) well;
  let critical_path = !deepest + 1 in
  {
    events = List.length events;
    placed_ops = !placed;
    syscalls = !syscalls;
    critical_path;
    available_parallelism =
      (if critical_path = 0 then 0.0
       else float_of_int !placed /. float_of_int critical_path);
    profile;
    storage_profile = Intervals.to_profile liveness;
    lifetimes;
    sharing;
    live_locations = Hashtbl.length well;
    mispredicts = !mispredicts;
  }
