open Ddg_isa
module Obs = Ddg_obs.Obs
module BA1 = Bigarray.Array1

(* Observability sites, one per analyzer phase (Obs sites are static:
   registered once at module initialisation, nearly free while the obs
   layer is disabled). The row pass is spanned as a whole — live-well
   phase for plain dataflow configurations, window phase when discrete
   placement constraints are in play — never per event: the hot loop
   stays allocation- and probe-free. *)
let span_well = Obs.span_site ~labels:[ ("phase", "live_well") ] "ddg_analyze_phase_ns"
let span_window = Obs.span_site ~labels:[ ("phase", "window") ] "ddg_analyze_phase_ns"
let span_stats = Obs.span_site ~labels:[ ("phase", "stats") ] "ddg_analyze_phase_ns"
let span_fused = Obs.span_site "ddg_analyze_fused_ns"
let analyze_runs = Obs.counter "ddg_analyze_runs_total"
let analyze_events = Obs.counter "ddg_analyze_events_total"

type stats = {
  events : int;
  placed_ops : int;
  syscalls : int;
  critical_path : int;
  available_parallelism : float;
  profile : Profile.t;
  storage_profile : Profile.t;
  lifetimes : Dist.t;
  sharing : Dist.t;
  live_locations : int;
  mispredicts : int;
}

(* One configuration's placement state inside a kernel (below): the
   firewall levels, the window, resource pools and predictor, and the
   distributions retired values feed. It works on flat integers only:
   operation classes as tags, latencies and renaming switches tabulated
   by tag. The live values themselves sit in the kernel's banked well. *)
type state = {
  config : Config.t;
  lat : int array;                   (* opclass tag -> latency *)
  storage_dep : bool array;          (* storage-class tag -> deps apply *)
  ops : Opclass.t array;             (* opclass tag -> class, for Resources *)
  liveness : Intervals.t;
  lifetimes : Dist.t;
  sharing : Dist.t;
  window : Window.t option;
  resources : Resources.t;
  resources_unlimited : bool;
  predictor : Branch_pred.t;
  predictor_perfect : bool;
  mutable highest_level : int;         (* first placeable level *)
  mutable deepest_level : int;         (* deepest completion level used *)
  mutable mispredicts : int;
}

(* every analyzer entry point rejects out-of-range switches up front *)
let check_config config = Result.iter_error invalid_arg (Config.validate config)

let create_state (config : Config.t) =
  let resources = Resources.create config.fu in
  let predictor = Branch_pred.create config.branch in
  {
    config;
    lat = Config.latency_table config;
    storage_dep = Config.storage_dependency_table config;
    ops = Array.init Opclass.count Opclass.of_tag;
    liveness = Intervals.create ();
    lifetimes = Dist.create ();
    sharing = Dist.create ();
    window = Option.map Window.create config.window;
    resources;
    resources_unlimited = Resources.unlimited resources;
    predictor;
    predictor_perfect = Branch_pred.predicts_perfectly predictor;
    highest_level = 0;
    deepest_level = -1;
    mispredicts = 0;
  }

(* Window bookkeeping: every trace event occupies one slot. When the
   incoming event displaces the oldest one, the displaced event's
   completion level becomes a firewall — nothing from here on (including
   the incoming event itself) may be placed at or above it, so the room is
   made before placement. Control events carry no level; they push
   [highest_level - 1], which raises nothing when displaced. *)
let window_make_room t =
  match t.window with
  | None -> ()
  | Some w -> (
      match Window.make_room w with
      | Some displaced ->
          if displaced + 1 > t.highest_level then
            t.highest_level <- displaced + 1
      | None -> ())

let window_admit t level =
  match t.window with
  | None -> ()
  | Some w -> (
      match Window.push w level with
      | Some _ -> assert false (* room was made at event entry *)
      | None -> ())

let no_extra = [||]

let feed_span (config : Config.t) =
  (* a window (or functional-unit limit) turns the row pass into the
     placement phase; otherwise it is pure live-well dataflow *)
  match (config.window, config.fu = Config.unlimited_fu) with
  | None, true -> span_well
  | _ -> span_window

(* --- the kernel --------------------------------------------------------------

   The one placement engine. A kernel holds N independent analyzer
   states and is fed row ranges of trace columns: [analyze] feeds one
   state the whole packed or mapped trace, [analyze_many] a group of up
   to eight, [analyze_stream] each read window of a flat file, and
   {!Two_pass} one row at a time with evictions in between. Interleaving
   N separate live wells would thrash the cache (each state's table is a
   disjoint random-access region), so the kernel keeps a {e banked,
   direct-indexed} well: location ids are dense in [0, num_locs), so
   location [id]'s fields for state [j] live at [id * 3N + 3j] in one
   flat array — create level, deepest use, and uses*2+computed. The N
   states' entries for the same location are adjacent, so one operand
   touch by all N states reads consecutive memory instead of N scattered
   cache lines, and no hashing happens at all. A create level of
   [absent] marks a location state [j] does not hold; first touch
   materialises it as a pre-existing value at that state's
   [highest_level - 1]. *)

let absent = min_int

(* Per-state raw level histograms: the fused loops count completion levels
   in bare arrays (one bounds check and an increment per op) and rebuild
   the states' {!Profile.t}s once at the end — a {!Profile.add} call per
   op per state is measurable at this loop's density. Same growth policy
   as {!Profile}: double the bucket array up to [fused_prof_slots], then
   coarsen the bucket width. *)
let fused_prof_slots = 65536

let fused_prof_ensure pcounts pshift j level =
  if Array.length pcounts.(j) < fused_prof_slots then begin
    let need = (level lsr pshift.(j)) + 1 in
    let n = ref (Array.length pcounts.(j)) in
    while !n < need && !n < fused_prof_slots do
      n := !n * 2
    done;
    if !n > Array.length pcounts.(j) then begin
      let fresh = Array.make !n 0 in
      Array.blit pcounts.(j) 0 fresh 0 (Array.length pcounts.(j));
      pcounts.(j) <- fresh
    end
  end;
  while level lsr pshift.(j) >= Array.length pcounts.(j) do
    let c = pcounts.(j) in
    let n = Array.length c in
    let fresh = Array.make n 0 in
    for i = 0 to (n / 2) - 1 do
      fresh.(i) <- c.(2 * i) + c.((2 * i) + 1)
    done;
    pcounts.(j) <- fresh;
    pshift.(j) <- pshift.(j) + 1
  done

let fused_prof_add pcounts pshift j level =
  if level lsr pshift.(j) >= Array.length pcounts.(j) then
    fused_prof_ensure pcounts pshift j level;
  let counts = Array.unsafe_get pcounts j in
  let idx = level lsr Array.unsafe_get pshift j in
  Array.unsafe_set counts idx (Array.unsafe_get counts idx + 1)

let bank = 3

type t = {
  states : state array;
  stride : int;                 (* bank * number of states *)
  num_locs : int;
  classes : Bytes.t;            (* location id -> storage-class tag *)
  well : int array;             (* the banked well, [num_locs * stride] *)
  live : int array;             (* per state: locations held *)
  pcounts : int array array;    (* per state: raw level histogram *)
  pshift : int array;           (* per state: log2 of its bucket width *)
  plain : bool;
  all_perfect : bool;
  (* events / placed / syscalls are determined by row counts alone, so
     they are tallied once per row, not once per row per state *)
  rows : int ref;
  value_rows : int ref;
  syscall_rows : int ref;
}

let create_group configs ~num_locs ~classes =
  List.iter check_config configs;
  if num_locs < 0 || Bytes.length classes < num_locs then
    invalid_arg "Analyzer.create: storage-class table";
  let states = Array.of_list (List.map create_state configs) in
  let n = Array.length states in
  let stride = bank * n in
  {
    states;
    stride;
    num_locs;
    classes;
    well = Array.make (max 1 (num_locs * stride)) absent;
    live = Array.make n 0;
    pcounts = Array.init n (fun _ -> Array.make 256 0);
    pshift = Array.make n 0;
    (* [plain] states have no instruction window and no functional-unit
       limits, so the value-row loop needs no window bookkeeping and no
       resource placement — the common case (every renaming/syscall
       sweep) gets a tighter loop. [analyze_many] groups plain
       configurations together so whole groups qualify. *)
    plain =
      Array.for_all
        (fun t ->
          t.resources_unlimited
          && match t.window with None -> true | Some _ -> false)
        states;
    all_perfect = Array.for_all (fun t -> t.predictor_perfect) states;
    rows = ref 0;
    value_rows = ref 0;
    syscall_rows = ref 0;
  }

let create config ~num_locs ~classes =
  create_group [ config ] ~num_locs ~classes

(* retire the value at well offset [off] into state [t]'s distributions:
   it occupied one storage location from its creation level to its last
   use, so the storage profile reads as live values per level *)
let retire_value w t off =
  let created = Array.unsafe_get w off in
  let deepest = Array.unsafe_get w (off + 1) in
  Dist.add t.lifetimes (if deepest > created then deepest - created else 0);
  Dist.add t.sharing (Array.unsafe_get w (off + 2) lsr 1);
  if created >= 0 then
    Intervals.add t.liveness ~lo:created
      ~hi:(if deepest > created then deepest else created)

(* Run rows [lo, hi) of [cols] down every state. [extra_srcs i] gives
   the fourth and later sources of a row whose flags carry the extra
   bit. Operand ids must be below the kernel's [num_locs]: the packed
   trace guarantees it, and the flat readers validate it. *)
let feed k (cols : Ddg_sim.Trace.columns) ~extra:extra_srcs ~lo ~hi =
  if lo < 0 || lo > hi || hi > cols.n then invalid_arg "Analyzer.feed: rows";
  let states = k.states
  and n = Array.length k.states
  and stride = k.stride
  and w = k.well
  and live = k.live
  and pcounts = k.pcounts
  and pshift = k.pshift
  and plain = k.plain
  and all_perfect = k.all_perfect
  and classes = k.classes
  and rows = k.rows
  and value_rows = k.value_rows
  and syscall_rows = k.syscall_rows in
  (* readiness contribution of operand [id] for the state whose bank
     starts at [jo], materialising on first touch *)
  let touch_ready id jo hl1 =
    let off = (id * stride) + jo in
    let c = Array.unsafe_get w off in
    if c = absent then begin
      Array.unsafe_set w off hl1;
      Array.unsafe_set w (off + 1) hl1;
      Array.unsafe_set w (off + 2) 0;
      Array.unsafe_set live (jo / bank) (Array.unsafe_get live (jo / bank) + 1);
      hl1
    end
    else c
  in
  let record_use id jo level =
    let off = (id * stride) + jo in
    if level > Array.unsafe_get w (off + 1) then
      Array.unsafe_set w (off + 1) level;
    Array.unsafe_set w (off + 2) (Array.unsafe_get w (off + 2) + 2)
  in
  let touch_use id jo hl1 level =
    ignore (touch_ready id jo hl1);
    record_use id jo level
  in
  let retire_off t off = retire_value w t off in
  (* define destination [id]: retire the previous computed value, bind
     the new one created at [level] *)
  let define t id jo level =
    let off = (id * stride) + jo in
    let c = Array.unsafe_get w off in
    if c = absent then
      Array.unsafe_set live (jo / bank) (Array.unsafe_get live (jo / bank) + 1)
    else if Array.unsafe_get w (off + 2) land 1 <> 0 then retire_off t off;
    Array.unsafe_set w off level;
    Array.unsafe_set w (off + 1) level;
    Array.unsafe_set w (off + 2) 1
  in
  let flags_col = cols.flags
  and pcs = cols.pcs
  and dsts = cols.dsts
  and a0 = cols.src0
  and a1 = cols.src1
  and a2 = cols.src2 in
  for i = lo to hi - 1 do
    let flags = Char.code (BA1.unsafe_get flags_col i) in
    let extra =
      if flags land Ddg_sim.Trace.flags_extra <> 0 then
        extra_srcs i
      else no_extra
    in
    let d = BA1.unsafe_get dsts i
    and s0 = BA1.unsafe_get a0 i
    and s1 = BA1.unsafe_get a1 i
    and s2 = BA1.unsafe_get a2 i in
    let tag = flags land Ddg_sim.Trace.flags_class_mask in
    incr rows;
    if tag = Opclass.control_tag then begin
      let pc = BA1.unsafe_get pcs i
      and taken = flags land Ddg_sim.Trace.flags_taken <> 0
      and is_branch = flags land Ddg_sim.Trace.flags_branch <> 0 in
      (* a control row is inert for a windowless state with perfect
         prediction (or for any non-branch row): skip the state loop *)
      if not (plain && (all_perfect || not is_branch)) then
      for j = 0 to n - 1 do
        let t = Array.unsafe_get states j in
        if not plain then window_make_room t;
        if
          is_branch
          && (not t.predictor_perfect)
          && Branch_pred.mispredicted t.predictor ~pc ~taken
        then begin
          t.mispredicts <- t.mispredicts + 1;
          let jo = j * bank in
          let hl1 = t.highest_level - 1 in
          let ready = hl1 in
          let ready =
            if s0 >= 0 then max ready (touch_ready s0 jo hl1) else ready
          in
          let ready =
            if s1 >= 0 then max ready (touch_ready s1 jo hl1) else ready
          in
          let ready =
            if s2 >= 0 then max ready (touch_ready s2 jo hl1) else ready
          in
          let ready = ref ready in
          for k = 0 to Array.length extra - 1 do
            ready := max !ready (touch_ready extra.(k) jo hl1)
          done;
          let resolve = !ready + 1 in
          if resolve > t.highest_level then t.highest_level <- resolve
        end;
        if not plain then window_admit t (t.highest_level - 1)
      done
    end
    else if tag = Opclass.syscall_tag then begin
      incr syscall_rows;
      for j = 0 to n - 1 do
        let t = Array.unsafe_get states j in
        if not plain then window_make_room t;
        if not t.config.syscall_stall then begin
          if not plain then window_admit t (t.highest_level - 1)
        end
        else begin
          let jo = j * bank in
          let hl1 = t.highest_level - 1 in
          let level = t.deepest_level + Array.unsafe_get t.lat tag in
          let level =
            if level > t.highest_level then level else t.highest_level
          in
          fused_prof_add pcounts pshift j level;
          if level > t.deepest_level then t.deepest_level <- level;
          if s0 >= 0 then touch_use s0 jo hl1 level;
          if s1 >= 0 then touch_use s1 jo hl1 level;
          if s2 >= 0 then touch_use s2 jo hl1 level;
          for k = 0 to Array.length extra - 1 do
            touch_use extra.(k) jo hl1 level
          done;
          if d >= 0 then define t d jo level;
          t.highest_level <- level + 1;
          if not plain then window_admit t level
        end
      done
    end
    else begin
      incr value_rows;
      let dclass =
        if d >= 0 then Char.code (Bytes.unsafe_get classes d) else 0
      in
      let nextra = Array.length extra in
      if plain then
        (* no window, no resource limits: the tight common case. The
           touch/use/define helpers are spelled out inline — the
           non-flambda compiler keeps local closures as indirect
           calls, and at several per operand per state per row that
           overhead rivals the analysis itself. *)
        for j = 0 to n - 1 do
          let t = Array.unsafe_get states j in
          let jo = j * bank in
          let hl1 = t.highest_level - 1 in
          let ready = hl1 in
          let ready =
            if s0 >= 0 then begin
              let off = (s0 * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then begin
                Array.unsafe_set w off hl1;
                Array.unsafe_set w (off + 1) hl1;
                Array.unsafe_set w (off + 2) 0;
                Array.unsafe_set live j (Array.unsafe_get live j + 1);
                if hl1 > ready then hl1 else ready
              end
              else if c > ready then c
              else ready
            end
            else ready
          in
          let ready =
            if s1 >= 0 then begin
              let off = (s1 * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then begin
                Array.unsafe_set w off hl1;
                Array.unsafe_set w (off + 1) hl1;
                Array.unsafe_set w (off + 2) 0;
                Array.unsafe_set live j (Array.unsafe_get live j + 1);
                if hl1 > ready then hl1 else ready
              end
              else if c > ready then c
              else ready
            end
            else ready
          in
          let ready =
            if s2 >= 0 then begin
              let off = (s2 * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then begin
                Array.unsafe_set w off hl1;
                Array.unsafe_set w (off + 1) hl1;
                Array.unsafe_set w (off + 2) 0;
                Array.unsafe_set live j (Array.unsafe_get live j + 1);
                if hl1 > ready then hl1 else ready
              end
              else if c > ready then c
              else ready
            end
            else ready
          in
          let ready =
            if nextra = 0 then ready
            else begin
              let r = ref ready in
              for k = 0 to nextra - 1 do
                r := max !r (touch_ready extra.(k) jo hl1)
              done;
              !r
            end
          in
          let level = ready + Array.unsafe_get t.lat tag in
          let level =
            if d >= 0 && Array.unsafe_get t.storage_dep dclass
            then begin
              let off = (d * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then level
              else
                let dp = Array.unsafe_get w (off + 1) in
                let con = (if c > dp then c else dp) + 1 in
                if con > level then con else level
            end
            else level
          in
          (let counts = Array.unsafe_get pcounts j in
           let idx = level lsr Array.unsafe_get pshift j in
           if idx >= Array.length counts then
             fused_prof_add pcounts pshift j level
           else
             Array.unsafe_set counts idx (Array.unsafe_get counts idx + 1));
          if level > t.deepest_level then t.deepest_level <- level;
          if s0 >= 0 then begin
            let off = (s0 * stride) + jo in
            if level > Array.unsafe_get w (off + 1) then
              Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2)
              (Array.unsafe_get w (off + 2) + 2)
          end;
          if s1 >= 0 then begin
            let off = (s1 * stride) + jo in
            if level > Array.unsafe_get w (off + 1) then
              Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2)
              (Array.unsafe_get w (off + 2) + 2)
          end;
          if s2 >= 0 then begin
            let off = (s2 * stride) + jo in
            if level > Array.unsafe_get w (off + 1) then
              Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2)
              (Array.unsafe_get w (off + 2) + 2)
          end;
          if nextra <> 0 then
            for k = 0 to nextra - 1 do
              record_use extra.(k) jo level
            done;
          if d >= 0 then begin
            let off = (d * stride) + jo in
            let c = Array.unsafe_get w off in
            if c = absent then
              Array.unsafe_set live j (Array.unsafe_get live j + 1)
            else if Array.unsafe_get w (off + 2) land 1 <> 0 then
              retire_off t off;
            Array.unsafe_set w off level;
            Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2) 1
          end
        done
      else
        for j = 0 to n - 1 do
          let t = Array.unsafe_get states j in
          window_make_room t;
          let jo = j * bank in
          let hl1 = t.highest_level - 1 in
          let ready = hl1 in
          let ready =
            if s0 >= 0 then begin
              let off = (s0 * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then begin
                Array.unsafe_set w off hl1;
                Array.unsafe_set w (off + 1) hl1;
                Array.unsafe_set w (off + 2) 0;
                Array.unsafe_set live j (Array.unsafe_get live j + 1);
                if hl1 > ready then hl1 else ready
              end
              else if c > ready then c
              else ready
            end
            else ready
          in
          let ready =
            if s1 >= 0 then begin
              let off = (s1 * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then begin
                Array.unsafe_set w off hl1;
                Array.unsafe_set w (off + 1) hl1;
                Array.unsafe_set w (off + 2) 0;
                Array.unsafe_set live j (Array.unsafe_get live j + 1);
                if hl1 > ready then hl1 else ready
              end
              else if c > ready then c
              else ready
            end
            else ready
          in
          let ready =
            if s2 >= 0 then begin
              let off = (s2 * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then begin
                Array.unsafe_set w off hl1;
                Array.unsafe_set w (off + 1) hl1;
                Array.unsafe_set w (off + 2) 0;
                Array.unsafe_set live j (Array.unsafe_get live j + 1);
                if hl1 > ready then hl1 else ready
              end
              else if c > ready then c
              else ready
            end
            else ready
          in
          let ready =
            if nextra = 0 then ready
            else begin
              let r = ref ready in
              for k = 0 to nextra - 1 do
                r := max !r (touch_ready extra.(k) jo hl1)
              done;
              !r
            end
          in
          let level = ready + Array.unsafe_get t.lat tag in
          let level =
            if d >= 0 && Array.unsafe_get t.storage_dep dclass
            then begin
              let off = (d * stride) + jo in
              let c = Array.unsafe_get w off in
              if c = absent then level
              else
                let dp = Array.unsafe_get w (off + 1) in
                let con = (if c > dp then c else dp) + 1 in
                if con > level then con else level
            end
            else level
          in
          let level =
            if t.resources_unlimited then level
            else
              Resources.place t.resources (Array.unsafe_get t.ops tag) level
          in
          (let counts = Array.unsafe_get pcounts j in
           let idx = level lsr Array.unsafe_get pshift j in
           if idx >= Array.length counts then
             fused_prof_add pcounts pshift j level
           else
             Array.unsafe_set counts idx (Array.unsafe_get counts idx + 1));
          if level > t.deepest_level then t.deepest_level <- level;
          if s0 >= 0 then begin
            let off = (s0 * stride) + jo in
            if level > Array.unsafe_get w (off + 1) then
              Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2)
              (Array.unsafe_get w (off + 2) + 2)
          end;
          if s1 >= 0 then begin
            let off = (s1 * stride) + jo in
            if level > Array.unsafe_get w (off + 1) then
              Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2)
              (Array.unsafe_get w (off + 2) + 2)
          end;
          if s2 >= 0 then begin
            let off = (s2 * stride) + jo in
            if level > Array.unsafe_get w (off + 1) then
              Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2)
              (Array.unsafe_get w (off + 2) + 2)
          end;
          if nextra <> 0 then
            for k = 0 to nextra - 1 do
              record_use extra.(k) jo level
            done;
          if d >= 0 then begin
            let off = (d * stride) + jo in
            let c = Array.unsafe_get w off in
            if c = absent then
              Array.unsafe_set live j (Array.unsafe_get live j + 1)
            else if Array.unsafe_get w (off + 2) land 1 <> 0 then
              retire_off t off;
            Array.unsafe_set w off level;
            Array.unsafe_set w (off + 1) level;
            Array.unsafe_set w (off + 2) 1
          end;
          window_admit t level
        done
    end
  done

(* Drop location [id] from every state's well, retiring its computed
   value: the two-pass mode calls it after a location's final
   reference. *)
let evict k id =
  if id < 0 || id >= k.num_locs then invalid_arg "Analyzer.evict: id";
  Array.iteri
    (fun j t ->
      let off = (id * k.stride) + (j * bank) in
      if k.well.(off) <> absent then begin
        if k.well.(off + 2) land 1 <> 0 then retire_value k.well t off;
        k.well.(off) <- absent;
        k.live.(j) <- k.live.(j) - 1
      end)
    k.states

let live_locations k = k.live.(0)

(* retire every live computed value into each state's distributions,
   settle the batched row counters and rebuild each state's profile *)
let finish_group k =
  let events = !(k.rows) and syscalls = !(k.syscall_rows) in
  Array.to_list
    (Array.mapi
       (fun j t ->
         let jo = j * bank in
         for id = 0 to k.num_locs - 1 do
           let off = (id * k.stride) + jo in
           if
             Array.unsafe_get k.well off <> absent
             && Array.unsafe_get k.well (off + 2) land 1 <> 0
           then retire_value k.well t off
         done;
         let placed =
           !(k.value_rows) + if t.config.syscall_stall then syscalls else 0
         in
         let critical_path = t.deepest_level + 1 in
         {
           events;
           placed_ops = placed;
           syscalls;
           critical_path;
           available_parallelism =
             (if critical_path = 0 then 0.0
              else float_of_int placed /. float_of_int critical_path);
           (* deepest_level is the maximum counted level (placed ops
              raise it with every histogram increment), so it bounds
              max_level *)
           profile =
             Profile.of_buckets
               ~width:(1 lsl k.pshift.(j))
               ~max_level:t.deepest_level ~total:placed k.pcounts.(j);
           storage_profile = Intervals.to_profile t.liveness;
           lifetimes = t.lifetimes;
           sharing = t.sharing;
           live_locations = k.live.(j);
           mispredicts = t.mispredicts;
         })
       k.states)

let finish k =
  match finish_group k with
  | [ stats ] -> stats
  | _ -> assert false (* [create] builds one state *)

(* a kernel over [configs] sized for a packed or mapped trace, and the
   whole trace fed to it *)
let create_for configs trace =
  create_group configs
    ~num_locs:(Ddg_sim.Trace.num_locs trace)
    ~classes:(Ddg_sim.Trace.storage_classes trace)

let feed_trace k trace =
  let cols = Ddg_sim.Trace.columns trace in
  feed k cols ~extra:(Ddg_sim.Trace.extra_srcs trace) ~lo:0 ~hi:cols.n

(* the timed final retirement and the run counters of a whole-trace
   analysis *)
let finish_run k =
  let stats = Obs.time span_stats (fun () -> finish k) in
  Obs.incr analyze_runs;
  Obs.add analyze_events stats.events;
  stats

let analyze config trace =
  let k = create_for [ config ] trace in
  Obs.time (feed_span config) (fun () -> feed_trace k trace);
  finish_run k

(* Stream a flat trace file through the kernel in bounded memory: each
   of [Trace_io.stream_file]'s fixed read windows — never a mapping,
   never a materialised trace — is fed as one row range, so the stats
   are identical to [analyze config] over the same trace. The
   storage-class table is rebuilt from the file's location section up
   front, exactly as the packed trace builds its own on intern. *)
let analyze_stream ?verify ?window config path =
  check_config config;
  let k =
    Obs.time (feed_span config) (fun () ->
        Ddg_sim.Trace_io.stream_file ?verify ?window path
          ~init:(fun (info : Ddg_sim.Trace_io.flat_info) ->
            let num_locs = Array.length info.fi_locs in
            let classes = Bytes.create num_locs in
            Array.iteri
              (fun id loc ->
                Bytes.unsafe_set classes id
                  (Char.unsafe_chr
                     (Loc.storage_class_tag
                        (Segment.storage_class_of_loc loc))))
              info.fi_locs;
            create config ~num_locs ~classes)
          ~rows:(fun k (cols : Ddg_sim.Trace.columns) ~extra ->
            feed k cols ~extra ~lo:0 ~hi:cols.n;
            k))
  in
  finish_run k

(* Split the configurations into groups whose banked wells each stay
   within a fixed cache budget (and at most 8 states, so one operand's
   bank span stays within a few cache lines), then run the groups on
   parallel domains — the packed trace is shared read-only, every other
   structure is group-private. Plain configurations (no window, no
   functional-unit limits) are grouped separately from the rest so their
   groups take the kernel's specialised value loop; results come back
   in the caller's order regardless. *)
let analyze_many ?max_domains configs trace =
  (* before any group starts, so no worker domain raises mid-run *)
  List.iter check_config configs;
  match configs with
  | [] -> []
  | [ config ] -> [ analyze config trace ]
  | configs ->
      let total = List.length configs in
      let indexed = List.mapi (fun i c -> (i, c)) configs in
      let plain, limited =
        List.partition
          (fun (_, c) ->
            c.Config.fu = Config.unlimited_fu
            && match c.Config.window with None -> true | Some _ -> false)
          indexed
      in
      let per_state = 3 * 8 * max 1 (Ddg_sim.Trace.num_locs trace) in
      let budget = 3_000_000 in
      let gmax = max 1 (min 8 (budget / per_state)) in
      (* balanced groups of at most [gmax] states, original order within *)
      let make_groups l =
        match List.length l with
        | 0 -> []
        | n ->
            let ngroups = (n + gmax - 1) / gmax in
            let gsize = (n + ngroups - 1) / ngroups in
            let groups = Array.make ngroups [] in
            List.iteri
              (fun i c -> groups.(i / gsize) <- c :: groups.(i / gsize))
              l;
            Array.to_list (Array.map List.rev groups)
      in
      let groups = Array.of_list (make_groups plain @ make_groups limited) in
      let ngroups = Array.length groups in
      let run g =
        let k = create_for (List.map snd g) trace in
        feed_trace k trace;
        List.combine (List.map fst g) (finish_group k)
      in
      let results = Array.make ngroups [] in
      let workers =
        let cap =
          match max_domains with
          | Some m -> max 1 m
          | None -> max 1 (Domain.recommended_domain_count () - 1)
        in
        min ngroups cap
      in
      Obs.time span_fused (fun () ->
          if workers <= 1 then
            Array.iteri (fun g cfgs -> results.(g) <- run cfgs) groups
          else begin
            let next = Atomic.make 0 in
            let worker () =
              let rec loop () =
                let g = Atomic.fetch_and_add next 1 in
                if g < ngroups then begin
                  results.(g) <- run groups.(g);
                  loop ()
                end
              in
              loop ()
            in
            let doms =
              List.init (workers - 1) (fun _ -> Domain.spawn worker)
            in
            worker ();
            List.iter Domain.join doms
          end);
      let out = Array.make total None in
      Array.iter
        (List.iter (fun (i, s) -> out.(i) <- Some s))
        results;
      Array.to_list out
      |> List.map (function Some s -> s | None -> assert false)

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v>events               %d@,placed ops           %d@,\
     system calls         %d@,critical path length %d@,\
     available parallelism %.2f@,live locations       %d@,\
     mispredicted branches %d@]"
    s.events s.placed_ops s.syscalls s.critical_path
    s.available_parallelism s.live_locations s.mispredicts
