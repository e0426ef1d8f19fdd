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

(* One analyzer state. The hashed row engine below ([feed_row]) takes
   record events and streamed rows, and is the reference the kernel for
   packed traces (further down) is checked against. It works on flat
   integers only: operation classes as tags, locations as dense ids (the
   streamed file's, or [ids]'s for record events), latencies and renaming
   switches tabulated by tag. Per event it performs one live-well probe
   per distinct operand touch and allocates nothing; boxed structures
   appear only on the cold paths (value retirement into the
   distributions, syscalls, window growth). The kernel keeps its own
   banked well and uses the rest of the state. *)
type t = {
  config : Config.t;
  lat : int array;                   (* opclass tag -> latency *)
  storage_dep : bool array;          (* storage-class tag -> deps apply *)
  ops : Opclass.t array;             (* opclass tag -> class, for Resources *)
  live_well : Live_well.t;
  mutable profile : Profile.t;  (* fused runs install a rebuilt histogram *)
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
  mutable events : int;
  mutable placed : int;
  mutable syscalls : int;
  mutable mispredicts : int;
  (* interner for the record-event path (feed/evict) *)
  ids : (int, int) Hashtbl.t;          (* Loc.to_code -> dense id *)
  mutable own_classes : Bytes.t;       (* id -> storage-class tag *)
  mutable num_ids : int;
}

(* every analyzer entry point rejects out-of-range switches up front *)
let check_config config = Result.iter_error invalid_arg (Config.validate config)

let create_sized ~live_well_capacity (config : Config.t) =
  check_config config;
  let resources = Resources.create config.fu in
  let predictor = Branch_pred.create config.branch in
  {
    config;
    lat = Config.latency_table config;
    storage_dep = Config.storage_dependency_table config;
    ops = Array.init Opclass.count Opclass.of_tag;
    live_well = Live_well.create ~capacity:live_well_capacity ();
    profile = Profile.create ();
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
    events = 0;
    placed = 0;
    syscalls = 0;
    mispredicts = 0;
    ids = Hashtbl.create 1024;
    own_classes = Bytes.make 256 '\000';
    num_ids = 0;
  }

let create config = create_sized ~live_well_capacity:4096 config

let retire t (r : Live_well.retirement) =
  Dist.add t.lifetimes r.lifetime;
  Dist.add t.sharing r.uses;
  (* the value occupies one storage location from its creation level to
     its last use: the storage profile reads as live values per level *)
  if r.created >= 0 then Intervals.add t.liveness ~lo:r.created ~hi:r.last_use

(* Retire a slot's value straight into the distributions, without
   materialising a retirement record. *)
let retire_slot t slot =
  let well = t.live_well in
  let created = Live_well.slot_create_level well slot in
  let deepest = Live_well.slot_deepest_use well slot in
  Dist.add t.lifetimes (if deepest > created then deepest - created else 0);
  Dist.add t.sharing (Live_well.slot_uses well slot);
  if created >= 0 then
    Intervals.add t.liveness ~lo:created
      ~hi:(if deepest > created then deepest else created)

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

(* One find-or-insert: slot of [key], materialising a pre-existing value
   at [hl1 = highest_level - 1] on first reference. *)
let[@inline] probe well key hl1 =
  let p = Live_well.find_or_insert well key ~level:hl1 in
  if p < 0 then lnot p else p

let no_extra = [||]

(* Readiness contribution of the overflow sources (cold: only events with
   more than three sources reach it). Top-level so the recursion closes
   over nothing. *)
let rec extra_ready well extra hl1 k acc =
  if k >= Array.length extra then acc
  else
    let c =
      Live_well.slot_create_level well (probe well extra.(k) hl1)
    in
    extra_ready well extra hl1 (k + 1) (if c > acc then c else acc)

let rec extra_record_use well extra hl1 level k =
  if k < Array.length extra then begin
    Live_well.slot_record_use well (probe well extra.(k) hl1) ~level;
    extra_record_use well extra hl1 level (k + 1)
  end

(* Place a value-creating operation: compute its completion level, update
   profile, live well and counters; returns the completion level.
   Operands are dense ids resolved against [classes], -1 when absent. *)
let place_row t classes ~tag ~d ~s0 ~s1 ~s2 ~extra =
  let well = t.live_well in
  Live_well.reserve well (4 + Array.length extra);
  let hl1 = t.highest_level - 1 in
  let sl0 = if s0 >= 0 then probe well s0 hl1 else -1 in
  let sl1 = if s1 >= 0 then probe well s1 hl1 else -1 in
  let sl2 = if s2 >= 0 then probe well s2 hl1 else -1 in
  let ready = hl1 in
  let ready =
    if sl0 >= 0 then
      let c = Live_well.slot_create_level well sl0 in
      if c > ready then c else ready
    else ready
  in
  let ready =
    if sl1 >= 0 then
      let c = Live_well.slot_create_level well sl1 in
      if c > ready then c else ready
    else ready
  in
  let ready =
    if sl2 >= 0 then
      let c = Live_well.slot_create_level well sl2 in
      if c > ready then c else ready
    else ready
  in
  let ready =
    if Array.length extra = 0 then ready
    else extra_ready well extra hl1 0 ready
  in
  let level = ready + Array.unsafe_get t.lat tag in
  (* the destination's single probe serves the storage-constraint read,
     the retirement of the previous value and the redefinition; a fresh
     insert (location never seen) contributes no constraint *)
  let dslot = if d >= 0 then Live_well.find_or_insert well d ~level:hl1 else 0 in
  let level =
    if
      d >= 0 && dslot >= 0
      && Array.unsafe_get t.storage_dep
           (Char.code (Bytes.unsafe_get classes d))
    then begin
      let c = Live_well.slot_constraint well dslot + 1 in
      if c > level then c else level
    end
    else level
  in
  let level =
    if t.resources_unlimited then level
    else Resources.place t.resources (Array.unsafe_get t.ops tag) level
  in
  Profile.add t.profile level;
  t.placed <- t.placed + 1;
  if level > t.deepest_level then t.deepest_level <- level;
  if sl0 >= 0 then Live_well.slot_record_use well sl0 ~level;
  if sl1 >= 0 then Live_well.slot_record_use well sl1 ~level;
  if sl2 >= 0 then Live_well.slot_record_use well sl2 ~level;
  if Array.length extra <> 0 then extra_record_use well extra hl1 level 0;
  if d >= 0 then begin
    let dslot = if dslot < 0 then lnot dslot else dslot in
    if Live_well.slot_is_computed well dslot then retire_slot t dslot;
    Live_well.slot_define well dslot ~level
  end;
  level

(* A conservative system call is a firewall: it is placed immediately
   after the deepest computation yet, and the level following it becomes
   the new topologically highest placeable level. *)
let place_syscall_row t ~tag ~d ~s0 ~s1 ~s2 ~extra =
  let well = t.live_well in
  Live_well.reserve well (4 + Array.length extra);
  let hl1 = t.highest_level - 1 in
  let level = t.deepest_level + Array.unsafe_get t.lat tag in
  let level = if level > t.highest_level then level else t.highest_level in
  Profile.add t.profile level;
  t.placed <- t.placed + 1;
  if level > t.deepest_level then t.deepest_level <- level;
  if s0 >= 0 then Live_well.slot_record_use well (probe well s0 hl1) ~level;
  if s1 >= 0 then Live_well.slot_record_use well (probe well s1 hl1) ~level;
  if s2 >= 0 then Live_well.slot_record_use well (probe well s2 hl1) ~level;
  if Array.length extra <> 0 then extra_record_use well extra hl1 level 0;
  if d >= 0 then begin
    let p = Live_well.find_or_insert well d ~level:hl1 in
    let dslot = if p < 0 then lnot p else p in
    if Live_well.slot_is_computed well dslot then retire_slot t dslot;
    Live_well.slot_define well dslot ~level
  end;
  t.highest_level <- level + 1;
  level

(* A mispredicted branch stalls fetch until it resolves: a firewall at the
   branch's resolution level (its sources' readiness plus one step). *)
let handle_branch_row t ~pc ~taken ~s0 ~s1 ~s2 ~extra =
  if
    (not t.predictor_perfect)
    && Branch_pred.mispredicted t.predictor ~pc ~taken
  then begin
    t.mispredicts <- t.mispredicts + 1;
    let well = t.live_well in
    Live_well.reserve well (3 + Array.length extra);
    let hl1 = t.highest_level - 1 in
    let ready = hl1 in
    let ready =
      if s0 >= 0 then
        let c = Live_well.slot_create_level well (probe well s0 hl1) in
        if c > ready then c else ready
      else ready
    in
    let ready =
      if s1 >= 0 then
        let c = Live_well.slot_create_level well (probe well s1 hl1) in
        if c > ready then c else ready
      else ready
    in
    let ready =
      if s2 >= 0 then
        let c = Live_well.slot_create_level well (probe well s2 hl1) in
        if c > ready then c else ready
      else ready
    in
    let ready =
      if Array.length extra = 0 then ready
      else extra_ready well extra hl1 0 ready
    in
    let resolve = ready + 1 in
    if resolve > t.highest_level then t.highest_level <- resolve
  end

let feed_row t classes ~flags ~pc ~d ~s0 ~s1 ~s2 ~extra =
  t.events <- t.events + 1;
  window_make_room t;
  let tag = flags land Ddg_sim.Trace.flags_class_mask in
  if tag = Opclass.control_tag then begin
    if flags land Ddg_sim.Trace.flags_branch <> 0 then
      handle_branch_row t ~pc
        ~taken:(flags land Ddg_sim.Trace.flags_taken <> 0)
        ~s0 ~s1 ~s2 ~extra;
    window_admit t (t.highest_level - 1)
  end
  else if tag = Opclass.syscall_tag then begin
    t.syscalls <- t.syscalls + 1;
    if t.config.syscall_stall then
      window_admit t (place_syscall_row t ~tag ~d ~s0 ~s1 ~s2 ~extra)
    else
      (* optimistic: the system call is assumed to modify nothing and is
         ignored entirely *)
      window_admit t (t.highest_level - 1)
  end
  else window_admit t (place_row t classes ~tag ~d ~s0 ~s1 ~s2 ~extra)

(* --- record-event path ------------------------------------------------------ *)

let intern t loc =
  let code = Loc.to_code loc in
  match Hashtbl.find_opt t.ids code with
  | Some id -> id
  | None ->
      let id = t.num_ids in
      if id = Bytes.length t.own_classes then begin
        let bigger = Bytes.make (2 * id) '\000' in
        Bytes.blit t.own_classes 0 bigger 0 id;
        t.own_classes <- bigger
      end;
      Bytes.unsafe_set t.own_classes id
        (Char.unsafe_chr
           (Loc.storage_class_tag (Segment.storage_class_of_loc loc)));
      Hashtbl.add t.ids code id;
      t.num_ids <- id + 1;
      id

let feed t (e : Ddg_sim.Trace.event) =
  let flags =
    Opclass.to_tag e.op_class
    lor
    match e.branch with
    | Some { taken } ->
        Ddg_sim.Trace.flags_branch
        lor (if taken then Ddg_sim.Trace.flags_taken else 0)
    | None -> 0
  in
  let d = match e.dest with Some l -> intern t l | None -> -1 in
  let s0, s1, s2, extra =
    match e.srcs with
    | [] -> (-1, -1, -1, no_extra)
    | [ a ] -> (intern t a, -1, -1, no_extra)
    | [ a; b ] ->
        let a = intern t a in
        (a, intern t b, -1, no_extra)
    | [ a; b; c ] ->
        let a = intern t a in
        let b = intern t b in
        (a, b, intern t c, no_extra)
    | a :: b :: c :: rest ->
        let a = intern t a in
        let b = intern t b in
        let c = intern t c in
        (a, b, c, Array.of_list (List.map (intern t) rest))
  in
  feed_row t t.own_classes ~flags ~pc:e.pc ~d ~s0 ~s1 ~s2 ~extra

let evict t loc =
  match Hashtbl.find_opt t.ids (Loc.to_code loc) with
  | None -> ()
  | Some id -> (
      match Live_well.remove t.live_well id with
      | Some r -> retire t r
      | None -> ())

let live_well_size t = Live_well.size t.live_well

let build_stats t ~live_locations =
  let critical_path = t.deepest_level + 1 in
  {
    events = t.events;
    placed_ops = t.placed;
    syscalls = t.syscalls;
    critical_path;
    available_parallelism =
      (if critical_path = 0 then 0.0
       else float_of_int t.placed /. float_of_int critical_path);
    profile = t.profile;
    storage_profile = Intervals.to_profile t.liveness;
    lifetimes = t.lifetimes;
    sharing = t.sharing;
    live_locations;
    mispredicts = t.mispredicts;
  }

let finish t =
  List.iter (retire t) (Live_well.retire_all t.live_well);
  build_stats t ~live_locations:(Live_well.size t.live_well)

let feed_span (config : Config.t) =
  (* a window (or functional-unit limit) turns the row pass into the
     placement phase; otherwise it is pure live-well dataflow *)
  match (config.window, config.fu = Config.unlimited_fu) with
  | None, true -> span_well
  | _ -> span_window

(* --- the kernel: packed and mapped traces -------------------------------------

   One pass of the trace drives N independent analyzer states: [analyze]
   runs one, [analyze_many] a group of up to eight. Interleaving N
   separate live wells would thrash the cache (each state's table is a
   disjoint random-access region), so the kernel replaces the hash table
   with a {e banked, direct-indexed} well: packed-trace location ids
   are dense in [0, num_locs), so location [id]'s fields for state [j]
   live at [id * 3N + 3j] in one flat array — create level, deepest use,
   and uses*2+computed. The N states' entries for the same location are
   adjacent, so one operand touch by all N states reads consecutive
   memory instead of N scattered cache lines, and no hashing happens at
   all. A create level of [absent] marks a location state [j] has never
   referenced; first touch materialises it as a pre-existing value at
   that state's [highest_level - 1], exactly like the live-well probe. *)

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

let time site f = match site with Some s -> Obs.time s f | None -> f ()

(* Run a group of states down a single pass of the trace: one state for
   [analyze], one cache-budgeted group per call for [analyze_many].
   [rows_span] and [stats_span] time the row pass and the final
   retirement. *)
let kernel ?rows_span ?stats_span configs trace =
  let states = Array.of_list (List.map (create_sized ~live_well_capacity:16) configs) in
  let n = Array.length states in
  let num_locs = Ddg_sim.Trace.num_locs trace in
  let bank = 3 in
  let stride = bank * n in
  let w = Array.make (max 1 (num_locs * stride)) absent in
  let live = Array.make n 0 in
  let pcounts = Array.init n (fun _ -> Array.make 256 0) in
  let pshift = Array.make n 0 in
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
  let retire_off t off =
    let created = Array.unsafe_get w off in
    let deepest = Array.unsafe_get w (off + 1) in
    Dist.add t.lifetimes (if deepest > created then deepest - created else 0);
    Dist.add t.sharing (Array.unsafe_get w (off + 2) lsr 1);
    if created >= 0 then
      Intervals.add t.liveness ~lo:created
        ~hi:(if deepest > created then deepest else created)
  in
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
  (* [plain] states have no instruction window and no functional-unit
     limits, so the value-row loop needs no window bookkeeping and no
     resource placement — the common case (every renaming/syscall
     sweep) gets a tighter loop. [analyze_many] groups plain
     configurations together so whole groups qualify. *)
  let plain =
    Array.for_all
      (fun t ->
        t.resources_unlimited
        && match t.window with None -> true | Some _ -> false)
      states
  in
  let all_perfect =
    Array.for_all (fun t -> t.predictor_perfect) states
  in
  (* events / placed / syscalls are determined by row counts alone, so
     they are tallied once per row, not once per row per state *)
  let value_rows = ref 0 and syscall_rows = ref 0 and rows = ref 0 in
  let cols = Ddg_sim.Trace.columns trace in
  let classes = Ddg_sim.Trace.storage_classes trace in
  let flags_col = cols.flags
  and pcs = cols.pcs
  and dsts = cols.dsts
  and a0 = cols.src0
  and a1 = cols.src1
  and a2 = cols.src2 in
  let pass () =
    for i = 0 to cols.n - 1 do
      let flags = Char.code (BA1.unsafe_get flags_col i) in
      let extra =
        if flags land Ddg_sim.Trace.flags_extra <> 0 then
          Ddg_sim.Trace.extra_srcs trace i
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
  in
  (* retire every live computed value into each state's distributions,
     and settle the batched row counters *)
  let retire_all () =
    List.mapi
      (fun j _ ->
        let t = states.(j) in
        let jo = j * bank in
        for id = 0 to num_locs - 1 do
          let off = (id * stride) + jo in
          if
            Array.unsafe_get w off <> absent
            && Array.unsafe_get w (off + 2) land 1 <> 0
          then retire_off t off
        done;
        t.events <- !rows;
        t.syscalls <- !syscall_rows;
        t.placed <-
          !value_rows
          + (if t.config.syscall_stall then !syscall_rows else 0);
        (* deepest_level is the maximum counted level (placed ops raise
           it with every histogram increment), so it bounds max_level *)
        t.profile <-
          Profile.of_buckets
            ~width:(1 lsl pshift.(j))
            ~max_level:t.deepest_level ~total:t.placed pcounts.(j);
        build_stats t ~live_locations:live.(j))
      configs
  in
  time rows_span pass;
  time stats_span retire_all

let analyze config trace =
  let stats =
    match
      kernel ~rows_span:(feed_span config) ~stats_span:span_stats [ config ]
        trace
    with
    | [ stats ] -> stats
    | _ -> assert false
  in
  Obs.incr analyze_runs;
  Obs.add analyze_events stats.events;
  stats

(* Stream a flat trace file through one analyzer state in bounded
   memory: rows arrive through [Trace_io.stream_file]'s fixed read
   windows — never a mapping, never a materialised trace — and feed the
   hashed row engine, as record events do; the stats are identical to
   [analyze config] over the same trace. The storage-class table is
   rebuilt from the file's location section up front, exactly as the
   packed trace builds its own on intern. *)
let analyze_stream ?verify ?window config path =
  let t, _ =
    Obs.time (feed_span config) (fun () ->
        Ddg_sim.Trace_io.stream_file ?verify ?window path
          ~init:(fun (info : Ddg_sim.Trace_io.flat_info) ->
            let nlocs = Array.length info.fi_locs in
            let t =
              create_sized ~live_well_capacity:(2 * max 16 nlocs) config
            in
            let classes = Bytes.create (max 1 nlocs) in
            Array.iteri
              (fun id loc ->
                Bytes.unsafe_set classes id
                  (Char.unsafe_chr
                     (Loc.storage_class_tag
                        (Segment.storage_class_of_loc loc))))
              info.fi_locs;
            (t, classes))
          ~row:(fun ((t, classes) as acc) ~flags ~pc ~d ~s0 ~s1 ~s2 ~extra ->
            feed_row t classes ~flags ~pc ~d ~s0 ~s1 ~s2 ~extra;
            acc))
  in
  let stats = Obs.time span_stats (fun () -> finish t) in
  Obs.incr analyze_runs;
  Obs.add analyze_events stats.events;
  stats

(* Split the configurations into groups whose banked wells each stay
   within a fixed cache budget (and at most 8 states, so one operand's
   bank span stays within a few cache lines), then run the groups on
   parallel domains — the packed trace is shared read-only, every other
   structure is group-private. Plain configurations (no window, no
   functional-unit limits) are grouped separately from the rest so their
   groups take {!kernel}'s specialised value loop; results come back
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
        List.combine (List.map fst g)
          (kernel (List.map snd g) trace)
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
