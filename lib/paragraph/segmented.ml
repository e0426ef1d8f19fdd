module Obs = Ddg_obs.Obs
module BA1 = Bigarray.Array1

(* Observability: one span per phase (the skeleton prepass, the parallel
   segment fan-out as a whole, the stitch), one span per segment body
   (recorded on whichever domain runs it), and counters for how many
   segmented runs happened and how many segments they fanned out to. *)
let span_skeleton =
  Obs.span_site ~labels:[ ("phase", "skeleton") ] "ddg_segment_phase_ns"

let span_segments =
  Obs.span_site ~labels:[ ("phase", "segments") ] "ddg_segment_phase_ns"

let span_stitch =
  Obs.span_site ~labels:[ ("phase", "stitch") ] "ddg_segment_phase_ns"

let span_segment_run = Obs.span_site "ddg_segment_run_ns"
let segments_total = Obs.counter "ddg_segments_total"
let segmented_runs = Obs.counter "ddg_segmented_runs_total"

(* The segmented engine only handles configurations whose cross-segment
   state is exactly the live well plus the two firewall scalars:

   - no instruction window: a window couples every event to the completion
     levels of the [window]-many preceding events, so a segment's
     placement would depend on unbounded predecessor detail;
   - unlimited functional units: resource placement depends on the global
     per-level occupancy counts, which segments cannot know;
   - full renaming: a storage dependency reads the previous value's
     deepest {e use} level, and uses of a value carried into a segment
     keep arriving from later segments — the max-plus fill-in this causes
     has no compact per-location summary;
   - perfect branch prediction: predictor state (and the firewalls
     mispredictions raise) is a per-branch history the skeleton does not
     track.

   With those constraints [highest_level] changes only at conservative
   system calls, whose level is a function of [deepest_level] and the
   source create levels — all reproduced exactly by the skeleton prepass.
   Both syscall policies are fine: optimistic syscalls touch nothing. *)
let supported (config : Config.t) =
  (match config.window with None -> true | Some _ -> false)
  && config.fu = Config.unlimited_fu
  && config.branch = Config.Perfect
  && Array.for_all not (Config.storage_dependency_table config)

type exec = (unit -> unit) array -> unit

let sequential_exec thunks = Array.iter (fun f -> f ()) thunks

let absent = min_int

(* --- skeleton prepass -------------------------------------------------------

   A stripped sequential pass that maintains only what a later segment
   needs to start exactly where the sequential analyzer would be: the
   create level of every location touched so far (pre-existing values
   materialise at [highest_level - 1], like the live well) and the two
   firewall scalars. No deepest-use, no use counts, no profile, no
   distributions — those are what the parallel repair passes rebuild. *)

type seed = { s_create : int array; s_hl : int; s_deepest : int }

(* Seeds for segments 1..k-1 (segment 0 starts from the empty state);
   [bounds.(j)] is the first row of segment [j], so the skeleton scans
   rows [0, bounds.(k-1)) and snapshots just before each boundary. *)
let skeleton lat trace ~syscall_stall ~num_locs ~bounds =
  let k = Array.length bounds - 1 in
  let create = Array.make (max 1 num_locs) absent in
  let hl = ref 0 in
  let deepest = ref (-1) in
  let cols = Ddg_sim.Trace.columns trace in
  let flags_col = cols.flags
  and dsts = cols.dsts
  and a0 = cols.src0
  and a1 = cols.src1
  and a2 = cols.src2 in
  let seeds = Array.make k { s_create = [||]; s_hl = 0; s_deepest = -1 } in
  seeds.(0) <-
    { s_create = Array.make (max 1 num_locs) absent; s_hl = 0; s_deepest = -1 };
  for j = 1 to k - 1 do
    for i = bounds.(j - 1) to bounds.(j) - 1 do
      let flags = Char.code (BA1.unsafe_get flags_col i) in
      let tag = flags land Ddg_sim.Trace.flags_class_mask in
      if tag = Ddg_isa.Opclass.control_tag then ()
        (* perfect prediction, no window: control rows are inert *)
      else if tag = Ddg_isa.Opclass.syscall_tag then begin
        if syscall_stall then begin
          let hl1 = !hl - 1 in
          let touch s =
            if s >= 0 && Array.unsafe_get create s = absent then
              Array.unsafe_set create s hl1
          in
          touch (BA1.unsafe_get a0 i);
          touch (BA1.unsafe_get a1 i);
          touch (BA1.unsafe_get a2 i);
          if flags land Ddg_sim.Trace.flags_extra <> 0 then
            Array.iter touch (Ddg_sim.Trace.extra_srcs trace i);
          let level = !deepest + Array.unsafe_get lat tag in
          let level = if level > !hl then level else !hl in
          if level > !deepest then deepest := level;
          let d = BA1.unsafe_get dsts i in
          if d >= 0 then Array.unsafe_set create d level;
          hl := level + 1
        end
        (* optimistic syscalls are ignored entirely *)
      end
      else begin
        let hl1 = !hl - 1 in
        let ready = ref hl1 in
        let touch_ready s =
          if s >= 0 then begin
            let c = Array.unsafe_get create s in
            if c = absent then Array.unsafe_set create s hl1
            else if c > !ready then ready := c
          end
        in
        touch_ready (BA1.unsafe_get a0 i);
        touch_ready (BA1.unsafe_get a1 i);
        touch_ready (BA1.unsafe_get a2 i);
        if flags land Ddg_sim.Trace.flags_extra <> 0 then
          Array.iter touch_ready (Ddg_sim.Trace.extra_srcs trace i);
        let level = !ready + Array.unsafe_get lat tag in
        if level > !deepest then deepest := level;
        let d = BA1.unsafe_get dsts i in
        if d >= 0 then Array.unsafe_set create d level
      end
    done;
    seeds.(j) <-
      { s_create = Array.copy create; s_hl = !hl; s_deepest = !deepest }
  done;
  seeds

(* --- per-segment repair pass ------------------------------------------------

   A full single-config analysis of one row range, seeded with the
   skeleton's boundary state and direct-indexed by dense location id (no
   hashing — the same layout as the fused engine's banked well, with one
   state). The one twist is values carried in from the seed: their use
   counts and deepest-use levels accumulated {e before} this segment are
   unknown here, so they must not be retired locally. Instead [ent]
   tracks them — a local overwrite records the local uses/deepest seen so
   far (an {e entry record}) and leaves retirement to the stitch, which
   holds the carried totals. *)

type seg_result = {
  r_value_rows : int;
  r_syscall_rows : int;
  r_deepest : int;
  r_pcounts : int array; (* raw level histogram at width [1 lsl r_pshift] *)
  r_pshift : int;
  r_lifetimes : Dist.t; (* retirements fully local to the segment *)
  r_sharing : Dist.t;
  r_liveness : Intervals.t;
  (* entry records: per seeded location touched here, the local uses and
     deepest-use of the carried value, and whether it was overwritten *)
  r_entry_locs : int array;
  r_entry_uses : int array;
  r_entry_deep : int array;
  r_entry_term : Bytes.t;
  (* exit records: final local state of every location this segment
     materialised or (re)defined — replaces the carried state *)
  r_exit_locs : int array;
  r_exit_create : int array;
  r_exit_deep : int array;
  r_exit_uses : int array;
  r_exit_comp : Bytes.t;
}

(* Raw profile buckets, same growth policy as the fused engine (and as
   {!Profile}): double the array up to [prof_slots] slots, then coarsen
   the bucket width, so the final width is the one the sequential
   analyzer ends at for the same deepest level. *)
let prof_slots = 65536

type prof = { mutable counts : int array; mutable shift : int }

let prof_grow p level =
  if Array.length p.counts < prof_slots then begin
    let need = (level lsr p.shift) + 1 in
    let n = ref (Array.length p.counts) in
    while !n < need && !n < prof_slots do
      n := !n * 2
    done;
    if !n > Array.length p.counts then begin
      let fresh = Array.make !n 0 in
      Array.blit p.counts 0 fresh 0 (Array.length p.counts);
      p.counts <- fresh
    end
  end;
  while level lsr p.shift >= Array.length p.counts do
    let c = p.counts in
    let n = Array.length c in
    let fresh = Array.make n 0 in
    for i = 0 to (n / 2) - 1 do
      fresh.(i) <- c.(2 * i) + c.((2 * i) + 1)
    done;
    p.counts <- fresh;
    p.shift <- p.shift + 1
  done

let[@inline] prof_add p level =
  if level lsr p.shift >= Array.length p.counts then prof_grow p level;
  let counts = p.counts in
  let idx = level lsr p.shift in
  Array.unsafe_set counts idx (Array.unsafe_get counts idx + 1)

(* entry state per location *)
let ent_none = '\000' (* not carried in (or not seeded) *)
let ent_live = '\001' (* carried value still current *)
let ent_term = '\002' (* carried value overwritten locally *)

let repair lat trace ~syscall_stall ~num_locs ~lo ~hi ~(seed : seed) =
  let locs = max 1 num_locs in
  let create = Array.copy seed.s_create in
  let deep = Array.copy seed.s_create in
  let meta = Array.make locs 0 in (* uses*2 + computed *)
  let ent = Bytes.make locs ent_none in
  (* local uses/deepest of a terminated carried value, captured at its
     overwrite; indexed by location, valid where [ent] = [ent_term] *)
  let term_uses = Array.make locs 0 in
  let term_deep = Array.make locs 0 in
  for l = 0 to num_locs - 1 do
    if Array.unsafe_get create l <> absent then
      Bytes.unsafe_set ent l ent_live
  done;
  let hl = ref seed.s_hl in
  let deepest = ref seed.s_deepest in
  let prof = { counts = Array.make 256 0; shift = 0 } in
  let lifetimes = Dist.create () in
  let sharing = Dist.create () in
  let liveness = Intervals.create () in
  let value_rows = ref 0 and syscall_rows = ref 0 in
  let retire l =
    let created = Array.unsafe_get create l in
    let d = Array.unsafe_get deep l in
    Dist.add lifetimes (if d > created then d - created else 0);
    Dist.add sharing (Array.unsafe_get meta l lsr 1);
    if created >= 0 then
      Intervals.add liveness ~lo:created ~hi:(if d > created then d else created)
  in
  let define l level =
    if Bytes.unsafe_get ent l = ent_live then begin
      Array.unsafe_set term_uses l (Array.unsafe_get meta l lsr 1);
      Array.unsafe_set term_deep l (Array.unsafe_get deep l);
      Bytes.unsafe_set ent l ent_term
    end
    else if
      Array.unsafe_get create l <> absent
      && Array.unsafe_get meta l land 1 <> 0
    then retire l;
    Array.unsafe_set create l level;
    Array.unsafe_set deep l level;
    Array.unsafe_set meta l 1
  in
  let record_use l level =
    if level > Array.unsafe_get deep l then Array.unsafe_set deep l level;
    Array.unsafe_set meta l (Array.unsafe_get meta l + 2)
  in
  let cols = Ddg_sim.Trace.columns trace in
  let flags_col = cols.flags
  and dsts = cols.dsts
  and a0 = cols.src0
  and a1 = cols.src1
  and a2 = cols.src2 in
  let no_extra = [||] in
  for i = lo to hi - 1 do
    let flags = Char.code (BA1.unsafe_get flags_col i) in
    let tag = flags land Ddg_sim.Trace.flags_class_mask in
    if tag = Ddg_isa.Opclass.control_tag then ()
    else if tag = Ddg_isa.Opclass.syscall_tag then begin
      incr syscall_rows;
      if syscall_stall then begin
        let hl1 = !hl - 1 in
        let level = !deepest + Array.unsafe_get lat tag in
        let level = if level > !hl then level else !hl in
        prof_add prof level;
        if level > !deepest then deepest := level;
        let touch_use s =
          if s >= 0 then begin
            if Array.unsafe_get create s = absent then begin
              Array.unsafe_set create s hl1;
              Array.unsafe_set deep s hl1;
              Array.unsafe_set meta s 0
            end;
            record_use s level
          end
        in
        touch_use (BA1.unsafe_get a0 i);
        touch_use (BA1.unsafe_get a1 i);
        touch_use (BA1.unsafe_get a2 i);
        if flags land Ddg_sim.Trace.flags_extra <> 0 then
          Array.iter touch_use (Ddg_sim.Trace.extra_srcs trace i);
        let d = BA1.unsafe_get dsts i in
        if d >= 0 then define d level;
        hl := level + 1
      end
    end
    else begin
      incr value_rows;
      let hl1 = !hl - 1 in
      let s0 = BA1.unsafe_get a0 i
      and s1 = BA1.unsafe_get a1 i
      and s2 = BA1.unsafe_get a2 i in
      let extra =
        if flags land Ddg_sim.Trace.flags_extra <> 0 then
          Ddg_sim.Trace.extra_srcs trace i
        else no_extra
      in
      let ready = ref hl1 in
      let touch_ready s =
        if s >= 0 then begin
          let c = Array.unsafe_get create s in
          if c = absent then begin
            Array.unsafe_set create s hl1;
            Array.unsafe_set deep s hl1;
            Array.unsafe_set meta s 0
          end
          else if c > !ready then ready := c
        end
      in
      touch_ready s0;
      touch_ready s1;
      touch_ready s2;
      if Array.length extra <> 0 then Array.iter touch_ready extra;
      let level = !ready + Array.unsafe_get lat tag in
      prof_add prof level;
      if level > !deepest then deepest := level;
      if s0 >= 0 then record_use s0 level;
      if s1 >= 0 then record_use s1 level;
      if s2 >= 0 then record_use s2 level;
      if Array.length extra <> 0 then
        Array.iter (fun s -> record_use s level) extra;
      let d = BA1.unsafe_get dsts i in
      if d >= 0 then define d level
    end
  done;
  (* finalize: one scan over the locations emits the entry and exit
     records. A still-live carried value with no local uses contributes
     nothing and is skipped; everything this segment materialised or
     redefined gets an exit record with its final local state. *)
  let n_entry = ref 0 and n_exit = ref 0 in
  for l = 0 to num_locs - 1 do
    match Bytes.unsafe_get ent l with
    | c when c = ent_live ->
        if Array.unsafe_get meta l lsr 1 > 0 then incr n_entry
    | c when c = ent_term ->
        incr n_entry;
        incr n_exit
    | _ -> if Array.unsafe_get create l <> absent then incr n_exit
  done;
  let entry_locs = Array.make !n_entry 0 in
  let entry_uses = Array.make !n_entry 0 in
  let entry_deep = Array.make !n_entry 0 in
  let entry_term = Bytes.make !n_entry '\000' in
  let exit_locs = Array.make !n_exit 0 in
  let exit_create = Array.make !n_exit 0 in
  let exit_deep = Array.make !n_exit 0 in
  let exit_uses = Array.make !n_exit 0 in
  let exit_comp = Bytes.make !n_exit '\000' in
  let ei = ref 0 and xi = ref 0 in
  for l = 0 to num_locs - 1 do
    let put_exit () =
      let x = !xi in
      exit_locs.(x) <- l;
      exit_create.(x) <- Array.unsafe_get create l;
      exit_deep.(x) <- Array.unsafe_get deep l;
      exit_uses.(x) <- Array.unsafe_get meta l lsr 1;
      Bytes.unsafe_set exit_comp x
        (if Array.unsafe_get meta l land 1 <> 0 then '\001' else '\000');
      incr xi
    in
    match Bytes.unsafe_get ent l with
    | c when c = ent_live ->
        let uses = Array.unsafe_get meta l lsr 1 in
        if uses > 0 then begin
          let e = !ei in
          entry_locs.(e) <- l;
          entry_uses.(e) <- uses;
          entry_deep.(e) <- Array.unsafe_get deep l;
          incr ei
        end
    | c when c = ent_term ->
        let e = !ei in
        entry_locs.(e) <- l;
        entry_uses.(e) <- Array.unsafe_get term_uses l;
        entry_deep.(e) <- Array.unsafe_get term_deep l;
        Bytes.unsafe_set entry_term e '\001';
        incr ei;
        put_exit ()
    | _ -> if Array.unsafe_get create l <> absent then put_exit ()
  done;
  { r_value_rows = !value_rows;
    r_syscall_rows = !syscall_rows;
    r_deepest = !deepest;
    r_pcounts = prof.counts;
    r_pshift = prof.shift;
    r_lifetimes = lifetimes;
    r_sharing = sharing;
    r_liveness = liveness;
    r_entry_locs = entry_locs;
    r_entry_uses = entry_uses;
    r_entry_deep = entry_deep;
    r_entry_term = entry_term;
    r_exit_locs = exit_locs;
    r_exit_create = exit_create;
    r_exit_deep = exit_deep;
    r_exit_uses = exit_uses;
    r_exit_comp = exit_comp }

(* --- sequential stitch ------------------------------------------------------

   Walk the segments in trace order, carrying per-location value state
   (create level, deepest use, use count, computed bit). Entry records
   add a segment's uses of the carried value to the carried totals; a
   terminated entry retires the carried value — with its {e complete}
   cross-segment use count and deepest level, which no single segment
   knew — and the exit record then installs the segment's final state
   for that location. After the last segment, surviving computed values
   retire exactly as the sequential [finish] would. *)

let stitch ~syscall_stall ~num_locs ~events results =
  let k = Array.length results in
  let locs = max 1 num_locs in
  let cr = Array.make locs absent in
  let dp = Array.make locs 0 in
  let us = Array.make locs 0 in
  let cp = Bytes.make locs '\000' in
  let lifetimes = Dist.create () in
  let sharing = Dist.create () in
  let liveness = Intervals.create () in
  let retire l =
    let created = cr.(l) and d = dp.(l) in
    Dist.add lifetimes (if d > created then d - created else 0);
    Dist.add sharing us.(l);
    if created >= 0 then
      Intervals.add liveness ~lo:created ~hi:(if d > created then d else created)
  in
  let value_rows = ref 0 and syscall_rows = ref 0 in
  let deepest = ref (-1) in
  let wshift = ref 0 in
  for s = 0 to k - 1 do
    let r = results.(s) in
    value_rows := !value_rows + r.r_value_rows;
    syscall_rows := !syscall_rows + r.r_syscall_rows;
    if r.r_deepest > !deepest then deepest := r.r_deepest;
    if r.r_pshift > !wshift then wshift := r.r_pshift;
    Dist.merge_into ~into:lifetimes r.r_lifetimes;
    Dist.merge_into ~into:sharing r.r_sharing;
    Intervals.merge_into ~into:liveness r.r_liveness;
    for e = 0 to Array.length r.r_entry_locs - 1 do
      let l = r.r_entry_locs.(e) in
      us.(l) <- us.(l) + r.r_entry_uses.(e);
      if r.r_entry_deep.(e) > dp.(l) then dp.(l) <- r.r_entry_deep.(e);
      if Bytes.get r.r_entry_term e = '\001' && Bytes.get cp l = '\001' then
        retire l
    done;
    for x = 0 to Array.length r.r_exit_locs - 1 do
      let l = r.r_exit_locs.(x) in
      cr.(l) <- r.r_exit_create.(x);
      dp.(l) <- r.r_exit_deep.(x);
      us.(l) <- r.r_exit_uses.(x);
      Bytes.set cp l (Bytes.get r.r_exit_comp x)
    done
  done;
  let live = ref 0 in
  for l = 0 to num_locs - 1 do
    if cr.(l) <> absent then begin
      incr live;
      if Bytes.get cp l = '\001' then retire l
    end
  done;
  (* merge the per-segment raw histograms at the coarsest segment width,
     which is exactly the width the sequential run's growth policy lands
     on for the global deepest level *)
  let placed = !value_rows + if syscall_stall then !syscall_rows else 0 in
  let wshift = !wshift in
  let nbuckets = if !deepest < 0 then 0 else (!deepest lsr wshift) + 1 in
  let counts = Array.make (max 2 nbuckets) 0 in
  for s = 0 to k - 1 do
    let r = results.(s) in
    let shift = wshift - r.r_pshift in
    let pc = r.r_pcounts in
    for i = 0 to Array.length pc - 1 do
      let c = Array.unsafe_get pc i in
      if c <> 0 then begin
        let b = i lsr shift in
        counts.(b) <- counts.(b) + c
      end
    done
  done;
  let profile =
    Profile.of_buckets ~width:(1 lsl wshift) ~max_level:!deepest ~total:placed
      counts
  in
  let critical_path = !deepest + 1 in
  { Analyzer.events;
    placed_ops = placed;
    syscalls = !syscall_rows;
    critical_path;
    available_parallelism =
      (if critical_path = 0 then 0.0
       else float_of_int placed /. float_of_int critical_path);
    profile;
    storage_profile = Intervals.to_profile liveness;
    lifetimes;
    sharing;
    live_locations = !live;
    mispredicts = 0 }

(* --- driver ----------------------------------------------------------------- *)

let analyze_ext ?(exec = sequential_exec) ?(segments = 1) config trace =
  Result.iter_error invalid_arg (Config.validate config);
  let n = Ddg_sim.Trace.length trace in
  let k = min segments n in
  if k <= 1 || not (supported config) then
    (Analyzer.analyze config trace, 1)
  else begin
    let lat = Config.latency_table config in
    let syscall_stall = config.Config.syscall_stall in
    let num_locs = Ddg_sim.Trace.num_locs trace in
    let bounds = Array.init (k + 1) (fun j -> j * n / k) in
    let seeds =
      Obs.time span_skeleton (fun () ->
          skeleton lat trace ~syscall_stall ~num_locs ~bounds)
    in
    let results = Array.make k None in
    let thunks =
      Array.init k (fun j () ->
          results.(j) <-
            Some
              (Obs.time span_segment_run (fun () ->
                   repair lat trace ~syscall_stall ~num_locs ~lo:bounds.(j)
                     ~hi:bounds.(j + 1) ~seed:seeds.(j))))
    in
    Obs.time span_segments (fun () -> exec thunks);
    let results =
      Array.map
        (function
          | Some r -> r
          | None -> failwith "Segmented.analyze: executor dropped a segment")
        results
    in
    let stats =
      Obs.time span_stitch (fun () ->
          stitch ~syscall_stall ~num_locs ~events:n results)
    in
    Obs.incr segmented_runs;
    Obs.add segments_total k;
    (stats, k)
  end

let analyze ?exec ?segments config trace =
  fst (analyze_ext ?exec ?segments config trace)
