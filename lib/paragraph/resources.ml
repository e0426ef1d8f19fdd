(* Pools and pool sets on flat arrays.

   A pool is a capacity and its per-level occupancy. A pool set is what
   one operation class draws from: its class pool, the total pool, or
   both. Each distinct set owns one skip chain over levels: [next.(l)] is
   0 while level [l] has room in every pool of the set, and a higher
   level to try once one of them is full there. Searches compress the
   chain behind them, so repeated searches never rescan a dense full
   prefix.

   Keeping the chain per set rather than per pool is what makes a class
   pool under a total cheap: with one chain per pool, levels that are
   full in the class pool and levels that are full in the total pool
   each stop the other pool's chain, and the search alternates between
   the two one level at a time. *)

type chain = { mutable next : int array }

type pool = {
  capacity : int;
  mutable used : int array;  (* level -> units taken *)
}

type set = {
  chain : chain;
  cls : pool option;  (* the class pool; a limited total is in every set *)
}

type t = {
  total : pool option;
  sets : set option array;  (* opclass tag -> its set; None: unthrottled *)
  chains : chain array;     (* every distinct set's chain *)
  unlimited : bool;
}

let create (limits : Config.fu_limits) =
  let pool =
    Option.map (fun capacity ->
        if capacity < 1 then
          invalid_arg "Resources.create: functional-unit limit must be >= 1";
        { capacity; used = [||] })
  in
  let total = pool limits.total in
  let set cls = { chain = { next = [||] }; cls } in
  (* classes without a pool of their own share the total-only set *)
  let shared = Option.map (fun _ -> set None) total in
  let own limit = Option.map (fun p -> set (Some p)) (pool limit) in
  let int_set = own limits.int_units
  and fp_set = own limits.fp_units
  and mem_set = own limits.mem_units in
  let or_shared = function None -> shared | s -> s in
  let sets =
    Array.init Ddg_isa.Opclass.count (fun tag ->
        match Ddg_isa.Opclass.of_tag tag with
        | Int_alu | Int_multiply | Int_divide -> or_shared int_set
        | Fp_add_sub | Fp_multiply | Fp_divide -> or_shared fp_set
        | Load_store -> or_shared mem_set
        | Syscall | Control -> shared)
  in
  let chains =
    List.filter_map
      (Option.map (fun s -> s.chain))
      [ shared; int_set; fp_set; mem_set ]
  in
  {
    total;
    sets;
    chains = Array.of_list chains;
    unlimited = Array.for_all Option.is_none sets;
  }

let unlimited t = t.unlimited

let grow a level =
  let fresh = Array.make (max (level + 1) (max 1024 (2 * Array.length a))) 0 in
  Array.blit a 0 fresh 0 (Array.length a);
  fresh

(* the least open level >= [level]; every level walked past is pointed
   straight at it *)
let find c level =
  let next = c.next in
  let n = Array.length next in
  let root = ref level in
  while !root < n && Array.unsafe_get next !root <> 0 do
    root := Array.unsafe_get next !root
  done;
  let root = !root in
  let l = ref level in
  while !l < root do
    let up = Array.unsafe_get next !l in
    Array.unsafe_set next !l root;
    l := up
  done;
  root

let block c level =
  if level >= Array.length c.next then c.next <- grow c.next level;
  if Array.unsafe_get c.next level = 0 then
    Array.unsafe_set c.next level (level + 1)

(* take one unit at [level]; true when that fills the level *)
let take p level =
  if level >= Array.length p.used then p.used <- grow p.used level;
  let u = Array.unsafe_get p.used level + 1 in
  Array.unsafe_set p.used level u;
  u = p.capacity

let place t cls ready_level =
  match Array.unsafe_get t.sets (Ddg_isa.Opclass.to_tag cls) with
  | None -> ready_level
  | Some s ->
      if ready_level < 0 then invalid_arg "Resources.place: negative level";
      let level = find s.chain ready_level in
      (match s.cls with
      | Some p -> if take p level then block s.chain level
      | None -> ());
      (match t.total with
      | Some p ->
          if take p level then
            for i = 0 to Array.length t.chains - 1 do
              block (Array.unsafe_get t.chains i) level
            done
      | None -> ());
      level
