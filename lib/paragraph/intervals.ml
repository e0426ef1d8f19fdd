(* Online interval accumulation at bounded memory.

   A naive accumulator keeps every (lo, hi) pair and resolves them at
   the end — O(values) memory, which would break the streaming
   analyzer's bounded-memory guarantee on billion-event traces. Instead
   we bucket online, exactly as the final resolution would: each
   interval adds its exact level-unit count to its two edge buckets and
   one +/- width pair to a difference array for the O(1) middle, and
   when the deepest level outgrows the bucket budget the array is
   coalesced pairwise (bucket totals are exact level-unit counts, so
   halving the resolution is exact too — the same policy as Profile).
   The resolved profile is bit-identical to what the naive accumulator
   produced: the same minimal power-of-two width for the level range,
   the same exact per-bucket totals. *)

type t = {
  mutable counts : int array; (* edge + resolved contributions per bucket *)
  mutable diff : int array;   (* pending middles; length counts + 1 *)
  mutable width : int;        (* levels per bucket, a power of two *)
  mutable wshift : int;       (* log2 width *)
  mutable n : int;            (* intervals recorded *)
  mutable total : int;        (* total level-units *)
  mutable max_hi : int;       (* deepest level seen, -1 when empty *)
  cap : int;                  (* bucket budget; width doubles past it *)
}

let default_cap = 65536

let create () =
  { counts = Array.make 256 0; diff = Array.make 257 0; width = 1;
    wshift = 0; n = 0; total = 0; max_hi = -1; cap = default_cap }

(* Materialise the pending difference entries into [counts]. Neutral on
   the represented totals; leaves [diff] zero. *)
let resolve t =
  let running = ref 0 in
  for s = 0 to Array.length t.counts - 1 do
    running := !running + t.diff.(s);
    if !running <> 0 then t.counts.(s) <- t.counts.(s) + !running
  done;
  Array.fill t.diff 0 (Array.length t.diff) 0

(* Halve the resolution: slot i absorbs old slots 2i and 2i+1. Exact,
   because every slot holds an exact level-unit total. *)
let coalesce t =
  resolve t;
  let n = Array.length t.counts in
  let fresh = Array.make n 0 in
  for i = 0 to (n / 2) - 1 do
    fresh.(i) <- t.counts.(2 * i) + t.counts.((2 * i) + 1)
  done;
  t.counts <- fresh;
  t.width <- t.width * 2;
  t.wshift <- t.wshift + 1

(* Make [level] addressable: enlarge the arrays while under the budget,
   then coarsen the bucket width. *)
let ensure t level =
  let need () = (level lsr t.wshift) + 1 in
  if need () > Array.length t.counts then begin
    if Array.length t.counts < t.cap then begin
      let n = ref (Array.length t.counts) in
      while !n < need () && !n < t.cap do
        n := !n * 2
      done;
      let n = min !n t.cap in
      let counts = Array.make n 0 in
      Array.blit t.counts 0 counts 0 (Array.length t.counts);
      let diff = Array.make (n + 1) 0 in
      (* pending +/- pairs cancel inside the old range, so the running
         sum past it is zero and a plain copy preserves the totals *)
      Array.blit t.diff 0 diff 0 (Array.length t.diff);
      t.counts <- counts;
      t.diff <- diff
    end;
    while need () > Array.length t.counts do
      coalesce t
    done
  end

let add t ~lo ~hi =
  if lo < 0 || hi < lo then invalid_arg "Intervals.add";
  ensure t hi;
  if hi > t.max_hi then t.max_hi <- hi;
  t.n <- t.n + 1;
  t.total <- t.total + (hi - lo + 1);
  let w = t.width in
  let ls = lo lsr t.wshift and hs = hi lsr t.wshift in
  if ls = hs then t.counts.(ls) <- t.counts.(ls) + (hi - lo + 1)
  else begin
    t.counts.(ls) <- t.counts.(ls) + (((ls + 1) * w) - lo);
    t.counts.(hs) <- t.counts.(hs) + (hi - (hs * w) + 1);
    t.diff.(ls + 1) <- t.diff.(ls + 1) + w;
    t.diff.(hs) <- t.diff.(hs) - w
  end

let count t = t.n

let to_profile ?(slots = default_cap) t =
  if slots < 2 then invalid_arg "Intervals.to_profile: slots < 2";
  resolve t;
  (* coarsen a copy until the requested budget is met; the accumulator
     itself keeps its resolution *)
  let width = ref t.width and counts = ref t.counts in
  while t.max_hi / !width >= slots do
    let n = Array.length !counts in
    let fresh = Array.make n 0 in
    for i = 0 to (n / 2) - 1 do
      fresh.(i) <- !counts.(2 * i) + !counts.((2 * i) + 1)
    done;
    counts := fresh;
    width := !width * 2
  done;
  let width = !width in
  let out_slots = max 2 (min slots ((t.max_hi / width) + 1)) in
  let out = Array.make out_slots 0 in
  Array.blit !counts 0 out 0 (min out_slots (Array.length !counts));
  Profile.of_buckets ~width ~max_level:t.max_hi ~total:t.total out
