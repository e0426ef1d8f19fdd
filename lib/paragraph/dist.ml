(* Bucket i >= 1 holds samples in [2^(i-1) .. 2^i - 1]; bucket 0 holds 0. *)

type t = {
  buckets : int array;  (* 64 buckets cover the whole int range *)
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make 64 0; n = 0; sum = 0; min_v = max_int; max_v = min_int }

let log2_floor v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_index v = if v <= 0 then 0 else 1 + log2_floor v

let add t v =
  let v = if v < 0 then 0 else v in
  let i = bucket_index v in
  Array.unsafe_set t.buckets i (Array.unsafe_get t.buckets i + 1);
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.sum
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let min_value t =
  if t.n = 0 then invalid_arg "Dist.min_value: empty" else t.min_v

let max_value t =
  if t.n = 0 then invalid_arg "Dist.max_value: empty" else t.max_v

let bounds i = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let buckets t =
  let acc = ref [] in
  for i = Array.length t.buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then begin
      let lo, hi = bounds i in
      acc := (lo, hi, t.buckets.(i)) :: !acc
    end
  done;
  !acc

let of_raw ~count ~total ~min_value ~max_value pairs =
  if count < 0 || total < 0 then invalid_arg "Dist.of_raw: negative moments";
  let t = create () in
  List.iter
    (fun (v, c) ->
      if v < 0 || c <= 0 then invalid_arg "Dist.of_raw: bad bucket";
      let i = bucket_index v in
      t.buckets.(i) <- t.buckets.(i) + c)
    pairs;
  if Array.fold_left ( + ) 0 t.buckets <> count then
    invalid_arg "Dist.of_raw: bucket counts do not sum to count";
  t.n <- count;
  t.sum <- total;
  if count > 0 then begin
    if min_value < 0 || max_value < min_value then
      invalid_arg "Dist.of_raw: bad min/max";
    t.min_v <- min_value;
    t.max_v <- max_value
  end;
  t

let quantile t q =
  if t.n = 0 then invalid_arg "Dist.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Dist.quantile: out of range";
  let target = int_of_float (ceil (q *. float_of_int t.n)) in
  let target = max 1 target in
  let rec go i seen =
    if i >= Array.length t.buckets then t.max_v
    else
      let seen = seen + t.buckets.(i) in
      if seen >= target then snd (bounds i) else go (i + 1) seen
  in
  go 0 0

let pp ppf t =
  if t.n = 0 then Format.pp_print_string ppf "(empty)"
  else begin
    Format.fprintf ppf "@[<v>n=%d mean=%.2f min=%d max=%d@," t.n (mean t)
      t.min_v t.max_v;
    List.iter
      (fun (lo, hi, c) ->
        if lo = hi then Format.fprintf ppf "  %8d      : %d@," lo c
        else Format.fprintf ppf "  %8d-%-8d: %d@," lo hi c)
      (buckets t);
    Format.fprintf ppf "@]"
  end
