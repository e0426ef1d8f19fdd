module Trace = Ddg_sim.Trace
module BA1 = Bigarray.Array1

(* Bit 0 of an event's annotation word flags the destination as final;
   bit (j+1) flags source operand j. *)
type annotations = int array

(* [f j id] for each source operand of row [i], in operand order *)
let iter_srcs trace (cols : Trace.columns) i f =
  let column j c = if BA1.get c i >= 0 then f j (BA1.get c i) in
  column 0 cols.src0;
  column 1 cols.src1;
  column 2 cols.src2;
  if Char.code (BA1.get cols.flags i) land Trace.flags_extra <> 0 then
    Array.iteri (fun k id -> f (k + 3) id) (Trace.extra_srcs trace i)

let annotate trace =
  let cols = Trace.columns trace in
  let flags = Array.make cols.n 0 in
  let seen = Bytes.make (Trace.num_locs trace) '\000' in
  let fresh id =
    if Bytes.get seen id <> '\000' then false
    else begin
      Bytes.set seen id '\001';
      true
    end
  in
  for i = cols.n - 1 downto 0 do
    let word = ref 0 in
    let d = BA1.get cols.dsts i in
    if d >= 0 && fresh d then word := 1;
    iter_srcs trace cols i (fun j id ->
        if fresh id then word := !word lor (1 lsl (j + 1)));
    flags.(i) <- !word
  done;
  flags

let final_dest (a : annotations) i = a.(i) land 1 <> 0
let final_src (a : annotations) i j = a.(i) land (1 lsl (j + 1)) <> 0

(* The forward pass: the kernel fed one row at a time, each row's final
   references evicted right after it. *)
let analyze config trace =
  let k =
    Analyzer.create config ~num_locs:(Trace.num_locs trace)
      ~classes:(Trace.storage_classes trace)
  in
  let annotations = annotate trace in
  let cols = Trace.columns trace in
  let extra = Trace.extra_srcs trace in
  let peak = ref 0 in
  for i = 0 to cols.n - 1 do
    Analyzer.feed k cols ~extra ~lo:i ~hi:(i + 1);
    let word = annotations.(i) in
    if word <> 0 then begin
      if word land 1 <> 0 then Analyzer.evict k (BA1.get cols.dsts i);
      iter_srcs trace cols i (fun j id ->
          if word land (1 lsl (j + 1)) <> 0 then Analyzer.evict k id)
    end;
    let size = Analyzer.live_locations k in
    if size > !peak then peak := size
  done;
  (Analyzer.finish k, !peak)
