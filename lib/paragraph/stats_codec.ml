exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun msg -> raise (Corrupt msg)) fmt

let magic = "DDGSTA01"
let version = 1
let terminator = 0xFE

(* The encoders and decoders are written against abstract byte
   sinks/sources: a buffer to encode into, a bounded cursor over a
   string to decode from. *)

type sink = { put_byte : int -> unit; put_string : string -> unit }

type source = {
  get_byte : unit -> int; (* raises End_of_file when exhausted *)
  get_exact : int -> string; (* n bytes; raises End_of_file when short *)
}

let sink_of_buffer b =
  { put_byte = (fun v -> Buffer.add_char b (Char.chr (v land 0xFF)));
    put_string = Buffer.add_string b }

(* Reading from a string: the length check before [String.sub] bounds
   every allocation by the bytes actually present. *)
let source_of_string s =
  let pos = ref 0 in
  let get_byte () =
    if !pos >= String.length s then raise End_of_file
    else begin
      let c = Char.code s.[!pos] in
      incr pos;
      c
    end
  in
  let get_exact n =
    if n < 0 || !pos + n > String.length s then raise End_of_file
    else begin
      let sub = String.sub s !pos n in
      pos := !pos + n;
      sub
    end
  in
  ({ get_byte; get_exact }, fun () -> !pos)

(* --- primitives (LEB128 varints, float bits big-endian) ------------------ *)

let put_varint k v =
  if v < 0 then invalid_arg "Stats_codec: negative varint";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      k.put_byte byte;
      continue := false
    end
    else k.put_byte (byte lor 0x80)
  done

let get_varint src =
  let rec go shift acc =
    if shift > 56 then corrupt "varint too long";
    let byte =
      try src.get_byte () with End_of_file -> corrupt "truncated varint"
    in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let put_float k f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    k.put_byte (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
  done

let get_float src =
  let bits = ref 0L in
  (try
     for _ = 0 to 7 do
       bits :=
         Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (src.get_byte ()))
     done
   with End_of_file -> corrupt "truncated float");
  Int64.float_of_bits !bits

(* --- profiles and distributions ------------------------------------------ *)

let put_profile k p =
  let width = Profile.bucket_width p in
  let levels = Profile.levels p in
  put_varint k width;
  put_varint k levels;
  put_varint k (Profile.total_ops p);
  let nbuckets = if levels = 0 then 0 else ((levels - 1) / width) + 1 in
  put_varint k nbuckets;
  for i = 0 to nbuckets - 1 do
    put_varint k (Profile.ops_in_bucket p i)
  done

let get_profile src =
  let width = get_varint src in
  let levels = get_varint src in
  let total = get_varint src in
  let nbuckets = get_varint src in
  if nbuckets > 1 lsl 28 then corrupt "implausible profile bucket count";
  let counts = Array.make (max 2 nbuckets) 0 in
  for i = 0 to nbuckets - 1 do
    counts.(i) <- get_varint src
  done;
  try Profile.of_buckets ~width ~max_level:(levels - 1) ~total counts
  with Invalid_argument msg -> corrupt "bad profile: %s" msg

let put_dist k d =
  let n = Dist.count d in
  put_varint k n;
  put_varint k (Dist.total d);
  if n > 0 then begin
    put_varint k (Dist.min_value d);
    put_varint k (Dist.max_value d)
  end;
  let buckets = Dist.buckets d in
  put_varint k (List.length buckets);
  List.iter
    (fun (lo, _, c) ->
      put_varint k lo;
      put_varint k c)
    buckets

let get_dist src =
  let count = get_varint src in
  let total = get_varint src in
  let min_value, max_value =
    if count > 0 then
      let mn = get_varint src in
      let mx = get_varint src in
      (mn, mx)
    else (0, 0)
  in
  let nbuckets = get_varint src in
  if nbuckets > 64 then corrupt "implausible distribution bucket count";
  let pairs =
    List.init nbuckets (fun _ ->
        let lo = get_varint src in
        let c = get_varint src in
        (lo, c))
  in
  try Dist.of_raw ~count ~total ~min_value ~max_value pairs
  with Invalid_argument msg -> corrupt "bad distribution: %s" msg

(* --- stats ----------------------------------------------------------------- *)

let put k (s : Analyzer.stats) =
  k.put_string magic;
  put_varint k version;
  put_varint k s.events;
  put_varint k s.placed_ops;
  put_varint k s.syscalls;
  put_varint k s.critical_path;
  put_varint k s.live_locations;
  put_varint k s.mispredicts;
  put_float k s.available_parallelism;
  put_profile k s.profile;
  put_profile k s.storage_profile;
  put_dist k s.lifetimes;
  put_dist k s.sharing;
  k.put_byte terminator

let get src : Analyzer.stats =
  let header =
    try src.get_exact (String.length magic)
    with End_of_file -> corrupt "missing header"
  in
  if header <> magic then corrupt "bad magic (not a stats blob)";
  let v = get_varint src in
  if v <> version then corrupt "stats version %d (this build reads %d)" v version;
  let events = get_varint src in
  let placed_ops = get_varint src in
  let syscalls = get_varint src in
  let critical_path = get_varint src in
  let live_locations = get_varint src in
  let mispredicts = get_varint src in
  let available_parallelism = get_float src in
  let profile = get_profile src in
  let storage_profile = get_profile src in
  let lifetimes = get_dist src in
  let sharing = get_dist src in
  let term =
    try src.get_byte () with End_of_file -> corrupt "missing terminator"
  in
  if term <> terminator then corrupt "bad terminator byte %d" term;
  { Analyzer.events; placed_ops; syscalls; critical_path;
    available_parallelism; profile; storage_profile; lifetimes; sharing;
    live_locations; mispredicts }

let to_string s =
  let b = Buffer.create 512 in
  put (sink_of_buffer b) s;
  Buffer.contents b

let of_string str =
  let src, consumed = source_of_string str in
  let s = get src in
  if consumed () <> String.length str then
    corrupt "trailing garbage after stats blob";
  s
