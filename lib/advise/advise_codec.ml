exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun msg -> raise (Corrupt msg)) fmt

let magic = "DDGADV01"
let version = 1
let terminator = 0xFE

(* Abstract byte sinks/sources — the {!Ddg_paragraph.Stats_codec}
   pattern. *)

type sink = { put_byte : int -> unit; put_string : string -> unit }

type source = {
  get_byte : unit -> int;    (* raises End_of_file when exhausted *)
  get_exact : int -> string; (* n bytes; raises End_of_file when short *)
}

let sink_of_buffer b =
  {
    put_byte = (fun v -> Buffer.add_char b (Char.chr (v land 0xFF)));
    put_string = Buffer.add_string b;
  }

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

let put_varint k v =
  if v < 0 then invalid_arg "Advise_codec: negative varint";
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

let put_str k s =
  put_varint k (String.length s);
  k.put_string s

let get_str ?(max = 4096) src =
  let n = get_varint src in
  if n > max then corrupt "implausible string length %d" n;
  try src.get_exact n with End_of_file -> corrupt "truncated string"

(* --- the report ----------------------------------------------------------- *)

let class_tag : Advise.classification -> int = function
  | Advise.Doall -> 0
  | Advise.Reduction _ -> 1
  | Advise.Carried _ -> 2

let put_report k (r : Advise.loop_report) =
  put_varint k r.id;
  put_str k r.func;
  put_varint k r.line;
  put_str k r.kind;
  k.put_byte (class_tag r.classification);
  (match r.classification with
  | Advise.Doall -> ()
  | Advise.Reduction { distance } | Advise.Carried { distance } ->
      put_varint k distance);
  put_varint k r.entries;
  put_varint k r.iterations;
  put_varint k r.ops;
  put_varint k r.cp_cycles;
  put_varint k (List.length r.carried);
  List.iter
    (fun (c : Advise.carried_dep) ->
      put_varint k (Ddg_isa.Loc.to_code c.location);
      put_varint k c.distance;
      put_varint k c.occurrences)
    r.carried

let get_report src : Advise.loop_report =
  let id = get_varint src in
  let func = get_str src in
  let line = get_varint src in
  let kind = get_str ~max:16 src in
  let classification =
    match try src.get_byte () with End_of_file -> corrupt "truncated class" with
    | 0 -> Advise.Doall
    | 1 -> Advise.Reduction { distance = get_varint src }
    | 2 -> Advise.Carried { distance = get_varint src }
    | t -> corrupt "unknown classification tag %d" t
  in
  let entries = get_varint src in
  let iterations = get_varint src in
  let ops = get_varint src in
  let cp_cycles = get_varint src in
  let ncarried = get_varint src in
  if ncarried > 64 then corrupt "implausible carried-dep count %d" ncarried;
  let carried =
    List.init ncarried (fun _ ->
        let location =
          let code = get_varint src in
          try Ddg_isa.Loc.of_code code
          with Invalid_argument _ -> corrupt "bad location code %d" code
        in
        let distance = get_varint src in
        let occurrences = get_varint src in
        { Advise.location; distance; occurrences })
  in
  {
    Advise.id;
    func;
    line;
    kind;
    classification;
    entries;
    iterations;
    ops;
    cp_cycles;
    carried;
  }

let put k (t : Advise.t) =
  k.put_string magic;
  put_varint k version;
  put_varint k t.total_ops;
  put_varint k t.total_cp;
  put_varint k (List.length t.loops);
  List.iter (put_report k) t.loops;
  k.put_byte terminator

let get src : Advise.t =
  let m = try src.get_exact 8 with End_of_file -> corrupt "truncated magic" in
  if m <> magic then corrupt "bad magic";
  let v = get_varint src in
  if v <> version then corrupt "version %d, expected %d" v version;
  let total_ops = get_varint src in
  let total_cp = get_varint src in
  let nloops = get_varint src in
  if nloops > 1_000_000 then corrupt "implausible loop count %d" nloops;
  let loops = List.init nloops (fun _ -> get_report src) in
  (match src.get_byte () with
  | b when b = terminator -> ()
  | b -> corrupt "bad terminator byte %d" b
  | exception End_of_file -> corrupt "truncated terminator");
  { Advise.loops; total_ops; total_cp }

let to_string t =
  let b = Buffer.create 256 in
  put (sink_of_buffer b) t;
  Buffer.contents b

let of_string s =
  let src, tell = source_of_string s in
  let t = get src in
  if tell () <> String.length s then corrupt "trailing bytes";
  t
