exception Corrupt of string

let magic_v1 = "DDGTRC01"
let magic_v2 = "DDGTRC02"
let magic_v3 = "DDGTRC03"
let trailer_v3 = "DDGTRC3E"
let format_version = magic_v3
let terminator = 0xFF
let marks_terminator = 0xFE

let corrupt fmt = Format.kasprintf (fun msg -> raise (Corrupt msg)) fmt

(* --- varint (LEB128, unsigned) ------------------------------------------- *)

let write_varint oc v =
  if v < 0 then invalid_arg "Trace_io: negative varint";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      output_byte oc byte;
      continue := false
    end
    else output_byte oc (byte lor 0x80)
  done

let read_varint ic =
  let rec go shift acc =
    if shift > 56 then corrupt "varint too long";
    let byte = try input_byte ic with End_of_file -> corrupt "truncated varint" in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* --- locations ------------------------------------------------------------ *)

let write_loc oc (loc : Ddg_isa.Loc.t) =
  match loc with
  | Reg r ->
      output_byte oc 0;
      write_varint oc r
  | Freg r ->
      output_byte oc 1;
      write_varint oc r
  | Mem a ->
      output_byte oc 2;
      write_varint oc a

let read_loc ic : Ddg_isa.Loc.t =
  let tag = try input_byte ic with End_of_file -> corrupt "truncated location" in
  let v = read_varint ic in
  match tag with
  | 0 -> Reg v
  | 1 -> Freg v
  | 2 -> Mem v
  | k -> corrupt "unknown location tag %d" k

(* --- loop-mark section (format 2) ------------------------------------------

   Written after the event terminator: the loop-descriptor table, then
   the marks (delta-coded positions), then one trailer byte so that a
   truncation anywhere inside the section is detectable. Strings are
   varint-length-prefixed bytes. *)

let write_string oc s =
  write_varint oc (String.length s);
  output_string oc s

let read_string ?(max = 4096) ic what =
  let n = read_varint ic in
  if n > max then corrupt "implausible %s length %d" what n;
  let buf = Bytes.create n in
  (try really_input ic buf 0 n
   with End_of_file -> corrupt "truncated %s" what);
  Bytes.to_string buf

let write_marks_section oc trace =
  let loops = Trace.loops trace in
  write_varint oc (Array.length loops);
  Array.iter
    (fun (l : Ddg_isa.Loop.t) ->
      write_string oc l.func;
      write_varint oc l.line;
      write_string oc l.kind;
      write_varint oc (List.length l.inductions);
      List.iter (write_loc oc) l.inductions;
      write_varint oc (List.length l.reductions);
      List.iter (write_loc oc) l.reductions;
      output_byte oc (if l.mem_reduction then 1 else 0))
    loops;
  write_varint oc (Trace.num_marks trace);
  let prev = ref 0 in
  Trace.iter_marks
    (fun { Trace.pos; kind; loop } ->
      write_varint oc (pos - !prev);
      prev := pos;
      output_byte oc (Trace.mark_kind_tag kind);
      write_varint oc loop)
    trace;
  output_byte oc marks_terminator

let read_marks_section ic trace =
  let ndescs = read_varint ic in
  if ndescs > 1_000_000 then corrupt "implausible loop count %d" ndescs;
  let read_locs what =
    let n = read_varint ic in
    if n > 64 then corrupt "implausible %s register count %d" what n;
    List.init n (fun _ -> read_loc ic)
  in
  let loops =
    Array.init ndescs (fun _ ->
        let func = read_string ic "loop function name" in
        let line = read_varint ic in
        let kind = read_string ic "loop kind" in
        let inductions = read_locs "induction" in
        let reductions = read_locs "reduction" in
        let mem_reduction =
          match
            try input_byte ic
            with End_of_file -> corrupt "truncated loop descriptor"
          with
          | 0 -> false
          | 1 -> true
          | k -> corrupt "bad memred flag %d" k
        in
        { Ddg_isa.Loop.func; line; kind; inductions; reductions;
          mem_reduction })
  in
  Trace.set_loops trace loops;
  let nmarks = read_varint ic in
  let pos = ref 0 in
  for _ = 1 to nmarks do
    pos := !pos + read_varint ic;
    if !pos > Trace.length trace then
      corrupt "mark position %d beyond trace length %d" !pos
        (Trace.length trace);
    let kind =
      match
        Trace.mark_kind_of_tag
          (try input_byte ic with End_of_file -> corrupt "truncated mark")
      with
      | Some k -> k
      | None -> corrupt "unknown mark kind"
    in
    let loop = read_varint ic in
    if loop >= ndescs then
      corrupt "mark references loop %d of %d" loop ndescs;
    Trace.add_mark_at trace ~pos:!pos ~kind ~loop
  done;
  match input_byte ic with
  | b when b = marks_terminator -> ()
  | b -> corrupt "bad marks trailer byte %d" b
  | exception End_of_file -> corrupt "truncated marks section"

(* --- legacy whole-trace writer ---------------------------------------------- *)

module BA1 = Bigarray.Array1

(* Write straight from the packed columns: the in-memory flags byte is the
   file's flags byte (minus the in-memory extra bit), operand ids resolve
   through the trace's interner. A markless trace is written in format 1,
   byte-for-byte as before the side channel existed; only traces that
   actually carry marks pay for (or advertise) format 2. *)
let write_channel oc trace =
  let has_marks =
    Trace.num_marks trace > 0 || Array.length (Trace.loops trace) > 0
  in
  output_string oc (if has_marks then magic_v2 else magic_v1);
  let cols = Trace.columns trace in
  for i = 0 to cols.n - 1 do
    let flags = Char.code (BA1.unsafe_get cols.flags i) in
    output_byte oc (flags land lnot Trace.flags_extra);
    write_varint oc cols.pcs.{i};
    let d = cols.dsts.{i} in
    if d >= 0 then write_loc oc (Trace.loc_of_id trace d);
    let s0 = cols.src0.{i} and s1 = cols.src1.{i} and s2 = cols.src2.{i} in
    let extra =
      if flags land Trace.flags_extra <> 0 then Trace.extra_srcs trace i
      else [||]
    in
    let nsrcs =
      (if s0 >= 0 then 1 else 0)
      + (if s1 >= 0 then 1 else 0)
      + (if s2 >= 0 then 1 else 0)
      + Array.length extra
    in
    write_varint oc nsrcs;
    if s0 >= 0 then write_loc oc (Trace.loc_of_id trace s0);
    if s1 >= 0 then write_loc oc (Trace.loc_of_id trace s1);
    if s2 >= 0 then write_loc oc (Trace.loc_of_id trace s2);
    Array.iter (fun id -> write_loc oc (Trace.loc_of_id trace id)) extra
  done;
  output_byte oc terminator;
  if has_marks then write_marks_section oc trace

let write_file path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_channel oc trace)

(* --- flat format (version 3) -------------------------------------------------

   Fixed-stride sections behind a 40-byte header, every section 8-aligned
   so the operand columns can be handed to [Unix.map_file] directly:

     header   magic "DDGTRC03", then n_events, n_locs, n_marks, aux_len
              as 64-bit little-endian counts
     flags    1 byte per event (same bit assignments as the packed trace,
              including the overflow bit 7), padded to 8
     pcs, dsts, src0, src1, src2
              8 bytes per event, little-endian two's complement; operand
              columns hold dense location ids, -1 when absent
     locs     8 bytes per location id: Loc.to_code
     mark_pos 8 bytes per mark (non-decreasing positions)
     mark_kind  1 byte per mark, padded to 8
     mark_loop  8 bytes per mark
     aux      varint blob: the loop-descriptor table (as in format 2) and
              the overflow source rows, padded to 8
     trailer  16-byte MD5 of everything before it, then "DDGTRC3E"

   All padding is zero. The digest sits in a trailer (not the header) so
   the writer can stream columns to disk and digest the finished file in
   one chunked pass. *)

let header_bytes = 40
let trailer_bytes = 24
let max_count = 1 lsl 48
let pad8 n = (n + 7) land lnot 7

type flat_layout = {
  l_events : int;
  l_locs : int;
  l_marks : int;
  l_aux : int;
  o_flags : int;
  o_pcs : int;
  o_dsts : int;
  o_src0 : int;
  o_src1 : int;
  o_src2 : int;
  o_locs : int;
  o_mpos : int;
  o_mkind : int;
  o_mloop : int;
  o_aux : int;
  o_digest : int;
  total : int;
}

let layout ~events ~locs ~marks ~aux =
  let check what v =
    if v < 0 || v > max_count then corrupt "implausible %s count %d" what v
  in
  check "event" events;
  check "location" locs;
  check "mark" marks;
  check "aux byte" aux;
  let o_flags = header_bytes in
  let o_pcs = o_flags + pad8 events in
  let o_dsts = o_pcs + (8 * events) in
  let o_src0 = o_dsts + (8 * events) in
  let o_src1 = o_src0 + (8 * events) in
  let o_src2 = o_src1 + (8 * events) in
  let o_locs = o_src2 + (8 * events) in
  let o_mpos = o_locs + (8 * locs) in
  let o_mkind = o_mpos + (8 * marks) in
  let o_mloop = o_mkind + pad8 marks in
  let o_aux = o_mloop + (8 * marks) in
  let o_digest = o_aux + pad8 aux in
  let total = o_digest + trailer_bytes in
  { l_events = events; l_locs = locs; l_marks = marks; l_aux = aux;
    o_flags; o_pcs; o_dsts; o_src0; o_src1; o_src2; o_locs; o_mpos;
    o_mkind; o_mloop; o_aux; o_digest; total }

let bwrite_varint b v =
  if v < 0 then invalid_arg "Trace_io: negative varint";
  let v = ref v in
  let continue = ref true in
  while !continue do
    let byte = !v land 0x7F in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let bwrite_string b s =
  bwrite_varint b (String.length s);
  Buffer.add_string b s

let bwrite_loc b (loc : Ddg_isa.Loc.t) =
  match loc with
  | Reg r ->
      Buffer.add_char b '\000';
      bwrite_varint b r
  | Freg r ->
      Buffer.add_char b '\001';
      bwrite_varint b r
  | Mem a ->
      Buffer.add_char b '\002';
      bwrite_varint b a

let bwrite_loops b loops =
  bwrite_varint b (Array.length loops);
  Array.iter
    (fun (l : Ddg_isa.Loop.t) ->
      bwrite_string b l.func;
      bwrite_varint b l.line;
      bwrite_string b l.kind;
      bwrite_varint b (List.length l.inductions);
      List.iter (bwrite_loc b) l.inductions;
      bwrite_varint b (List.length l.reductions);
      List.iter (bwrite_loc b) l.reductions;
      Buffer.add_char b (if l.mem_reduction then '\001' else '\000'))
    loops

let bwrite_extras b extras =
  bwrite_varint b (List.length extras);
  List.iter
    (fun (i, ids) ->
      bwrite_varint b i;
      bwrite_varint b (Array.length ids);
      Array.iter (bwrite_varint b) ids)
    extras

(* The aux blob holds the two variable-length leftovers: the loop
   descriptor table (same shape as the v2 side channel) and the overflow
   source rows, ascending by row index. *)
let aux_blob trace =
  let b = Buffer.create 256 in
  bwrite_loops b (Trace.loops trace);
  let cols = Trace.columns trace in
  let extras = ref [] in
  for i = cols.n - 1 downto 0 do
    if Char.code (BA1.unsafe_get cols.flags i) land Trace.flags_extra <> 0
    then extras := (i, Trace.extra_srcs trace i) :: !extras
  done;
  bwrite_extras b !extras;
  Buffer.contents b

let set64 b off v = Bytes.set_int64_le b off (Int64.of_int v)

let write_channel_flat oc trace =
  let cols = Trace.columns trace in
  let aux = aux_blob trace in
  let nlocs = Trace.num_locs trace in
  let nmarks = Trace.num_marks trace in
  let lay =
    layout ~events:cols.n ~locs:nlocs ~marks:nmarks ~aux:(String.length aux)
  in
  let body = Bytes.make lay.o_digest '\000' in
  Bytes.blit_string magic_v3 0 body 0 8;
  set64 body 8 lay.l_events;
  set64 body 16 lay.l_locs;
  set64 body 24 lay.l_marks;
  set64 body 32 lay.l_aux;
  for i = 0 to cols.n - 1 do
    Bytes.unsafe_set body (lay.o_flags + i) (BA1.unsafe_get cols.flags i);
    set64 body (lay.o_pcs + (8 * i)) cols.pcs.{i};
    set64 body (lay.o_dsts + (8 * i)) cols.dsts.{i};
    set64 body (lay.o_src0 + (8 * i)) cols.src0.{i};
    set64 body (lay.o_src1 + (8 * i)) cols.src1.{i};
    set64 body (lay.o_src2 + (8 * i)) cols.src2.{i}
  done;
  for id = 0 to nlocs - 1 do
    set64 body (lay.o_locs + (8 * id))
      (Ddg_isa.Loc.to_code (Trace.loc_of_id trace id))
  done;
  for m = 0 to nmarks - 1 do
    let { Trace.pos; kind; loop } = Trace.get_mark trace m in
    set64 body (lay.o_mpos + (8 * m)) pos;
    Bytes.unsafe_set body (lay.o_mkind + m)
      (Char.chr (Trace.mark_kind_tag kind));
    set64 body (lay.o_mloop + (8 * m)) loop
  done;
  Bytes.blit_string aux 0 body lay.o_aux (String.length aux);
  let digest = Digest.subbytes body 0 lay.o_digest in
  output_bytes oc body;
  output_string oc digest;
  output_string oc trailer_v3

let write_file_flat path trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_channel_flat oc trace)

(* --- flat readers ------------------------------------------------------------ *)

type cursor = { cs : string; mutable cp : int }

let cur_byte c what =
  if c.cp >= String.length c.cs then corrupt "truncated %s" what;
  let b = Char.code (String.unsafe_get c.cs c.cp) in
  c.cp <- c.cp + 1;
  b

let cur_varint c =
  let rec go shift acc =
    if shift > 56 then corrupt "varint too long";
    let byte = cur_byte c "varint" in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let cur_string ?(max = 4096) c what =
  let n = cur_varint c in
  if n > max then corrupt "implausible %s length %d" what n;
  if c.cp + n > String.length c.cs then corrupt "truncated %s" what;
  let s = String.sub c.cs c.cp n in
  c.cp <- c.cp + n;
  s

let cur_loc c : Ddg_isa.Loc.t =
  let tag = cur_byte c "location" in
  let v = cur_varint c in
  match tag with
  | 0 -> Reg v
  | 1 -> Freg v
  | 2 -> Mem v
  | k -> corrupt "unknown location tag %d" k

let parse_aux ~events ~num_locs s =
  let c = { cs = s; cp = 0 } in
  let ndescs = cur_varint c in
  if ndescs > 1_000_000 then corrupt "implausible loop count %d" ndescs;
  let read_locs what =
    let n = cur_varint c in
    if n > 64 then corrupt "implausible %s register count %d" what n;
    List.init n (fun _ -> cur_loc c)
  in
  let loops =
    Array.init ndescs (fun _ ->
        let func = cur_string c "loop function name" in
        let line = cur_varint c in
        let kind = cur_string c "loop kind" in
        let inductions = read_locs "induction" in
        let reductions = read_locs "reduction" in
        let mem_reduction =
          match cur_byte c "loop descriptor" with
          | 0 -> false
          | 1 -> true
          | k -> corrupt "bad memred flag %d" k
        in
        { Ddg_isa.Loop.func; line; kind; inductions; reductions;
          mem_reduction })
  in
  let nextra = cur_varint c in
  if nextra > events then corrupt "implausible overflow row count %d" nextra;
  let prev = ref (-1) in
  let extra =
    List.init nextra (fun _ ->
        let row = cur_varint c in
        if row <= !prev || row >= events then
          corrupt "bad overflow row index %d" row;
        prev := row;
        let cnt = cur_varint c in
        if cnt < 1 || cnt > 13 then
          corrupt "implausible overflow source count %d" cnt;
        let ids =
          Array.init cnt (fun _ ->
              let id = cur_varint c in
              if id >= num_locs then
                corrupt "overflow source id %d of %d" id num_locs;
              id)
        in
        (row, ids))
  in
  if c.cp <> String.length s then corrupt "trailing bytes in aux section";
  (loops, extra)

let decode_locs s nlocs =
  Array.init nlocs (fun id ->
      let code = Int64.to_int (String.get_int64_le s (8 * id)) in
      if code < 0 then corrupt "negative location code for id %d" id;
      try Ddg_isa.Loc.of_code code
      with Invalid_argument _ -> corrupt "bad location code for id %d" id)

let decode_marks ~events ~nloops mpos mkind mloop nmarks =
  let prev = ref 0 in
  Array.init nmarks (fun m ->
      let pos = Int64.to_int (String.get_int64_le mpos (8 * m)) in
      if pos < !prev || pos > events then corrupt "bad mark position %d" pos;
      prev := pos;
      let kind =
        match Trace.mark_kind_of_tag (Char.code mkind.[m]) with
        | Some k -> k
        | None -> corrupt "unknown mark kind %d" (Char.code mkind.[m])
      in
      let loop = Int64.to_int (String.get_int64_le mloop (8 * m)) in
      if loop < 0 || loop >= nloops then
        corrupt "mark references loop %d of %d" loop nloops;
      (pos, kind, loop))

let parse_header counts =
  let get i =
    (* reject counts that [Int64.to_int] would alias (the OCaml int
       drops the top bit), so a flipped high bit cannot masquerade as a
       small count that happens to match the file size *)
    let v = String.get_int64_le counts (8 * i) in
    let n = Int64.to_int v in
    if n < 0 || Int64.of_int n <> v then corrupt "header count out of range";
    n
  in
  layout ~events:(get 0) ~locs:(get 1) ~marks:(get 2) ~aux:(get 3)

let validate_columns ~lay ~extra_tbl (flags : Trace.byte_col)
    (pcs : Trace.int_col) (dsts : Trace.int_col) (s0 : Trace.int_col)
    (s1 : Trace.int_col) (s2 : Trace.int_col) =
  let nlocs = lay.l_locs in
  let nbit7 = ref 0 in
  for i = 0 to lay.l_events - 1 do
    let f = Char.code (BA1.unsafe_get flags i) in
    if f land Trace.flags_class_mask > 8 then
      corrupt "row %d: unknown operation class %d" i
        (f land Trace.flags_class_mask);
    if pcs.{i} < 0 then corrupt "row %d: negative pc" i;
    let d = dsts.{i} in
    (if f land Trace.flags_has_dest <> 0 then begin
       if d < 0 || d >= nlocs then corrupt "row %d: bad destination id %d" i d
     end
     else if d <> -1 then corrupt "row %d: destination id on destless row" i);
    let check_src s =
      if s <> -1 && (s < 0 || s >= nlocs) then
        corrupt "row %d: bad source id %d" i s
    in
    check_src s0.{i};
    check_src s1.{i};
    check_src s2.{i};
    if f land Trace.flags_extra <> 0 then begin
      incr nbit7;
      if not (Hashtbl.mem extra_tbl i) then
        corrupt "row %d: extra bit with no overflow row" i
    end
  done;
  if !nbit7 <> Hashtbl.length extra_tbl then
    corrupt "overflow rows without extra bit"

(* The "small" sections — everything except the six event columns — are
   read eagerly through [fetch off len]; they are tiny next to the
   columns for any real trace. *)
let read_small fetch lay =
  let locs = decode_locs (fetch lay.o_locs (8 * lay.l_locs)) lay.l_locs in
  let aux = fetch lay.o_aux lay.l_aux in
  let loops, extra =
    parse_aux ~events:lay.l_events ~num_locs:lay.l_locs aux
  in
  let marks =
    if lay.l_marks = 0 then [||]
    else
      decode_marks ~events:lay.l_events ~nloops:(Array.length loops)
        (fetch lay.o_mpos (8 * lay.l_marks))
        (fetch lay.o_mkind lay.l_marks)
        (fetch lay.o_mloop (8 * lay.l_marks))
        lay.l_marks
  in
  (locs, loops, extra, marks)

let assemble lay (locs, loops, extra, marks) ~flags ~pcs ~dsts ~s0 ~s1 ~s2 =
  let extra_tbl = Hashtbl.create (List.length extra) in
  List.iter (fun (row, ids) -> Hashtbl.replace extra_tbl row ids) extra;
  validate_columns ~lay ~extra_tbl flags pcs dsts s0 s1 s2;
  try
    Trace.of_parts ~len:lay.l_events ~flags ~pcs ~dsts ~src0:s0 ~src1:s1
      ~src2:s2 ~extra ~locs ~loops ~marks
  with Invalid_argument msg -> corrupt "flat trace rejected: %s" msg

let really_input_string_at ic pos len what =
  seek_in ic pos;
  try really_input_string ic len
  with End_of_file -> corrupt "truncated %s" what

(* Validate header, size and trailer of a flat trace starting at byte
   [pos] of [ic]; optionally verify the content digest (a chunked pass,
   never loading the whole trace). *)
let open_flat ic ~pos ~verify =
  let flen = in_channel_length ic in
  if flen - pos < header_bytes + trailer_bytes then
    corrupt "flat trace too short (%d bytes)" (flen - pos);
  let hdr = really_input_string_at ic pos header_bytes "flat header" in
  if String.sub hdr 0 8 <> magic_v3 then
    corrupt "bad magic (not a flat trace)";
  let lay = parse_header (String.sub hdr 8 32) in
  if flen - pos < lay.total then
    corrupt "flat trace truncated: need %d bytes, have %d" lay.total
      (flen - pos);
  let trailer =
    really_input_string_at ic (pos + lay.o_digest) trailer_bytes
      "flat trailer"
  in
  if String.sub trailer 16 8 <> trailer_v3 then corrupt "bad flat trailer";
  if verify then begin
    seek_in ic pos;
    let d = Digest.channel ic lay.o_digest in
    if d <> String.sub trailer 0 16 then corrupt "flat trace digest mismatch"
  end;
  lay

let fetch_channel ic ~pos off len =
  really_input_string_at ic (pos + off) len "flat section"

let heap_byte_col n : Trace.byte_col =
  BA1.create Bigarray.char Bigarray.c_layout n

let heap_int_col n : Trace.int_col =
  BA1.create Bigarray.int Bigarray.c_layout n

let map_col1 fd ~pos n : Trace.byte_col =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.char
       Bigarray.c_layout false [| n |])

let map_col8 fd ~pos n : Trace.int_col =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int Bigarray.c_layout
       false [| n |])

let map_file ?(verify = true) ?(pos = 0) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lay = open_flat ic ~pos ~verify in
      let small = read_small (fetch_channel ic ~pos) lay in
      let n = lay.l_events in
      if n = 0 then
        assemble lay small ~flags:(heap_byte_col 0) ~pcs:(heap_int_col 0)
          ~dsts:(heap_int_col 0) ~s0:(heap_int_col 0) ~s1:(heap_int_col 0)
          ~s2:(heap_int_col 0)
      else begin
        let fd =
          try Unix.openfile path [ Unix.O_RDONLY ] 0
          with Unix.Unix_error (e, _, _) ->
            corrupt "cannot open %s: %s" path (Unix.error_message e)
        in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            try
              let flags = map_col1 fd ~pos:(pos + lay.o_flags) n in
              let pcs = map_col8 fd ~pos:(pos + lay.o_pcs) n in
              let dsts = map_col8 fd ~pos:(pos + lay.o_dsts) n in
              let s0 = map_col8 fd ~pos:(pos + lay.o_src0) n in
              let s1 = map_col8 fd ~pos:(pos + lay.o_src1) n in
              let s2 = map_col8 fd ~pos:(pos + lay.o_src2) n in
              assemble lay small ~flags ~pcs ~dsts ~s0 ~s1 ~s2
            with
            | Unix.Unix_error (e, _, _) ->
                corrupt "cannot map %s: %s" path (Unix.error_message e)
            | Sys_error msg -> corrupt "cannot map %s: %s" path msg)
      end)

(* Sequential in-channel flat read (the magic has been consumed): loads
   the whole body, so only suitable for traces that fit in memory — the
   dispatching [read_channel] uses it so v3 bytes work anywhere v1/v2
   bytes did. *)
let read_flat_channel ic =
  let hdr =
    try really_input_string ic 32
    with End_of_file -> corrupt "truncated flat header"
  in
  let lay = parse_header hdr in
  let body = Bytes.make lay.o_digest '\000' in
  Bytes.blit_string magic_v3 0 body 0 8;
  Bytes.blit_string hdr 0 body 8 32;
  (try really_input ic body header_bytes (lay.o_digest - header_bytes)
   with End_of_file -> corrupt "flat trace truncated");
  let trailer =
    try really_input_string ic trailer_bytes
    with End_of_file -> corrupt "truncated flat trailer"
  in
  if String.sub trailer 16 8 <> trailer_v3 then corrupt "bad flat trailer";
  if Digest.bytes body <> String.sub trailer 0 16 then
    corrupt "flat trace digest mismatch";
  let fetch off len = Bytes.sub_string body off len in
  let small = read_small fetch lay in
  let n = lay.l_events in
  let flags = heap_byte_col n in
  let pcs = heap_int_col n
  and dsts = heap_int_col n
  and s0 = heap_int_col n
  and s1 = heap_int_col n
  and s2 = heap_int_col n in
  for i = 0 to n - 1 do
    BA1.unsafe_set flags i (Bytes.unsafe_get body (lay.o_flags + i));
    pcs.{i} <- Int64.to_int (Bytes.get_int64_le body (lay.o_pcs + (8 * i)));
    dsts.{i} <- Int64.to_int (Bytes.get_int64_le body (lay.o_dsts + (8 * i)));
    s0.{i} <- Int64.to_int (Bytes.get_int64_le body (lay.o_src0 + (8 * i)));
    s1.{i} <- Int64.to_int (Bytes.get_int64_le body (lay.o_src1 + (8 * i)));
    s2.{i} <- Int64.to_int (Bytes.get_int64_le body (lay.o_src2 + (8 * i)))
  done;
  assemble lay small ~flags ~pcs ~dsts ~s0 ~s1 ~s2

(* --- format dispatch --------------------------------------------------------- *)

let check_magic ic =
  let buf = Bytes.create (String.length magic_v1) in
  (try really_input ic buf 0 (String.length magic_v1)
   with End_of_file -> corrupt "missing header");
  match Bytes.to_string buf with
  | s when s = magic_v1 -> `V1
  | s when s = magic_v2 -> `V2
  | s when s = magic_v3 -> `V3
  | _ -> corrupt "bad magic (not a trace file)"

(* Read straight into the packed columns, interning locations as they
   stream past, without materialising event records. *)
let read_channel ic =
  match check_magic ic with
  | `V3 -> read_flat_channel ic
  | (`V1 | `V2) as version ->
      let trace = Trace.create () in
      let rec go () =
        let flags =
          try input_byte ic with End_of_file -> corrupt "missing terminator"
        in
        if flags <> terminator then begin
          if flags land Trace.flags_class_mask > 8 then
            corrupt "unknown operation class %d"
              (flags land Trace.flags_class_mask);
          let pc = read_varint ic in
          Trace.start_row trace ~flags:(flags land 0x7F) ~pc;
          if flags land Trace.flags_has_dest <> 0 then
            Trace.row_set_dest trace (read_loc ic);
          let nsrcs = read_varint ic in
          if nsrcs > 16 then corrupt "implausible source count %d" nsrcs;
          for _ = 1 to nsrcs do
            Trace.row_add_src trace (read_loc ic)
          done;
          go ()
        end
      in
      go ();
      if version = `V2 then read_marks_section ic trace;
      trace

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)

(* --- bounded-memory streaming read ------------------------------------------- *)

type flat_info = {
  fi_events : int;
  fi_locs : Ddg_isa.Loc.t array;
  fi_loops : Ddg_isa.Loop.t array;
}

(* Read-windows (not mmap) on purpose: pages touched through a mapping
   count against the process's resident set, which would defeat the
   peak-RSS bound this reader exists to honour. Six channels advance in
   lockstep, one per column, [window] rows at a time; each window is
   validated, decoded into window-sized columns reused for the next
   window, and handed to [rows] whole. *)
let stream_file ?(verify = true) ?(pos = 0) ?(window = 65536) path ~init ~rows
    =
  if window < 1 then invalid_arg "Trace_io.stream_file: window";
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lay = open_flat ic ~pos ~verify in
      let locs, loops, extra, _marks =
        read_small (fetch_channel ic ~pos) lay
      in
      let extra_tbl = Hashtbl.create (List.length extra) in
      List.iter (fun (r, ids) -> Hashtbl.replace extra_tbl r ids) extra;
      let info =
        { fi_events = lay.l_events; fi_locs = locs; fi_loops = loops }
      in
      let acc = ref (init info) in
      let open_at off =
        let c = open_in_bin path in
        seek_in c (pos + off);
        c
      in
      let cf = open_at lay.o_flags in
      let cp = open_at lay.o_pcs in
      let cd = open_at lay.o_dsts in
      let c0 = open_at lay.o_src0 in
      let c1 = open_at lay.o_src1 in
      let c2 = open_at lay.o_src2 in
      Fun.protect
        ~finally:(fun () ->
          List.iter close_in_noerr [ cf; cp; cd; c0; c1; c2 ])
        (fun () ->
          let bf = Bytes.create window in
          let bp = Bytes.create (8 * window) in
          let bd = Bytes.create (8 * window) in
          let b0 = Bytes.create (8 * window) in
          let b1 = Bytes.create (8 * window) in
          let b2 = Bytes.create (8 * window) in
          let cols =
            { Trace.n = 0; flags = heap_byte_col window;
              pcs = heap_int_col window; dsts = heap_int_col window;
              src0 = heap_int_col window; src1 = heap_int_col window;
              src2 = heap_int_col window }
          in
          let nlocs = lay.l_locs in
          let nbit7 = ref 0 in
          let consumed = ref 0 in
          while !consumed < lay.l_events do
            let w = min window (lay.l_events - !consumed) in
            let fill c b len what =
              try really_input c b 0 len
              with End_of_file -> corrupt "truncated %s column" what
            in
            fill cf bf w "flags";
            fill cp bp (8 * w) "pc";
            fill cd bd (8 * w) "dest";
            fill c0 b0 (8 * w) "src0";
            fill c1 b1 (8 * w) "src1";
            fill c2 b2 (8 * w) "src2";
            for k = 0 to w - 1 do
              let i = !consumed + k in
              let f = Char.code (Bytes.unsafe_get bf k) in
              if f land Trace.flags_class_mask > 8 then
                corrupt "row %d: unknown operation class %d" i
                  (f land Trace.flags_class_mask);
              let pc = Int64.to_int (Bytes.get_int64_le bp (8 * k)) in
              if pc < 0 then corrupt "row %d: negative pc" i;
              let d = Int64.to_int (Bytes.get_int64_le bd (8 * k)) in
              (if f land Trace.flags_has_dest <> 0 then begin
                 if d < 0 || d >= nlocs then
                   corrupt "row %d: bad destination id %d" i d
               end
               else if d <> -1 then
                 corrupt "row %d: destination id on destless row" i);
              let s0 = Int64.to_int (Bytes.get_int64_le b0 (8 * k)) in
              let s1 = Int64.to_int (Bytes.get_int64_le b1 (8 * k)) in
              let s2 = Int64.to_int (Bytes.get_int64_le b2 (8 * k)) in
              let check_src s =
                if s <> -1 && (s < 0 || s >= nlocs) then
                  corrupt "row %d: bad source id %d" i s
              in
              check_src s0;
              check_src s1;
              check_src s2;
              if f land Trace.flags_extra <> 0 then begin
                incr nbit7;
                if not (Hashtbl.mem extra_tbl i) then
                  corrupt "row %d: extra bit with no overflow row" i
              end;
              BA1.unsafe_set cols.flags k (Bytes.unsafe_get bf k);
              BA1.unsafe_set cols.pcs k pc;
              BA1.unsafe_set cols.dsts k d;
              BA1.unsafe_set cols.src0 k s0;
              BA1.unsafe_set cols.src1 k s1;
              BA1.unsafe_set cols.src2 k s2
            done;
            let base = !consumed in
            let extra k =
              match Hashtbl.find_opt extra_tbl (base + k) with
              | Some ids -> ids
              | None -> [||]
            in
            acc := rows !acc { cols with n = w } ~extra;
            consumed := !consumed + w
          done;
          if !nbit7 <> Hashtbl.length extra_tbl then
            corrupt "overflow rows without extra bit";
          !acc))

(* --- streaming flat writer ---------------------------------------------------

   For traces too large to hold in memory: the event count is declared up
   front (the column offsets depend on it), events stream through fixed
   window buffers, and the small sections land after the last flush at
   offsets computed from the final interner/mark counts. *)

type flat_writer = {
  fw_path : string;
  fw_fd : Unix.file_descr;
  fw_events : int;
  fw_window : int;
  fwb_flags : Bytes.t;
  fwb_pcs : Bytes.t;
  fwb_dsts : Bytes.t;
  fwb_src0 : Bytes.t;
  fwb_src1 : Bytes.t;
  fwb_src2 : Bytes.t;
  mutable fw_fill : int;
  mutable fw_done : int;
  mutable fw_locs : Ddg_isa.Loc.t list;  (* reversed *)
  fw_ids : (int, int) Hashtbl.t;
  mutable fw_nlocs : int;
  mutable fw_marks : (int * Ddg_isa.Insn.mark * int) list;  (* reversed *)
  mutable fw_nmarks : int;
  mutable fw_loops : Ddg_isa.Loop.t array;
  mutable fw_extra : (int * int array) list;  (* reversed *)
  fw_lay : flat_layout;  (* provisional: event offsets only *)
  mutable fw_closed : bool;
}

let write_all fd buf len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

let pwrite fd ~off buf len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  write_all fd buf len

let flat_writer ?(window = 65536) ~events path =
  if events < 0 then invalid_arg "Trace_io.flat_writer: negative event count";
  if window < 1 then invalid_arg "Trace_io.flat_writer: window";
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  {
    fw_path = path;
    fw_fd = fd;
    fw_events = events;
    fw_window = window;
    fwb_flags = Bytes.create window;
    fwb_pcs = Bytes.create (8 * window);
    fwb_dsts = Bytes.create (8 * window);
    fwb_src0 = Bytes.create (8 * window);
    fwb_src1 = Bytes.create (8 * window);
    fwb_src2 = Bytes.create (8 * window);
    fw_fill = 0;
    fw_done = 0;
    fw_locs = [];
    fw_ids = Hashtbl.create 256;
    fw_nlocs = 0;
    fw_marks = [];
    fw_nmarks = 0;
    fw_loops = [||];
    fw_extra = [];
    fw_lay = layout ~events ~locs:0 ~marks:0 ~aux:0;
    fw_closed = false;
  }

let fw_intern w loc =
  let code = Ddg_isa.Loc.to_code loc in
  match Hashtbl.find_opt w.fw_ids code with
  | Some id -> id
  | None ->
      let id = w.fw_nlocs in
      Hashtbl.add w.fw_ids code id;
      w.fw_locs <- loc :: w.fw_locs;
      w.fw_nlocs <- id + 1;
      id

let fw_flush w =
  if w.fw_fill > 0 then begin
    let d = w.fw_done and n = w.fw_fill in
    pwrite w.fw_fd ~off:(w.fw_lay.o_flags + d) w.fwb_flags n;
    pwrite w.fw_fd ~off:(w.fw_lay.o_pcs + (8 * d)) w.fwb_pcs (8 * n);
    pwrite w.fw_fd ~off:(w.fw_lay.o_dsts + (8 * d)) w.fwb_dsts (8 * n);
    pwrite w.fw_fd ~off:(w.fw_lay.o_src0 + (8 * d)) w.fwb_src0 (8 * n);
    pwrite w.fw_fd ~off:(w.fw_lay.o_src1 + (8 * d)) w.fwb_src1 (8 * n);
    pwrite w.fw_fd ~off:(w.fw_lay.o_src2 + (8 * d)) w.fwb_src2 (8 * n);
    w.fw_done <- d + n;
    w.fw_fill <- 0
  end

let flat_add w (e : Trace.event) =
  if w.fw_closed then invalid_arg "Trace_io.flat_add: writer closed";
  if w.fw_done + w.fw_fill >= w.fw_events then
    invalid_arg "Trace_io.flat_add: more events than declared";
  let k = w.fw_fill in
  let flags = Ddg_isa.Opclass.to_tag e.op_class in
  let flags =
    if e.dest <> None then flags lor Trace.flags_has_dest else flags
  in
  let flags =
    match e.branch with
    | Some { Trace.taken } ->
        flags lor Trace.flags_branch
        lor (if taken then Trace.flags_taken else 0)
    | None -> flags
  in
  let ids = List.map (fun l -> fw_intern w l) e.srcs in
  let s0, s1, s2, rest =
    match ids with
    | [] -> (-1, -1, -1, [])
    | [ a ] -> (a, -1, -1, [])
    | [ a; b ] -> (a, b, -1, [])
    | [ a; b; c ] -> (a, b, c, [])
    | a :: b :: c :: rest -> (a, b, c, rest)
  in
  if List.length rest > 13 then
    invalid_arg "Trace_io.flat_add: too many sources";
  let flags = if rest <> [] then flags lor Trace.flags_extra else flags in
  Bytes.unsafe_set w.fwb_flags k (Char.unsafe_chr flags);
  Bytes.set_int64_le w.fwb_pcs (8 * k) (Int64.of_int e.pc);
  let d = match e.dest with Some l -> fw_intern w l | None -> -1 in
  Bytes.set_int64_le w.fwb_dsts (8 * k) (Int64.of_int d);
  Bytes.set_int64_le w.fwb_src0 (8 * k) (Int64.of_int s0);
  Bytes.set_int64_le w.fwb_src1 (8 * k) (Int64.of_int s1);
  Bytes.set_int64_le w.fwb_src2 (8 * k) (Int64.of_int s2);
  if rest <> [] then
    w.fw_extra <- (w.fw_done + k, Array.of_list rest) :: w.fw_extra;
  w.fw_fill <- k + 1;
  if w.fw_fill = w.fw_window then fw_flush w

let flat_add_mark w ~kind ~loop =
  if w.fw_closed then invalid_arg "Trace_io.flat_add_mark: writer closed";
  if loop < 0 then invalid_arg "Trace_io.flat_add_mark: negative loop id";
  w.fw_marks <- (w.fw_done + w.fw_fill, kind, loop) :: w.fw_marks;
  w.fw_nmarks <- w.fw_nmarks + 1

let flat_set_loops w loops = w.fw_loops <- loops

let flat_close w =
  if w.fw_closed then invalid_arg "Trace_io.flat_close: writer closed";
  w.fw_closed <- true;
  if w.fw_done + w.fw_fill <> w.fw_events then
    invalid_arg "Trace_io.flat_close: fewer events than declared";
  fw_flush w;
  let b = Buffer.create 256 in
  bwrite_loops b w.fw_loops;
  bwrite_extras b (List.rev w.fw_extra);
  let aux = Buffer.contents b in
  let lay =
    layout ~events:w.fw_events ~locs:w.fw_nlocs ~marks:w.fw_nmarks
      ~aux:(String.length aux)
  in
  let hdr = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic_v3 0 hdr 0 8;
  set64 hdr 8 lay.l_events;
  set64 hdr 16 lay.l_locs;
  set64 hdr 24 lay.l_marks;
  set64 hdr 32 lay.l_aux;
  pwrite w.fw_fd ~off:0 hdr header_bytes;
  let lb = Bytes.create (8 * lay.l_locs) in
  List.iteri
    (fun j l ->
      let id = lay.l_locs - 1 - j in
      set64 lb (8 * id) (Ddg_isa.Loc.to_code l))
    w.fw_locs;
  pwrite w.fw_fd ~off:lay.o_locs lb (Bytes.length lb);
  let mp = Bytes.create (8 * lay.l_marks) in
  let mk = Bytes.create lay.l_marks in
  let ml = Bytes.create (8 * lay.l_marks) in
  List.iteri
    (fun j (mpos, kind, loop) ->
      let m = lay.l_marks - 1 - j in
      set64 mp (8 * m) mpos;
      Bytes.set mk m (Char.chr (Trace.mark_kind_tag kind));
      set64 ml (8 * m) loop)
    w.fw_marks;
  pwrite w.fw_fd ~off:lay.o_mpos mp (Bytes.length mp);
  pwrite w.fw_fd ~off:lay.o_mkind mk (Bytes.length mk);
  pwrite w.fw_fd ~off:lay.o_mloop ml (Bytes.length ml);
  pwrite w.fw_fd ~off:lay.o_aux (Bytes.of_string aux) (String.length aux);
  (* Extending to the digest offset zero-fills the alignment holes the
     section writes skipped over. *)
  Unix.ftruncate w.fw_fd lay.o_digest;
  let ic = open_in_bin w.fw_path in
  let digest =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Digest.channel ic lay.o_digest)
  in
  let tr = Bytes.create trailer_bytes in
  Bytes.blit_string digest 0 tr 0 16;
  Bytes.blit_string trailer_v3 0 tr 16 8;
  pwrite w.fw_fd ~off:lay.o_digest tr trailer_bytes;
  Unix.close w.fw_fd


