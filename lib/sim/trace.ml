type branch_info = { taken : bool }

type event = {
  pc : int;
  op_class : Ddg_isa.Opclass.t;
  dest : Ddg_isa.Loc.t option;
  srcs : Ddg_isa.Loc.t list;
  branch : branch_info option;
}

let creates_value e = Ddg_isa.Opclass.creates_value e.op_class
let is_syscall e = Ddg_isa.Opclass.equal e.op_class Ddg_isa.Opclass.Syscall

let pp_event ppf e =
  let pp_loc = Ddg_isa.Loc.pp in
  Format.fprintf ppf "@[<h>%5d %-22s" e.pc
    (Ddg_isa.Opclass.to_string e.op_class);
  (match e.dest with
  | Some d -> Format.fprintf ppf " %a <-" pp_loc d
  | None -> Format.fprintf ppf " _ <-");
  List.iter (fun s -> Format.fprintf ppf " %a" pp_loc s) e.srcs;
  (match e.branch with
  | Some { taken } -> Format.fprintf ppf " (%s)" (if taken then "T" else "NT")
  | None -> ());
  Format.fprintf ppf "@]"

(* --- packed flags byte ------------------------------------------------------

   Bits 0-6 are exactly the flags/class byte of the binary trace format
   (Trace_io): operation-class tag in the low four bits, then has-dest,
   is-branch, branch-taken. Bit 7 is in-memory only: it marks rows whose
   fourth-and-later sources spilled into the [extra] side table. *)

let flags_class_mask = 0x0F
let flags_has_dest = 0x10
let flags_branch = 0x20
let flags_taken = 0x40
let flags_extra = 0x80

(* --- the packed trace -------------------------------------------------------

   Structure of arrays, one row per event: a flags byte, the pc, and up to
   four location operands (one destination, three sources) as dense
   location ids, -1 when absent. Locations are interned per trace:
   [locs.(id)] recovers the location, [classes] holds one storage-class
   tag byte per id. Events with more than three sources (none of the
   simulated ISA's instructions, but the format allows up to 16) overflow
   into the [extra] table keyed by row index.

   The columns are Bigarrays, not OCaml arrays: their layout is exactly
   the stride of one section of the flat trace file (Trace_io format 3),
   so the simulator emits records straight into what the file format
   stores, and a trace opened over an [Unix.map_file]-mapped artifact is
   consumed in place with no decode and no copy. *)

module BA1 = Bigarray.Array1

type byte_col = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) BA1.t
type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) BA1.t

let make_byte_col n : byte_col = BA1.create Bigarray.char Bigarray.c_layout n
let make_int_col n : int_col = BA1.create Bigarray.int Bigarray.c_layout n

type t = {
  mutable len : int;
  mutable flags : byte_col;
  mutable pcs : int_col;
  mutable dsts : int_col;
  mutable src0 : int_col;
  mutable src1 : int_col;
  mutable src2 : int_col;
  extra : (int, int array) Hashtbl.t;
  (* location interner *)
  mutable locs : Ddg_isa.Loc.t array;
  mutable classes : Bytes.t;
  ids : (int, int) Hashtbl.t;  (* Loc.to_code -> dense id *)
  mutable num_locs : int;
  (* loop-attribution side channel: mark i fired between events
     [mark_pos.(i) - 1] and [mark_pos.(i)]; positions are non-decreasing.
     Lazily allocated so markless traces pay nothing. *)
  mutable mark_pos : int array;
  mutable mark_kind : Bytes.t;
  mutable mark_loop : int array;
  mutable num_marks : int;
  mutable loop_table : Ddg_isa.Loop.t array;
}

type columns = {
  n : int;
  flags : byte_col;
  pcs : int_col;
  dsts : int_col;
  src0 : int_col;
  src1 : int_col;
  src2 : int_col;
}

let dummy_loc = Ddg_isa.Loc.Reg 0

let create ?(capacity = 4096) () =
  let capacity = max 1 capacity in
  {
    len = 0;
    flags = make_byte_col capacity;
    pcs = make_int_col capacity;
    dsts = make_int_col capacity;
    src0 = make_int_col capacity;
    src1 = make_int_col capacity;
    src2 = make_int_col capacity;
    extra = Hashtbl.create 8;
    locs = Array.make 256 dummy_loc;
    classes = Bytes.make 256 '\000';
    ids = Hashtbl.create 1024;
    num_locs = 0;
    mark_pos = [||];
    mark_kind = Bytes.empty;
    mark_loop = [||];
    num_marks = 0;
    loop_table = [||];
  }

let length t = t.len
let num_locs t = t.num_locs

let loc_of_id t id =
  if id < 0 || id >= t.num_locs then invalid_arg "Trace.loc_of_id";
  t.locs.(id)

let storage_classes t = t.classes

let intern t loc =
  let code = Ddg_isa.Loc.to_code loc in
  match Hashtbl.find_opt t.ids code with
  | Some id -> id
  | None ->
      let id = t.num_locs in
      if id = Array.length t.locs then begin
        let bigger = Array.make (2 * id) dummy_loc in
        Array.blit t.locs 0 bigger 0 id;
        t.locs <- bigger;
        let bytes = Bytes.make (2 * id) '\000' in
        Bytes.blit t.classes 0 bytes 0 id;
        t.classes <- bytes
      end;
      t.locs.(id) <- loc;
      Bytes.unsafe_set t.classes id
        (Char.unsafe_chr
           (Ddg_isa.Loc.storage_class_tag (Ddg_isa.Segment.storage_class_of_loc loc)));
      Hashtbl.add t.ids code id;
      t.num_locs <- id + 1;
      id

let find_id t loc = Hashtbl.find_opt t.ids (Ddg_isa.Loc.to_code loc)

(* Doubling also moves a trace opened over a file mapping onto fresh
   heap-backed Bigarrays: appending to a mapped trace copies it out of
   the mapping transparently (copy-on-grow, never in place). *)
let grow (t : t) =
  let live = t.len in
  let bigger = 2 * max 4 (BA1.dim t.pcs) in
  let grow_col a =
    let b = make_int_col bigger in
    BA1.blit (BA1.sub a 0 live) (BA1.sub b 0 live);
    b
  in
  let flags = make_byte_col bigger in
  BA1.blit (BA1.sub t.flags 0 live) (BA1.sub flags 0 live);
  t.flags <- flags;
  t.pcs <- grow_col t.pcs;
  t.dsts <- grow_col t.dsts;
  t.src0 <- grow_col t.src0;
  t.src1 <- grow_col t.src1;
  t.src2 <- grow_col t.src2

(* --- row-level construction ------------------------------------------------ *)

let start_row t ~flags ~pc =
  if flags land flags_class_mask > 8 || flags land lnot 0x7F <> 0 then
    invalid_arg "Trace.start_row: bad flags byte";
  if t.len = BA1.dim t.pcs then grow t;
  let i = t.len in
  (* dest/extra bits are derived from the row_* calls that follow *)
  BA1.unsafe_set t.flags i
    (Char.unsafe_chr (flags land lnot (flags_has_dest lor flags_extra)));
  BA1.unsafe_set t.pcs i pc;
  BA1.unsafe_set t.dsts i (-1);
  BA1.unsafe_set t.src0 i (-1);
  BA1.unsafe_set t.src1 i (-1);
  BA1.unsafe_set t.src2 i (-1);
  t.len <- i + 1

let last_row t =
  if t.len = 0 then invalid_arg "Trace: no current row";
  t.len - 1

let set_flag (t : t) i bit =
  BA1.unsafe_set t.flags i
    (Char.unsafe_chr (Char.code (BA1.unsafe_get t.flags i) lor bit))

let row_set_dest t loc =
  let i = last_row t in
  t.dsts.{i} <- intern t loc;
  set_flag t i flags_has_dest

let row_add_src t loc =
  let i = last_row t in
  let id = intern t loc in
  if t.src0.{i} < 0 then t.src0.{i} <- id
  else if t.src1.{i} < 0 then t.src1.{i} <- id
  else if t.src2.{i} < 0 then t.src2.{i} <- id
  else begin
    let tail =
      match Hashtbl.find_opt t.extra i with
      | None ->
          set_flag t i flags_extra;
          [| id |]
      | Some a ->
          let b = Array.make (Array.length a + 1) id in
          Array.blit a 0 b 0 (Array.length a);
          b
    in
    Hashtbl.replace t.extra i tail
  end

let add t e =
  let flags = Ddg_isa.Opclass.to_tag e.op_class in
  let flags =
    match e.branch with
    | Some { taken } -> flags lor flags_branch lor (if taken then flags_taken else 0)
    | None -> flags
  in
  start_row t ~flags ~pc:e.pc;
  (match e.dest with Some d -> row_set_dest t d | None -> ());
  List.iter (row_add_src t) e.srcs

(* --- packed read access ----------------------------------------------------- *)

let columns t : columns =
  {
    n = t.len;
    flags = t.flags;
    pcs = t.pcs;
    dsts = t.dsts;
    src0 = t.src0;
    src1 = t.src1;
    src2 = t.src2;
  }

let no_extra = [||]

let extra_srcs t i =
  match Hashtbl.find_opt t.extra i with Some a -> a | None -> no_extra

(* --- record view ------------------------------------------------------------ *)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  let flags = Char.code (BA1.unsafe_get t.flags i) in
  let op_class = Ddg_isa.Opclass.of_tag (flags land flags_class_mask) in
  let dest =
    if flags land flags_has_dest <> 0 then Some t.locs.(t.dsts.{i}) else None
  in
  let srcs =
    let tail =
      if flags land flags_extra <> 0 then
        List.map (fun id -> t.locs.(id)) (Array.to_list (extra_srcs t i))
      else []
    in
    let cons id rest = if id < 0 then rest else t.locs.(id) :: rest in
    cons t.src0.{i} (cons t.src1.{i} (cons t.src2.{i} tail))
  in
  let branch =
    if flags land flags_branch <> 0 then
      Some { taken = flags land flags_taken <> 0 }
    else None
  in
  { pc = t.pcs.{i}; op_class; dest; srcs; branch }

let iter f t =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (get t i)
  done

let of_list events =
  let t = create ~capacity:(max 1 (List.length events)) () in
  List.iter (add t) events;
  t

let to_list t = List.init t.len (fun i -> get t i)

let count p t =
  let n = ref 0 in
  iter (fun e -> if p e then incr n) t;
  !n

(* --- loop-attribution side channel ------------------------------------------ *)

type mark = { pos : int; kind : Ddg_isa.Insn.mark; loop : int }

let mark_kind_tag : Ddg_isa.Insn.mark -> int = function
  | Enter -> 0
  | Iter -> 1
  | Exit -> 2

let mark_kind_of_tag : int -> Ddg_isa.Insn.mark option = function
  | 0 -> Some Enter
  | 1 -> Some Iter
  | 2 -> Some Exit
  | _ -> None

let add_mark_at t ~pos ~kind ~loop =
  if loop < 0 then invalid_arg "Trace.add_mark: negative loop id";
  if pos < 0 || pos > t.len then invalid_arg "Trace.add_mark: bad position";
  if t.num_marks > 0 && t.mark_pos.(t.num_marks - 1) > pos then
    invalid_arg "Trace.add_mark: positions must be non-decreasing";
  let i = t.num_marks in
  if i = Array.length t.mark_pos then begin
    let cap = max 64 (2 * i) in
    let grow_arr a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 i;
      b
    in
    t.mark_pos <- grow_arr t.mark_pos;
    t.mark_loop <- grow_arr t.mark_loop;
    let bytes = Bytes.make cap '\000' in
    Bytes.blit t.mark_kind 0 bytes 0 i;
    t.mark_kind <- bytes
  end;
  t.mark_pos.(i) <- pos;
  t.mark_loop.(i) <- loop;
  Bytes.unsafe_set t.mark_kind i (Char.unsafe_chr (mark_kind_tag kind));
  t.num_marks <- i + 1

let add_mark t ~kind ~loop = add_mark_at t ~pos:t.len ~kind ~loop

let num_marks t = t.num_marks

let get_mark t i =
  if i < 0 || i >= t.num_marks then invalid_arg "Trace.get_mark";
  let kind =
    match mark_kind_of_tag (Char.code (Bytes.unsafe_get t.mark_kind i)) with
    | Some k -> k
    | None -> assert false
  in
  { pos = t.mark_pos.(i); kind; loop = t.mark_loop.(i) }

let iter_marks f t =
  for i = 0 to t.num_marks - 1 do
    f (get_mark t i)
  done

let mark_columns t = (t.mark_pos, t.mark_kind, t.mark_loop)

let set_loops t loops = t.loop_table <- loops
let loops t = t.loop_table

(* Resident-size estimate: the column capacities (not just [len] — the
   Bigarrays are what holds the memory, heap-allocated or mapped), the
   interner tables, and roughly three words per hashtable binding. Used
   by byte-budgeted trace caches; an estimate is all eviction needs. *)
let memory_bytes (t : t) =
  let word = 8 in
  let cap = BA1.dim t.pcs in
  let extra =
    Hashtbl.fold (fun _ a acc -> acc + 3 + Array.length a) t.extra 0
  in
  BA1.dim t.flags + Bytes.length t.classes
  + Bytes.length t.mark_kind
  + (5 * cap + Array.length t.locs + extra + 3 * Hashtbl.length t.ids) * word
  + (2 * Array.length t.mark_pos + 4 * Array.length t.loop_table) * word

(* --- building a trace over existing columns ---------------------------------

   The flat-file reader (Trace_io format 3) hands back whole column
   sections — [Unix.map_file] views of the file, or empty heap Bigarrays
   for an empty trace — and this constructor wraps them as a trace
   without copying the event columns. The caller is responsible for the
   columns' structural validity (class tags, id ranges, the extra bit
   matching [extra]); only the small side tables are re-derived and
   checked here. *)
let of_parts ~len ~flags ~pcs ~dsts ~src0 ~src1 ~src2 ~extra ~locs ~loops
    ~marks =
  if
    len < 0
    || BA1.dim flags < len
    || BA1.dim pcs < len
    || BA1.dim dsts < len
    || BA1.dim src0 < len
    || BA1.dim src1 < len
    || BA1.dim src2 < len
  then invalid_arg "Trace.of_parts: short columns";
  let num_locs = Array.length locs in
  let t =
    {
      len;
      flags;
      pcs;
      dsts;
      src0;
      src1;
      src2;
      extra = Hashtbl.create (max 8 (List.length extra));
      locs = (if num_locs = 0 then Array.make 256 dummy_loc else locs);
      classes = Bytes.make (max 256 num_locs) '\000';
      ids = Hashtbl.create (max 1024 num_locs);
      num_locs;
      mark_pos = [||];
      mark_kind = Bytes.empty;
      mark_loop = [||];
      num_marks = 0;
      loop_table = loops;
    }
  in
  Array.iteri
    (fun id loc ->
      let code = Ddg_isa.Loc.to_code loc in
      if Hashtbl.mem t.ids code then
        invalid_arg "Trace.of_parts: duplicate location";
      Hashtbl.add t.ids code id;
      Bytes.unsafe_set t.classes id
        (Char.unsafe_chr
           (Ddg_isa.Loc.storage_class_tag
              (Ddg_isa.Segment.storage_class_of_loc loc))))
    locs;
  List.iter (fun (row, srcs) -> Hashtbl.replace t.extra row srcs) extra;
  Array.iter (fun (pos, kind, loop) -> add_mark_at t ~pos ~kind ~loop) marks;
  t
