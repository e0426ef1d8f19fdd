(** Dynamic execution traces.

    A trace is the sequence of events emitted by the simulator, one per
    executed instruction, in serial program order — the same information a
    Pixie-instrumented binary gave the paper's authors. Each event carries
    exactly what Paragraph needs: the operation class (for its Table 1
    latency), the source locations read, the destination location written
    (if the instruction creates a value) and whether it is a system call.

    Control instructions (branches, jumps) appear in the trace — they
    occupy instruction-window slots — but create no values and are never
    placed in the DDG. Conditional branches record their outcome so that
    branch-prediction experiments can be layered on top.

    {1 Representation}

    Internally a trace is {e packed}: a structure of arrays holding one
    flags byte, one pc and up to four operand columns per event, with
    every storage location interned to a dense integer id ({!intern} order
    of first reference). The {!event} record is the construction and
    debugging view — {!add} packs a record, {!get}/{!iter} reconstruct
    records on the fly — while the analysis hot path reads the integer
    {!columns} directly and never allocates. *)

type branch_info = { taken : bool }

type event = {
  pc : int;                     (** instruction index in the program *)
  op_class : Ddg_isa.Opclass.t;
  dest : Ddg_isa.Loc.t option;  (** location written, if a value is created *)
  srcs : Ddg_isa.Loc.t list;    (** locations read (registers and memory) *)
  branch : branch_info option;  (** [Some _] for conditional branches *)
}

val creates_value : event -> bool
(** True when the event has class other than [Control]; only such events
    become DDG nodes. *)

val is_syscall : event -> bool

val pp_event : Format.formatter -> event -> unit

(** Growable packed trace buffer. *)
type t

val create : ?capacity:int -> unit -> t
val add : t -> event -> unit
val length : t -> int

val get : t -> int -> event
(** Reconstructs the record view of one row (allocates).
    @raise Invalid_argument on out-of-range index. *)

val iter : (event -> unit) -> t -> unit
val iteri : (int -> event -> unit) -> t -> unit
val of_list : event list -> t
val to_list : t -> event list

val count : (event -> bool) -> t -> int
(** Number of events satisfying a predicate. *)

(** {1 Packed access}

    The flags byte of a row shares bits 0-6 with the binary trace format:
    operation-class tag ({!Ddg_isa.Opclass.to_tag}) in the low four bits,
    then has-destination, is-conditional-branch and branch-taken bits.
    Bit 7 ({!flags_extra}) is in-memory only and marks rows whose fourth
    and later sources live in the {!extra_srcs} side table. *)

val flags_class_mask : int
val flags_has_dest : int
val flags_branch : int
val flags_taken : int
val flags_extra : int

(** The columns are Bigarrays with exactly the flat trace file's section
    layout (one byte per flags entry, one native 64-bit int per operand
    entry), so a trace read from a mapped file is consumed in place and
    a trace built by the simulator is written out with plain blits. *)

type byte_col =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A snapshot of the column arrays. Valid until the next {!add} /
    {!start_row} (growth may replace the underlying arrays); rows
    [0 .. n-1] are live. Operand columns hold dense location ids, [-1]
    when the operand is absent. *)
type columns = {
  n : int;
  flags : byte_col;
  pcs : int_col;
  dsts : int_col;
  src0 : int_col;
  src1 : int_col;
  src2 : int_col;
}

val columns : t -> columns

val extra_srcs : t -> int -> int array
(** Source ids four onward of row [i], in operand order; [[||]] for the
    (overwhelmingly common) rows with at most three sources. Only rows
    whose flags byte has {!flags_extra} set can return non-empty. *)

(** {1 Location interning} *)

val num_locs : t -> int
(** Number of distinct locations interned; ids are [0 .. num_locs - 1]. *)

val loc_of_id : t -> int -> Ddg_isa.Loc.t
(** @raise Invalid_argument on out-of-range id. *)

val find_id : t -> Ddg_isa.Loc.t -> int option
(** The id of a location, if it appears in the trace. *)

val storage_classes : t -> Bytes.t
(** Byte [id] is the {!Ddg_isa.Loc.storage_class_tag} of location [id]
    (indices at or beyond {!num_locs} are unspecified). The analyzer reads
    destination storage classes from here instead of re-classifying
    addresses per event. *)

(** {1 Row-level construction}

    The streaming build interface used by [Trace_io] (and by {!add}): open
    a row with its flags byte and pc, then attach operands. The
    has-destination and extra bits of [flags] are maintained automatically. *)

val start_row : t -> flags:int -> pc:int -> unit
(** @raise Invalid_argument if the class tag is out of range or bit 7 is
    set. *)

val row_set_dest : t -> Ddg_isa.Loc.t -> unit
(** Set the destination of the last started row. *)

val row_add_src : t -> Ddg_isa.Loc.t -> unit
(** Append a source operand to the last started row. *)

val memory_bytes : t -> int
(** Approximate resident heap size of the packed trace in bytes (column
    capacities, interner tables, overflow rows and the loop-mark side
    channel). Intended for byte-budgeted caches; the estimate errs low by
    small per-block GC overheads only. *)

val of_parts :
  len:int ->
  flags:byte_col ->
  pcs:int_col ->
  dsts:int_col ->
  src0:int_col ->
  src1:int_col ->
  src2:int_col ->
  extra:(int * int array) list ->
  locs:Ddg_isa.Loc.t array ->
  loops:Ddg_isa.Loop.t array ->
  marks:(int * Ddg_isa.Insn.mark * int) array ->
  t
(** Wrap existing column Bigarrays as a trace {e without copying them} —
    the flat-file reader's constructor, handing over [Unix.map_file]
    views of the file's columns. [extra] lists the overflow source rows
    as [(row, ids)]; [marks] are [(pos, kind, loop)] in non-decreasing
    position order. The interner is rebuilt from [locs] (ids are array
    indices). The caller must have validated the columns structurally
    (class tags, id ranges, the extra bit); appending to the result
    copies the columns to the heap first (copy-on-grow), so a mapping is
    never written through.
    @raise Invalid_argument on short columns, duplicate locations or
    malformed marks. *)

(** {1 Loop-attribution side channel}

    Loop marks are annotations {e between} events, recorded by the
    simulator when it executes an {!Ddg_isa.Insn.Mark}: a mark at
    position [p] fires after event [p - 1] and before event [p] of the
    trace (so the events at indices [>= p] are inside the marked
    context). Marks never occupy event rows — a trace with marks has
    byte-identical event columns to the same trace without — and a trace
    with no marks costs nothing.

    [loops] is the static loop-descriptor table of the traced program
    ({!Ddg_asm.Program.t.loops}); mark [loop] fields index into it. *)

type mark = { pos : int; kind : Ddg_isa.Insn.mark; loop : int }

val add_mark : t -> kind:Ddg_isa.Insn.mark -> loop:int -> unit
(** Record a mark at the current trace position ({!length}).
    @raise Invalid_argument on a negative loop id. *)

val add_mark_at : t -> pos:int -> kind:Ddg_isa.Insn.mark -> loop:int -> unit
(** Record a mark at an explicit position (decoder use). Positions must
    be non-decreasing and within [0 .. length].
    @raise Invalid_argument otherwise, or on a negative loop id. *)

val num_marks : t -> int
val get_mark : t -> int -> mark
(** @raise Invalid_argument on out-of-range index. *)

val iter_marks : (mark -> unit) -> t -> unit

val mark_columns : t -> int array * Bytes.t * int array
(** The mark sidecar's own storage, for encoders that must not allocate
    per mark: positions, {!mark_kind_tag} bytes and loop ids. Entries
    [0 .. num_marks - 1] are the marks; the storage is shared, not
    copied, so do not modify it. *)

val set_loops : t -> Ddg_isa.Loop.t array -> unit
(** Install the loop-descriptor table (the array is not copied). *)

val loops : t -> Ddg_isa.Loop.t array
(** The loop-descriptor table; [[||]] when the program carried none. *)

val mark_kind_tag : Ddg_isa.Insn.mark -> int
(** Dense wire tag: [Enter] 0, [Iter] 1, [Exit] 2. *)

val mark_kind_of_tag : int -> Ddg_isa.Insn.mark option
(** Inverse of {!mark_kind_tag}; [None] on an unknown tag. *)
