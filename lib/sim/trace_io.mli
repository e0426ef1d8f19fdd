(** Compact binary trace files.

    Decouples tracing from analysis, the way the paper's Pixie traces
    did: simulate once, write the trace to disk, then run as many
    analyses as needed without re-executing.

    Three formats share the 8-byte magic header:

    Format (version 1): the magic ["DDGTRC01"], then per event one
    flags/class byte (low 4 bits: operation class, as
    {!Ddg_isa.Opclass.to_tag}; bit 4: has destination; bit 5: is
    conditional branch; bit 6: branch taken), a varint pc, the
    destination location if present, a source count and the source
    locations. Locations are a tag byte (0 register, 1 float register, 2
    memory) followed by a varint. A 0xFF flags byte terminates the
    stream.

    Format (version 2, magic ["DDGTRC02"]): identical through the event
    terminator, then the loop-attribution side channel: the
    loop-descriptor table, the marks (delta-coded positions) and a 0xFE
    trailer byte. {!write_channel} only uses version 2 for traces that
    actually carry marks — a markless trace is written byte-for-byte in
    version 1, so tracing with marks disabled costs nothing anywhere.

    Format (version 3, magic ["DDGTRC03"]): the {e flat} format — the
    packed in-memory columns laid out as fixed-stride, 8-aligned
    sections so the readers can map them with [Unix.map_file] and
    consume them in place. A 40-byte header (magic, then event /
    location / mark / aux-byte counts as 64-bit little-endian words) is
    followed by the flags bytes (one per event), the pc / dest / src0 /
    src1 / src2 columns (one 64-bit little-endian word per event,
    operand columns holding dense location ids with -1 for absent), the
    location table ({!Ddg_isa.Loc.to_code} words), the mark sidecar
    (positions, kind bytes, loop ids — each fixed-stride), a varint aux
    blob (loop descriptors and >3-source overflow rows) and a 24-byte
    trailer: the MD5 digest of everything before it, then ["DDGTRC3E"].
    Sections are zero-padded to 8-byte alignment. See DESIGN.md §15.

    {!read_file} accepts all three versions: it converts v1/v2 on the
    fly and maps v3. The event columns of a v3 file reach memory only
    through that mapping — {!map_file} hands over the whole of it,
    {!stream_file} one window at a time. Readers validate structurally
    before handing columns to the analyzer — class tags, id ranges, pc
    signs, the overflow bit — so a hostile file yields {!Corrupt}, never
    an out-of-bounds access. *)

exception Corrupt of string
(** Raised by the readers on malformed input. *)

val format_version : string
(** The magic string identifying the current trace encoding
    (["DDGTRC03"]). Changes whenever the on-disk format changes; cache
    layers include it in their keys so that traces written by an older
    encoding are recomputed rather than misread. *)

val write_channel : out_channel -> Trace.t -> unit
(** Legacy varint encoding (v1, or v2 when the trace carries marks). *)

val write_file : string -> Trace.t -> unit

val read_file : string -> Trace.t
(** Reads any version. v1/v2 are converted to the packed representation
    on the fly; v3 is [map_file path], digest checked, so the returned
    trace holds the file's pages for its lifetime as {!map_file}
    describes.
    @raise Corrupt @raise Sys_error *)

(** {1 Flat format (version 3)} *)

val write_channel_flat : out_channel -> Trace.t -> unit
(** Write the flat encoding of a whole in-memory trace, exactly
    {!flat_length} bytes. Each section streams through one window buffer
    of 65536 8-byte rows: a window is encoded, fed to the trailer digest
    (the runtime's incremental MD5, 64 KiB per call) and written before
    the next, so the writer allocates that one buffer whatever the
    trace's size, and no single C call covers more than 64 KiB. *)

val flat_length : Trace.t -> int
(** The byte length of the trace's flat encoding, header to trailer,
    known before it is written (a store put declares it up front). *)

val write_file_flat : string -> Trace.t -> unit

val map_file : ?verify:bool -> ?pos:int -> string -> Trace.t
(** Map a flat trace file starting at byte [pos] (default [0]): the six
    event columns become read-only [MAP_PRIVATE] views of the file and
    are consumed in place; only the small sections (locations, marks,
    aux) are read onto the heap. [verify] (default [true]) checks the
    content digest in one chunked pass; structural validation (class
    tags, id ranges, the overflow bit) always runs, so analysis over the
    mapped columns is memory-safe even against a file that passes the
    digest check.

    Lifetime: the mappings live as long as the returned trace (the GC
    finalises them); renaming or unlinking the file never invalidates
    them (POSIX keeps mapped pages alive), so a served trace survives a
    concurrent quarantine. Truncating the file in place does {e not} —
    writers must follow the store's write-then-rename discipline.
    Appending to the returned trace copies the columns to the heap
    first; a mapping is never written through.
    @raise Corrupt @raise Sys_error *)

val stream_file :
  ?verify:bool ->
  ?window:int ->
  string ->
  init:(Ddg_isa.Loc.t array -> 'a) ->
  rows:('a -> Trace.columns -> extra:(int -> int array) -> 'a) ->
  'a
(** Fold over a flat trace file in bounded memory, one window of
    [window] rows (default 65536) at a time. The file is mapped as by
    {!map_file}, and [init] receives its location table (ids are
    indices) before the first row. Each window is structurally validated
    exactly as {!map_file} validates the whole trace, then handed to
    [rows] as a {!Trace.columns} of [n <= window] rows over sub-views of
    the mapping: operand columns hold location ids, [-1] when absent,
    and [extra k] gives the fourth and later sources of the window's row
    [k] when its flags carry {!Trace.flags_extra}. When [rows] returns,
    the window's pages are released ([madvise(MADV_DONTNEED)]), so peak
    resident memory is [O(window + locations)] regardless of trace size;
    a view kept past that still reads correctly, re-faulting its pages
    from the file. Marks and loop descriptors are not replayed.
    @raise Corrupt *)

(** {2 Streaming flat writer}

    For generating traces too large to hold in memory. The event count
    is declared up front (the section offsets depend on it); events are
    appended through fixed window buffers and the location table, mark
    sidecar, aux blob and digest trailer are written on {!flat_close}.
    The file is invalid (truncated counts, missing trailer) until
    {!flat_close} returns. *)

type flat_writer

val flat_writer : ?window:int -> events:int -> string -> flat_writer
(** @raise Invalid_argument on a negative event count;
    @raise Unix.Unix_error if the file cannot be created. *)

val flat_add : flat_writer -> Trace.event -> unit
(** Append one event.
    @raise Invalid_argument past the declared event count. *)

val flat_add_mark :
  flat_writer -> kind:Ddg_isa.Insn.mark -> loop:int -> unit
(** Record a mark at the current position (after the last added event). *)

val flat_set_loops : flat_writer -> Ddg_isa.Loop.t array -> unit

val flat_close : flat_writer -> unit
(** Flush, write the small sections and the digest trailer, close the
    file descriptor.
    @raise Invalid_argument if fewer events than declared were added. *)
