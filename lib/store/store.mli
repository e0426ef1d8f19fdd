(** A content-addressed on-disk artifact store.

    The paper's methodology is "trace once, analyze many times": Pixie
    wrote traces to disk and Paragraph re-read them for every switch
    combination. This store is that idea as a library — any binary
    artifact (a trace, a stats blob) is written once under a caller-chosen
    [kind]/[key] pair and found again across processes, so the experiment
    suite re-renders tables and figures without re-simulating or
    re-analyzing anything.

    Layout (all under one root directory, default [~/.cache/ddg]):
    {v
    <root>/<kind>-<md5(kind+key)>.art   one artifact per (kind, key)
    <root>/manifest.json                human-readable inventory
    <root>/quarantine/                  corrupt artifacts, moved aside
    v}

    Each [.art] file carries a checksummed header — magic, kind, key,
    creation time, the wall-clock cost of the job that produced it, an
    MD5 digest and the byte length of the payload — followed by the
    payload itself. Writes are atomic (temp file + [rename]), so a
    concurrent reader never sees a half-written artifact. Reads verify
    the full header, the payload length and the digest {e before} the
    payload is decoded; on any mismatch — truncation, bit rot, a stale
    format, a hash collision — the artifact is moved to [quarantine/]
    (with a [.reason] note) and the lookup reports a miss, so callers
    transparently recompute. Corruption is never an exception the caller
    sees.

    [manifest.json] is a projection of the artifact headers, regenerated
    after every write and quarantine; it records kind, key, file, size,
    creation time and producing-job wall time for each artifact. It is
    advisory (humans and dashboards read it; the store never does), so a
    stale manifest can always be rebuilt from the artifacts alone. *)

type t

exception Corrupt of string
(** Raised by the {!read_varint} family on malformed input. Payload
    decoders may raise it (or any other exception): {!find} catches
    everything raised by the decode callback and quarantines the
    artifact. *)

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/ddg], else [$HOME/.cache/ddg], else a directory
    under the system temp dir. *)

val open_ : ?dir:string -> unit -> t
(** Open (creating directories as needed) the store at [dir] (default
    {!default_dir}).
    @raise Sys_error when the directory cannot be created. *)

val dir : t -> string
val quarantine_dir : t -> string

val artifact_path : t -> kind:string -> key:string -> string
(** Where the artifact for [(kind, key)] lives (whether or not it
    exists). Exposed for tests and diagnostics. *)

val put :
  t -> kind:string -> key:string -> ?wall:float -> (out_channel -> unit) -> unit
(** Write one artifact atomically: the callback streams the payload to a
    temp file, the checksummed header is prepended, and the result is
    renamed into place, replacing any previous artifact for the same
    [(kind, key)]. [wall] (default 0) is the wall-clock seconds the
    producing job took, recorded in the header and the manifest.
    [kind] must be non-empty and contain no [/].
    @raise Sys_error on I/O failure (callers typically degrade to
    uncached operation). *)

val find : t -> kind:string -> key:string -> (in_channel -> 'a) -> 'a option
(** Look up an artifact and decode its payload: the callback receives a
    channel positioned at the start of the already-verified payload.
    Returns [None] when absent. When the artifact is corrupt, truncated,
    version-mismatched or the callback itself raises, the artifact is
    quarantined and the result is [None] — never an exception. *)

val quarantine_count : t -> int
(** Artifacts this handle has moved to [quarantine/] since {!open_}
    (from failed {!find} verification or {!fsck}). *)

(** {2 Zero-copy views}

    Large payloads (traces) are served as positions into the artifact
    file instead of copied strings, so the reader can [Unix.map_file]
    the payload and consume it in place. *)

type view = {
  view_path : string;  (** the artifact file *)
  view_pos : int;  (** byte offset of the payload within it *)
  view_len : int;  (** payload length in bytes *)
}

val find_view : ?verify:bool -> t -> kind:string -> key:string -> view option
(** Locate an artifact's payload without reading it: header and payload
    length are always checked; [verify] (default [true]) additionally
    runs the chunked digest pass (constant memory — fsck-grade assurance
    without loading the payload). Failures quarantine exactly as {!find}
    does.

    {b Lifetime rule}: the view is a name, not a handle. Open the path
    (or map it) promptly; once a reader holds an open fd or a mapping,
    a concurrent quarantine or replacement of the same key — both
    implemented as [rename]/[unlink] — can no longer invalidate it,
    because POSIX keeps the inode alive until the last reference drops.
    What is {e not} guaranteed is that a later [open] of [view_path]
    sees the same artifact (it may have been quarantined or replaced):
    re-validate after opening, as {!Ddg_sim.Trace_io.map_file} does via
    its header/digest checks. The store never truncates or rewrites an
    artifact file in place. *)

val discredit : t -> kind:string -> key:string -> string -> unit
(** Quarantine one artifact by key (with the given [.reason] text), for
    readers that validate deeper than the store can — e.g. the
    flat-trace decoder rejecting a structurally hostile payload that
    passes its digest. A no-op when the artifact is absent (a concurrent
    reader may have already moved it). *)

(** {2 Replication}

    Whole artifacts move between stores as their raw [.art] bytes —
    header, digest and payload together — read in bounded slices on one
    side ({!export_range}) and streamed into {!import} on the other, so
    the receiving side verifies the transfer with the same checks
    {!find} applies to local reads, and a copied artifact is
    bit-identical to the original. *)

val export_range : t ->
  kind:string -> key:string -> offset:int -> length:int ->
  (int * string) option
(** One slice of an artifact's raw file bytes. Returns
    [(total_bytes, slice)] where [slice] is the bytes at
    [offset .. offset+length-1] (clamped to the file). Header sanity
    only — no digest pass per slice; {!import} verifies the reassembled
    artifact in full before installing it. [None] when absent or
    unreadable. *)

val import : t -> (out_channel -> unit) -> (string * string) option
(** Install an artifact from its raw bytes: the callback streams them
    to a temp file (as {!put}'s callback streams a payload), then the
    header, payload length and digest are verified {e before}
    installation, and only then is the file renamed to its content
    address (atomic, fsynced — the same durability as {!put}),
    replacing any previous artifact for that (kind, key). Returns the
    artifact's [(kind, key)], or [None] when the bytes fail
    verification — a corrupt transfer never touches the store.
    @raise Sys_error on local I/O failure, and re-raises whatever the
    callback raises; the temp file is removed first, so an interrupted
    transfer leaves nothing behind. *)

val entries : t -> (string * string) list
(** Every artifact currently in the store as [(kind, key)], in stable
    (file-name) order, read from the artifact headers themselves —
    never the advisory manifest. Unreadable files are skipped; writers'
    temp files are excluded. The anti-entropy scrub and membership
    migration walk the store through this. *)

val verify : t -> kind:string -> key:string -> [ `Ok | `Missing | `Quarantined ]
(** Verify one artifact in place — header, payload length, digest, and
    that the content address matches — without decoding the payload.
    Corruption quarantines the file (with a [.reason] note) exactly as
    {!find} would. Built for paced anti-entropy scrubbing: one
    (kind, key) per call, unlike {!fsck}'s full-store sweep. Fault
    site [store.verify.bitflip] flips one payload bit before the check
    (as [store.find.bitflip] does for {!find}) — the scrub's
    quarantine-and-repair path under test. *)

(** {2 Verification}

    A full offline pass over the store, for recovery after crashes or
    suspected corruption. Unlike {!find}'s lazy per-lookup checks, fsck
    visits {e every} artifact. *)

type fsck_report = {
  scanned : int;  (** artifacts examined *)
  valid : int;  (** artifacts whose header, length, digest and content
                    address all verified *)
  quarantined : int;  (** artifacts moved to [quarantine/]: corrupt,
                          truncated, or filed under the wrong name *)
  missing : int;  (** manifest entries whose artifact file is gone *)
  swept_temps : int;  (** temp files of dead writer processes removed *)
}

val fsck : t -> fsck_report
(** Verify every artifact (header, payload length, digest, and that the
    file name matches the content address), quarantine failures, count
    manifest entries with no backing file, sweep temp files left by
    dead writer processes (live writers are never touched), and rebuild
    the manifest atomically. Holds the store lock for the duration;
    concurrent [find]s in other processes see each artifact either in
    place or quarantined, never half-moved. *)

(** {2 Payload primitives}

    Shared helpers for writing payload codecs (the same LEB128 varints
    as {!Ddg_sim.Trace_io}). The readers raise {!Corrupt} on malformed
    input, which {!find} turns into quarantine-and-miss. *)

val write_varint : out_channel -> int -> unit
val read_varint : in_channel -> int
val write_string : out_channel -> string -> unit
val read_string : ?max:int -> in_channel -> string
val write_float : out_channel -> float -> unit
val read_float : in_channel -> float
