(** The paragraphd wire protocol: a versioned, length-prefixed binary
    request/response codec.

    Every message on the wire is one {e frame}:
    {v
    "DDGP"  4-byte magic
    kind    1 byte: 1 hello, 2 request, 3 ok-response, 4 error
    length  4-byte big-endian payload byte count
    payload [length] bytes, kind-specific
    v}

    A connection opens with a [Hello] exchange (client then server), each
    side carrying its protocol number and software version string; the
    server refuses a protocol mismatch with an [Unsupported_version]
    error frame, so old clients fail fast with a readable message
    instead of a decode error. Requests and responses then alternate,
    one in flight per connection. Every failure the server can express
    is a typed {!error} frame — overload is [Busy], an expired deadline
    is [Deadline_exceeded], a malformed frame is [Bad_frame] — never a
    silent close or a hang.

    The decoder is hardened against untrusted input: the payload length
    is bounded by {!max_frame_bytes} {e before} any allocation, payloads
    are read in small chunks (no [Bytes.create] sized by a wire value),
    every embedded string length is checked against the bytes actually
    present, and trailing garbage inside a frame is rejected. All
    malformed input raises {!Error} — callers never see a partial
    decode.

    Analysis configurations travel as their full switch settings plus
    the tabulated latency function
    ({!Ddg_paragraph.Config.latency_table}), so a served analysis is
    bit-identical to an in-process one. Stats and advice payloads are
    the canonical {!Ddg_paragraph.Stats_codec} and
    {!Ddg_advise.Advise_codec} bytes unchanged, so a cached answer is
    framed without a codec pass ({!answer_payload}). *)

val version : int
(** Protocol revision; bumped on any frame-format change. Exchanged in
    the [Hello] handshake together with {!Ddg_version.Version.current}. *)

val max_frame_bytes : int
(** Upper bound on a frame payload (16 MiB). Larger declared lengths are
    rejected before any allocation. *)

val max_metrics : int
(** Upper bound on each series list (counters, histograms, gauges) of
    a metrics snapshot. *)

val max_members : int
(** Upper bound on a membership list ([ring-update], [members]). *)

val max_store_entries : int
(** Upper bound on a [store-list] reply; larger stores ship a prefix. *)

exception Error of string
(** Malformed frame: bad magic, unknown kind or tag, truncated or
    oversized payload, non-boolean flag byte, trailing garbage. *)

(** Typed failure codes carried by error frames. *)
type error_code =
  | Bad_frame  (** the request could not be decoded *)
  | Unsupported_version  (** protocol number mismatch in the handshake *)
  | Unknown_workload
  | Unknown_table
  | Busy  (** max-inflight backpressure: retry later *)
  | Deadline_exceeded
  | Shutting_down  (** the daemon is draining and accepts no new work *)
  | Internal  (** the request itself raised; message has the details *)
  | Worker_crashed
      (** the worker domain executing this request died; only this
          request failed, the pool respawned the worker — retry is safe
          for idempotent verbs *)
  | No_backends
      (** a cluster router has no live backend left for this request —
          every node is decommissioned or dead (protocol v6); retrying
          is pointless until membership changes *)
  | Unknown_node
      (** a {!request.Pull} named a source node id that is not a peer
          on the answering backend's ring (protocol v8) *)

type error = { code : error_code; message : string }

type request =
  | Ping of { delay_ms : int }
      (** liveness probe; [delay_ms > 0] holds a worker slot that long —
          a diagnostic lever for exercising backpressure and deadlines *)
  | Analyze of { workload : string; config : Ddg_paragraph.Config.t }
  | Simulate of { workload : string }
  | Table of { name : string }
      (** one of table1..table4, fig7, fig8 — a rendered paper result *)
  | Shutdown  (** ask the daemon to drain and exit *)
  | Fsck
      (** verify the daemon's artifact store: scan every artifact,
          quarantine corruption, rebuild the manifest *)
  | Metrics
      (** the full {!Ddg_obs.Obs} registry snapshot — every counter,
          latency histogram and gauge the daemon has registered; never
          queued or rejected. The daemon sets its gauges (uptime,
          resident trace bytes, worker respawns, quarantines, injected
          faults) just before it takes the snapshot (protocol v9) *)
  | Locate of { key : string }
      (** cluster membership query: which node id owns this routing key
          on the answering node's hash ring — answered by routers and
          cluster-configured daemons, refused ([Internal]) elsewhere *)
  | Advise of { workload : string; config : Ddg_paragraph.Config.t }
      (** parallelization advisor (protocol v5): classify the
          workload's loops from its loop-marked trace; [config]
          supplies the latency table for critical-path weighting,
          exactly as {!Analyze} carries it. Idempotent and cacheable:
          the report's canonical encoding is bit-identical wherever
          computed *)
  | Join of { node : string; endpoint : string }
      (** live membership (protocol v6): ask a router to add a backend
          at [endpoint] to its ring under id [node] — answered with
          {!response.Members}, the post-join membership *)
  | Decommission of { node : string }
      (** live membership (protocol v6): ask a router to retire a
          backend — the router migrates the node's owned keys to their
          new ring owners, swaps the ring, then shuts the node down;
          answered with {!response.Members} *)
  | Ring_update of { members : (string * string) list }
      (** router → backend broadcast after any membership change:
          the full current membership as (node id, endpoint) pairs, so
          backends re-aim their fetch-through and scrub at the new ring *)
  | Store_list
      (** enumerate the answering node's store as (kind, key) pairs —
          the migration walker's source of truth *)
  | Pull of { kind : string; key : string; source : string }
      (** ask a cluster backend to copy one artifact into its own store
          from the peer with node id [source] (protocol v8) — how a
          drain moves keys to their new owners and how the scrub hands
          an artifact to its ring owner. A backend that already holds a
          verified copy answers at once; otherwise it streams the
          artifact from [source] with {!Forward_range} slices.
          Answered with {!response.Pulled}; an unknown [source] is
          refused with [Unknown_node], a daemon with no cluster
          configuration with [Internal], and neither installs anything *)
  | Forward_range of { kind : string; key : string; offset : int; length : int }
      (** the one artifact-transfer primitive (protocol v7): export one
          slice of the named artifact's raw [.art] file bytes. The
          answering node replies {!response.Fetched_range} with the
          slice and the file's total size; the puller requests slices
          on one connection until it has the whole file, streaming them
          into {!Ddg_store.Store.import}, whose digest check is the
          only acceptance gate. A small artifact is one slice *)

type sim_summary = {
  instructions : int;
  syscalls : int;
  output_bytes : int;
  memory_footprint : int;
  trace_events : int;
}

(** Result of a store verification pass ({!Fsck}). *)
type fsck_summary = {
  scanned : int;  (** artifacts examined *)
  valid : int;  (** artifacts that verified clean *)
  quarantined : int;  (** corrupt artifacts moved aside *)
  missing : int;  (** manifest entries with no backing file *)
  swept_temps : int;  (** orphaned temp files removed *)
}

type response =
  | Pong
  | Analyzed of Ddg_paragraph.Analyzer.stats
  | Simulated of sim_summary
  | Rendered of string
  | Shutting_down_ack
  | Fsck_report of fsck_summary
  | Metrics_snapshot of Ddg_obs.Obs.snapshot
      (** reply to {!Metrics}: counters, histograms, then gauges;
          histogram buckets travel sparse ((index, count) pairs in
          increasing index order), all lists are length-bounded before
          allocation *)
  | Located of { node : string }  (** reply to {!request.Locate} *)
  | Advised of Ddg_advise.Advise.t
      (** reply to {!request.Advise}; travels as the canonical
          {!Ddg_advise.Advise_codec} encoding unchanged *)
  | Members of { members : (string * string) list }
      (** reply to {!request.Join}, {!request.Decommission} and
          {!request.Ring_update}: the membership now in force as
          (node id, endpoint) pairs in ring-id order *)
  | Store_listing of { entries : (string * string) list }
      (** reply to {!request.Store_list}: every (kind, key) the
          answering node's store holds *)
  | Pulled of { kind : string; key : string }
      (** reply to {!request.Pull}: the answering backend now holds a
          verified copy of this artifact *)
  | Fetched_range of { total : int; data : string }
      (** reply to {!request.Forward_range}: the requested slice
          (clamped to the file, possibly empty) and the artifact file's
          total byte count *)

type frame =
  | Hello of { protocol : int; software : string; node : string }
      (** [node] is the sender's cluster node id — empty for ordinary
          clients and non-clustered daemons (protocol v4) *)
  | Request of { deadline_ms : int; attempt : int; request : request }
      (** [deadline_ms = 0] means "use the server's default deadline";
          [attempt] is 0 for a first send and counts client replays,
          feeding the daemon's [ddg_server_retries_served_total] *)
  | Ok_response of response
  | Error_response of error

val verb_name : request -> string
(** Stable short name of a request's verb ("ping", "analyze", ...), the
    [verb] label of the daemon's request series. *)

val verbs : string list
(** Every name {!verb_name} can return, in request-tag order — the
    daemon registers one metric series per entry up front. *)

val idempotent : request -> bool
(** Whether replaying the request after an ambiguous failure is safe.
    True for every verb except [Shutdown]. *)

val error_code_name : error_code -> string

val frame_to_string : frame -> string
(** The exact bytes {!write_frame_fd} writes. The encoding is
    canonical: [frame_to_string (frame_of_string s) = s] for any [s]
    this module produced. *)

val frame_of_string : string -> frame
(** Decode one frame from a string, rejecting trailing bytes.
    @raise Error *)

val ok_kind : int
(** The kind byte of an [Ok_response] frame. *)

val decode_frame : int -> string -> frame
(** Decode a frame from its kind byte and payload.
    @raise Error *)

val encode_response : response -> string
(** The payload of an [Ok_response]. *)

val decode_response : string -> response
(** Inverse of {!encode_response}.
    @raise Error *)

val answer_payload : [ `Analyzed | `Advised ] -> string -> string
(** The payload answering an [Analyze] ([`Analyzed]) or [Advise] built
    straight from the answer's canonical codec bytes, without decoding
    them: [answer_payload `Analyzed b] is
    [encode_response (Analyzed (Stats_codec.of_string b))]. *)

(** {2 File-descriptor frame I/O}

    The daemon, client and router exchange frames directly over
    [Unix.file_descr] through one syscall wrapper that restarts on
    [EINTR] and loops over short reads/writes, so a signal arriving
    mid-frame can never surface as [Unix_error (EINTR, _, _)]. Genuine
    peer loss ([ECONNRESET], [EPIPE], a 0-byte read) still propagates:
    [End_of_file] or [Unix_error] mean the connection is gone.

    The one reader and writer move a frame as its kind byte and
    undecoded payload; the typed pair decodes or encodes around them.
    A router relays an ok-response without parsing it and a daemon
    frames cached answer bytes without a codec pass: the bytes on the
    wire are the typed frame's either way. *)

val read_raw_frame_fd : Unix.file_descr -> int * string
(** One frame's kind byte and payload, undecoded. The magic and the
    {!max_frame_bytes} cap are checked before the payload is read, in
    bounded chunks.
    @raise Error on a bad header
    @raise End_of_file when the peer closed before or inside a frame *)

val write_raw_frame_fd : Unix.file_descr -> int -> string -> unit
(** [write_raw_frame_fd fd kind payload] writes one frame in a single
    buffer.
    @raise Error when the payload exceeds {!max_frame_bytes} *)

val read_frame_fd : Unix.file_descr -> frame
(** {!read_raw_frame_fd}, then {!decode_frame}. *)

val write_frame_fd : Unix.file_descr -> frame -> unit
(** Encode one frame, then {!write_raw_frame_fd} it. *)
