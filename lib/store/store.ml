exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun msg -> raise (Corrupt msg)) fmt

let magic = "DDGART01"

module Obs = Ddg_obs.Obs

(* Observability sites: I/O wall time for the three entry points, and
   hit/miss counts for lookups. *)
let span_put = Obs.span_site "ddg_store_put_ns"
let span_find = Obs.span_site "ddg_store_find_ns"
let span_fsck = Obs.span_site "ddg_store_fsck_ns"
let puts_total = Obs.counter "ddg_store_puts_total"

let find_hits =
  Obs.counter ~labels:[ ("result", "hit") ] "ddg_store_finds_total"

let find_misses =
  Obs.counter ~labels:[ ("result", "miss") ] "ddg_store_finds_total"

type t = {
  root : string;
  lock : Mutex.t;          (* serialises the manifest and quarantines *)
  mutable quarantines : int;  (* artifacts moved aside since open_ *)
}

(* --- payload primitives --------------------------------------------------- *)

let write_varint oc v =
  if v < 0 then invalid_arg "Store: negative varint";
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
    let byte =
      try input_byte ic with End_of_file -> corrupt "truncated varint"
    in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let write_string oc s =
  write_varint oc (String.length s);
  output_string oc s

let read_string ?(max = 1 lsl 30) ic =
  let n = read_varint ic in
  if n > max then corrupt "string too long (%d bytes)" n;
  try really_input_string ic n
  with End_of_file -> corrupt "truncated string"

let write_float oc f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    output_byte oc (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xFF)
  done

let read_float ic =
  let bits = ref 0L in
  (try
     for _ = 0 to 7 do
       bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (input_byte ic))
     done
   with End_of_file -> corrupt "truncated float");
  Int64.float_of_bits !bits

(* --- directories ----------------------------------------------------------- *)

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "ddg"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" ->
          Filename.concat (Filename.concat h ".cache") "ddg"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "ddg-cache")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
        raise
          (Sys_error (Printf.sprintf "mkdir %s: %s" dir (Unix.error_message e)))
  end

let quarantine_dir t = Filename.concat t.root "quarantine"

let open_ ?dir () =
  let root = match dir with Some d -> d | None -> default_dir () in
  mkdir_p root;
  mkdir_p (Filename.concat root "quarantine");
  { root; lock = Mutex.create (); quarantines = 0 }

let dir t = t.root

let quarantine_count t =
  Mutex.lock t.lock;
  let n = t.quarantines in
  Mutex.unlock t.lock;
  n

let artifact_path t ~kind ~key =
  Filename.concat t.root
    (Printf.sprintf "%s-%s.art" kind
       (Digest.to_hex (Digest.string (kind ^ "\x00" ^ key))))

(* Uniquifies temp and quarantine names. Process-wide, not per handle:
   two handles on one directory in one process share the pid prefix, so
   per-handle counters would hand both the same names. *)
let names = Atomic.make 0

let next_id () = Atomic.fetch_and_add names 1

(* Flushing an out_channel hands the bytes to the kernel, not the disk:
   without an fsync a crash after the rename can leave a manifest entry
   pointing at a hole. Directory fsync makes the rename itself durable.
   Both are best-effort — a filesystem that refuses (EINVAL on some
   virtual mounts) degrades to the old behaviour rather than failing
   the write. *)
let fsync_channel oc =
  try Unix.fsync (Unix.descr_of_out_channel oc)
  with Unix.Unix_error _ | Sys_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let temp_name t suffix =
  Filename.concat t.root
    (Printf.sprintf "tmp.%d.%d.%s" (Unix.getpid ()) (next_id ()) suffix)

(* --- artifact headers ------------------------------------------------------ *)

type info = {
  i_kind : string;
  i_key : string;
  i_created : float;
  i_wall : float;
  i_digest : string;  (* 16 raw MD5 bytes *)
  i_length : int;     (* payload bytes *)
}

let write_header oc info =
  output_string oc magic;
  write_string oc info.i_kind;
  write_string oc info.i_key;
  write_float oc info.i_created;
  write_float oc info.i_wall;
  output_string oc info.i_digest;
  write_varint oc info.i_length

let read_header ic =
  let buf = Bytes.create (String.length magic) in
  (try really_input ic buf 0 (String.length magic)
   with End_of_file -> corrupt "truncated header");
  if Bytes.to_string buf <> magic then corrupt "bad artifact magic";
  let i_kind = read_string ~max:256 ic in
  let i_key = read_string ~max:65536 ic in
  let i_created = read_float ic in
  let i_wall = read_float ic in
  let digest = Bytes.create 16 in
  (try really_input ic digest 0 16
   with End_of_file -> corrupt "truncated digest");
  let i_length = read_varint ic in
  { i_kind; i_key; i_created; i_wall; i_digest = Bytes.to_string digest;
    i_length }

(* --- manifest --------------------------------------------------------------- *)

(* The manifest is rebuilt from the artifact headers on every mutation:
   it can never drift from the store contents, and a manifest lost or
   mangled by hand is simply regenerated on the next write. *)
let write_manifest_locked t =
  let entries =
    Sys.readdir t.root |> Array.to_list |> List.sort compare
    |> List.filter_map (fun file ->
           if not (Filename.check_suffix file ".art") then None
           else
             let path = Filename.concat t.root file in
             match
               let ic = open_in_bin path in
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> (read_header ic, in_channel_length ic))
             with
             | info, bytes -> Some (file, info, bytes)
             | exception _ -> None)
  in
  let json =
    Ddg_report.Json.(
      Obj
        [ ("version", Int 1);
          ( "artifacts",
            List
              (List.map
                 (fun (file, i, bytes) ->
                   Obj
                     [ ("kind", String i.i_kind);
                       ("key", String i.i_key);
                       ("file", String file);
                       ("bytes", Int bytes);
                       ("created", Float i.i_created);
                       ("wall_seconds", Float i.i_wall) ])
                 entries) ) ])
  in
  let tmp =
    Filename.concat t.root
      (Printf.sprintf "manifest.json.tmp.%d" (Unix.getpid ()))
  in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Ddg_report.Json.to_string json);
      output_char oc '\n';
      flush oc;
      fsync_channel oc);
  Sys.rename tmp (Filename.concat t.root "manifest.json");
  fsync_dir t.root

let refresh_manifest t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () -> try write_manifest_locked t with Sys_error _ -> ())

(* --- put -------------------------------------------------------------------- *)

let copy_channel ic oc =
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ()

let truncate_file path =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      Unix.ftruncate fd (size / 2))

let put t ~kind ~key ?(wall = 0.0) write_payload =
  Obs.time span_put @@ fun () ->
  Obs.incr puts_total;
  if kind = "" || String.contains kind '/' then
    invalid_arg "Store.put: kind must be non-empty and contain no '/'";
  if Ddg_fault.Fault.fire "store.put.enospc" then
    raise
      (Sys_error
         (Printf.sprintf "%s: No space left on device (fault-injected)" t.root));
  let payload = temp_name t "payload" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove payload with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin payload in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          write_payload oc;
          flush oc);
      let i_digest = Digest.file payload in
      let i_length =
        let ic = open_in_bin payload in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> in_channel_length ic)
      in
      let tmp = temp_name t "art" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
        (fun () ->
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              write_header oc
                { i_kind = kind; i_key = key;
                  i_created = Unix.gettimeofday (); i_wall = wall; i_digest;
                  i_length };
              let ic = open_in_bin payload in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> copy_channel ic oc);
              flush oc;
              (* the artifact must be on disk before the rename makes it
                 visible: rename-then-crash must never yield a manifest
                 entry over a hole *)
              fsync_channel oc);
          (* a torn write: the file loses its tail between the writer's
             last byte and the rename — exactly what the checksummed
             header exists to catch on the next [find] *)
          if Ddg_fault.Fault.fire "store.put.torn" then truncate_file tmp;
          Sys.rename tmp (artifact_path t ~kind ~key);
          fsync_dir t.root));
  refresh_manifest t

(* --- find / quarantine ------------------------------------------------------ *)

(* Move one artifact aside, under the store lock. Quarantine races are
   benign: two readers both failing verification on the same artifact
   both try the rename, the loser's [Sys.rename] raises (the source is
   gone) and is swallowed — exactly one quarantined copy results. *)
let quarantine_move_locked t path reason =
  try
    let dest =
      Filename.concat (quarantine_dir t)
        (Printf.sprintf "%s.%d.%d" (Filename.basename path) (Unix.getpid ())
           (next_id ()))
    in
    Sys.rename path dest;
    t.quarantines <- t.quarantines + 1;
    let oc = open_out (dest ^ ".reason") in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (reason ^ "\n"))
  with Sys_error _ -> ()

let quarantine t path reason =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      quarantine_move_locked t path reason;
      try write_manifest_locked t with Sys_error _ -> ())

(* flip one bit of the payload's first byte in place: models silent
   media corruption between write and read *)
let bitflip_file path =
  try
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size > 0 then begin
          let off = size - 1 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          let b = Bytes.create 1 in
          if Unix.read fd b 0 1 = 1 then begin
            Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
            ignore (Unix.lseek fd off Unix.SEEK_SET);
            ignore (Unix.write fd b 0 1)
          end
        end)
  with Unix.Unix_error _ | Sys_error _ -> ()

let find t ~kind ~key read_payload =
  Obs.time span_find @@ fun () ->
  let path = artifact_path t ~kind ~key in
  if not (Sys.file_exists path) then begin
    Obs.incr find_misses;
    None
  end
  else begin
    if Ddg_fault.Fault.fire "store.find.bitflip" then bitflip_file path;
    let verdict =
      match open_in_bin path with
      | exception Sys_error msg -> Error msg
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match
                let info = read_header ic in
                if info.i_kind <> kind || info.i_key <> key then
                  corrupt "key mismatch (hash collision or tampering)";
                let start = pos_in ic in
                if in_channel_length ic - start <> info.i_length then
                  corrupt "payload length mismatch";
                let actual = Digest.channel ic info.i_length in
                if actual <> info.i_digest then corrupt "checksum mismatch";
                seek_in ic start;
                read_payload ic
              with
              | v -> Ok v
              | exception Corrupt msg -> Error msg
              | exception End_of_file -> Error "truncated artifact"
              | exception e -> Error (Printexc.to_string e))
    in
    match verdict with
    | Ok v ->
        Obs.incr find_hits;
        Some v
    | Error reason ->
        quarantine t path reason;
        Obs.incr find_misses;
        None
  end

(* --- zero-copy views --------------------------------------------------------- *)

type view = { view_path : string; view_pos : int; view_len : int }

(* Hand back the payload's position instead of its bytes. The returned
   path stays readable to holders of already-open fds and mappings even
   if the artifact is later quarantined (rename) or removed (unlink) —
   POSIX keeps the inode alive — which is the lifetime rule that lets a
   served trace outlive a concurrent fsck. *)
let find_view ?(verify = true) t ~kind ~key =
  Obs.time span_find @@ fun () ->
  let path = artifact_path t ~kind ~key in
  if not (Sys.file_exists path) then begin
    Obs.incr find_misses;
    None
  end
  else begin
    if Ddg_fault.Fault.fire "store.find.bitflip" then bitflip_file path;
    let verdict =
      match open_in_bin path with
      | exception Sys_error msg -> Error msg
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match
                let info = read_header ic in
                if info.i_kind <> kind || info.i_key <> key then
                  corrupt "key mismatch (hash collision or tampering)";
                let start = pos_in ic in
                if in_channel_length ic - start <> info.i_length then
                  corrupt "payload length mismatch";
                if verify then begin
                  let actual = Digest.channel ic info.i_length in
                  if actual <> info.i_digest then corrupt "checksum mismatch"
                end;
                { view_path = path; view_pos = start;
                  view_len = info.i_length }
              with
              | v -> Ok v
              | exception Corrupt msg -> Error msg
              | exception End_of_file -> Error "truncated artifact"
              | exception e -> Error (Printexc.to_string e))
    in
    match verdict with
    | Ok v ->
        Obs.incr find_hits;
        Some v
    | Error reason ->
        quarantine t path reason;
        Obs.incr find_misses;
        None
  end

(* Public quarantine: a reader that validated deeper than the store can
   (e.g. the flat-trace decoder rejecting a structurally hostile file
   that passes its digest) reports the artifact bad here. *)
let discredit t ~kind ~key reason =
  let path = artifact_path t ~kind ~key in
  if Sys.file_exists path then quarantine t path reason

(* --- export_range / import --------------------------------------------------- *)

(* verify an artifact file in place: header shape, payload length and
   digest (shared by fsck, verify and import) *)
let verify_artifact path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match
        let info = read_header ic in
        let start = pos_in ic in
        if in_channel_length ic - start <> info.i_length then
          corrupt "payload length mismatch";
        let actual = Digest.channel ic info.i_length in
        if actual <> info.i_digest then corrupt "checksum mismatch";
        info
      with
      | info ->
          (* the filename must match the content address in the header,
             or a lookup for that (kind, key) will never see this file *)
          Ok info
      | exception Corrupt msg -> Error msg
      | exception End_of_file -> Error "truncated artifact"
      | exception e -> Error (Printexc.to_string e))

let exports_total = Obs.counter "ddg_store_exports_total"
let imports_total = Obs.counter "ddg_store_imports_total"

(* Serve one slice of a whole artifact file for chunked replication.
   Cheap by design: header sanity only, no digest pass — the importer
   verifies the reassembled artifact in full before installing it, so a
   rotted chunk is caught there. Returns the slice and the file's total
   size so the fetcher can plan the next request. *)
let export_range t ~kind ~key ~offset ~length =
  if offset < 0 || length < 0 then None
  else
    let path = artifact_path t ~kind ~key in
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic -> (
        match
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let info = read_header ic in
              if info.i_kind <> kind || info.i_key <> key then
                corrupt "key mismatch (hash collision or tampering)";
              let total = in_channel_length ic in
              let len = min length (max 0 (total - offset)) in
              seek_in ic offset;
              (total, really_input_string ic len))
        with
        | result ->
            Obs.incr exports_total;
            Some result
        | exception Corrupt _ | exception End_of_file
        | exception Sys_error _ ->
            None)

(* The writer streams raw [.art] bytes into a temp file; whatever it
   raises propagates after the temp is removed, so an interrupted
   transfer leaves nothing behind. *)
let import t write =
  let tmp = temp_name t "import" in
  let installed =
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists tmp then
          try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            write oc;
            flush oc;
            fsync_channel oc);
        (* full verification on the temp copy: untrusted bytes never
           reach a content address unchecked *)
        match verify_artifact tmp with
        | Ok info when info.i_kind <> "" && not (String.contains info.i_kind '/')
          -> (
            match
              Sys.rename tmp (artifact_path t ~kind:info.i_kind ~key:info.i_key)
            with
            | () ->
                fsync_dir t.root;
                Some (info.i_kind, info.i_key)
            | exception Sys_error _ -> None)
        | Ok _ | Error _ -> None
        | exception Sys_error _ -> None)
  in
  (match installed with
  | Some _ ->
      Obs.incr imports_total;
      refresh_manifest t
  | None -> ());
  installed

(* --- fsck ------------------------------------------------------------------- *)

type fsck_report = {
  scanned : int;
  valid : int;
  quarantined : int;
  missing : int;
  swept_temps : int;
}

(* the manifest is our own non-minified Json output and artifact file
   names never need escaping, so the entries can be recovered with a
   plain text scan — there is deliberately no JSON parser in this
   codebase *)
let manifest_files t =
  let path = Filename.concat t.root "manifest.json" in
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let text =
            really_input_string ic (in_channel_length ic)
          in
          let needle = "\"file\": \"" in
          let rec scan acc from =
            match
              if from > String.length text - String.length needle then None
              else
                let rec find i =
                  if i > String.length text - String.length needle then None
                  else if String.sub text i (String.length needle) = needle
                  then Some i
                  else find (i + 1)
                in
                find from
            with
            | None -> List.rev acc
            | Some i -> (
                let start = i + String.length needle in
                match String.index_from_opt text start '"' with
                | None -> List.rev acc
                | Some stop ->
                    scan (String.sub text start (stop - start) :: acc) stop)
          in
          try scan [] 0 with _ -> [])

(* is the process that owns a temp file still alive? *)
let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error (_, _, _) -> true (* EPERM: alive, not ours *)

let temp_owner_pid file =
  let parts = String.split_on_char '.' file in
  match parts with
  | "tmp" :: pid :: _ -> int_of_string_opt pid
  | [ "manifest"; "json"; "tmp"; pid ] -> int_of_string_opt pid
  | _ -> None

let fsck t =
  Obs.time span_fsck @@ fun () ->
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let files = Sys.readdir t.root |> Array.to_list |> List.sort compare in
      (* temp files also end in .art (tmp.<pid>.<n>.art): they are
         writers' scratch, not artifacts — never scan them, only sweep
         the dead ones below *)
      let present =
        List.filter
          (fun f ->
            Filename.check_suffix f ".art" && temp_owner_pid f = None)
          files
      in
      let present_set = Hashtbl.create 64 in
      List.iter (fun f -> Hashtbl.replace present_set f ()) present;
      (* manifest entries with no backing artifact: counted against the
         manifest as it stood before this pass rewrites it *)
      let missing =
        List.length
          (List.filter
             (fun f -> not (Hashtbl.mem present_set f))
             (manifest_files t))
      in
      let scanned = ref 0 and valid = ref 0 and quarantined = ref 0 in
      List.iter
        (fun file ->
          let path = Filename.concat t.root file in
          incr scanned;
          match verify_artifact path with
          | Ok info ->
              (* a valid header at the wrong address is as unreachable
                 as a corrupt one: quarantine it too *)
              let expected =
                Filename.basename
                  (artifact_path t ~kind:info.i_kind ~key:info.i_key)
              in
              if expected = file then incr valid
              else begin
                quarantine_move_locked t path
                  (Printf.sprintf "misplaced artifact: content says %s"
                     expected);
                incr quarantined
              end
          | Error reason ->
              quarantine_move_locked t path reason;
              incr quarantined
          | exception Sys_error _ ->
              (* vanished between readdir and open: treat as swept *)
              ())
        present;
      (* orphaned temp files from dead writers: an interrupted [put]
         leaves tmp.<pid>.<n>.* behind; live pids are skipped because
         their write may still be in flight *)
      let swept = ref 0 in
      List.iter
        (fun file ->
          match temp_owner_pid file with
          | Some pid when not (pid_alive pid) -> (
              match Sys.remove (Filename.concat t.root file) with
              | () -> incr swept
              | exception Sys_error _ -> ())
          | _ -> ())
        files;
      (try write_manifest_locked t with Sys_error _ -> ());
      { scanned = !scanned; valid = !valid; quarantined = !quarantined;
        missing; swept_temps = !swept })

(* --- enumeration / per-artifact verification -------------------------------- *)

(* enumerate the store by reading artifact headers, not the manifest:
   the manifest is advisory and may lag a concurrent writer. Temp files
   share the .art suffix and are excluded by their tmp.<pid> prefix. *)
let entries t =
  let files =
    match Sys.readdir t.root with
    | files -> Array.to_list files |> List.sort compare
    | exception Sys_error _ -> []
  in
  List.filter_map
    (fun file ->
      if not (Filename.check_suffix file ".art") || temp_owner_pid file <> None
      then None
      else
        let path = Filename.concat t.root file in
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> read_header ic)
        with
        | info -> Some (info.i_kind, info.i_key)
        | exception _ -> None)
    files

(* one-artifact verification for the anti-entropy scrub: unlike [find]
   it never decodes the payload, and unlike [fsck] it visits a single
   (kind, key) so a scrubber can pace itself *)
let verify t ~kind ~key =
  let path = artifact_path t ~kind ~key in
  if not (Sys.file_exists path) then `Missing
  else begin
    if Ddg_fault.Fault.fire "store.verify.bitflip" then bitflip_file path;
    match verify_artifact path with
    | Ok info when info.i_kind = kind && info.i_key = key -> `Ok
    | Ok _ ->
        quarantine t path "key mismatch (hash collision or tampering)";
        `Quarantined
    | Error reason ->
        quarantine t path reason;
        `Quarantined
    | exception Sys_error _ -> `Missing
  end
