(* Spans, counters, gauges and log-bucketed histograms behind one atomic
   gate.

   The fast-path discipline mirrors Ddg_fault.Fault: [on] is a single
   Atomic.t bool, and every public recording entry point reads it first
   and returns immediately when the layer is disabled — no clock read,
   no shard lookup, no allocation. The slow (enabled) path shards state
   by the running domain to keep recording exact without a global lock:
   counters are per-shard Atomic.fetch_and_add cells, histograms are
   per-shard bucket arrays under a per-shard mutex (several systhreads
   share a domain, so plain increments would lose updates across a
   thread switch). Snapshots merge the shards. *)

(* --- clock ------------------------------------------------------------------ *)

module Clock = struct
  external monotonic_ns : unit -> int = "ddg_obs_monotonic_ns" [@@noalloc]

  let source : (unit -> int) Atomic.t = Atomic.make monotonic_ns
  let now_ns () = (Atomic.get source) ()
  let set_source f = Atomic.set source f
  let use_monotonic () = Atomic.set source monotonic_ns

  let use_fake ?(start_ns = 0) ?(step_ns = 1) () =
    let t = Atomic.make start_ns in
    Atomic.set source (fun () -> Atomic.fetch_and_add t step_ns + step_ns)
end

(* --- gate ------------------------------------------------------------------- *)

let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

(* --- buckets ---------------------------------------------------------------- *)

(* Base-2 buckets, the Dist scheme: bucket 0 is [0..0], bucket i >= 1 is
   [2^(i-1) .. 2^i - 1]. 63 buckets cover every non-negative OCaml int:
   bucket 62's upper edge (2^62 - 1) is max_int. *)
let buckets = 63

let bucket_index v =
  if v <= 0 then 0
  else begin
    (* highest set bit + 1 by binary descent; v > 0 *)
    let n = ref 0 and v = ref v in
    if !v >= 1 lsl 32 then begin n := !n + 32; v := !v lsr 32 end;
    if !v >= 1 lsl 16 then begin n := !n + 16; v := !v lsr 16 end;
    if !v >= 1 lsl 8 then begin n := !n + 8; v := !v lsr 8 end;
    if !v >= 1 lsl 4 then begin n := !n + 4; v := !v lsr 4 end;
    if !v >= 1 lsl 2 then begin n := !n + 2; v := !v lsr 2 end;
    if !v >= 2 then incr n;
    !n + 1
  end

let bucket_lower i = if i <= 0 then 0 else 1 lsl (i - 1)
let bucket_upper i = if i <= 0 then 0 else (1 lsl i) - 1

(* --- metric names ----------------------------------------------------------- *)

let valid_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let valid_label_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       name

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label_value v))
             labels)
      ^ "}"

let check_site name labels =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs: invalid metric name %S" name);
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Obs: invalid label name %S on %s" k name))
    labels;
  (* canonical label order makes registry keys and exposition stable *)
  List.sort compare labels

(* --- sharded state ---------------------------------------------------------- *)

let nshards = 16
let shard_mask = nshards - 1
let shard_id () = (Domain.self () :> int) land shard_mask

type counter = {
  c_name : string;
  c_labels : (string * string) list;
  cells : int Atomic.t array;  (* one cell per shard *)
}

type hshard = {
  hlock : Mutex.t;
  hbuckets : int array;
  mutable hcount : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
}

type histogram = {
  h_name : string;
  h_labels : (string * string) list;
  shards : hshard array;
}

type span = histogram

(* a gauge holds the last value set, so one cell serves every domain *)
type gauge = {
  g_name : string;
  g_labels : (string * string) list;
  value : int Atomic.t;
}

(* --- registry --------------------------------------------------------------- *)

type metric = C of counter | H of histogram | G of gauge

let kind_name = function
  | C _ -> "counter"
  | H _ -> "histogram"
  | G _ -> "gauge"

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let reg_lock = Mutex.create ()

let registered name labels make classify =
  let labels = check_site name labels in
  let key = name ^ render_labels labels in
  Mutex.lock reg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock reg_lock)
    (fun () ->
      match Hashtbl.find_opt registry key with
      | Some m -> (
          match classify m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Obs: %s already registered as a %s" key
                   (kind_name m)))
      | None ->
          let m, v = make labels in
          Hashtbl.replace registry key m;
          v)

let counter ?(labels = []) name =
  registered name labels
    (fun labels ->
      let c =
        { c_name = name; c_labels = labels;
          cells = Array.init nshards (fun _ -> Atomic.make 0) }
      in
      (C c, c))
    (function C c -> Some c | _ -> None)

let histogram ?(labels = []) name =
  registered name labels
    (fun labels ->
      let h =
        { h_name = name; h_labels = labels;
          shards =
            Array.init nshards (fun _ ->
                { hlock = Mutex.create (); hbuckets = Array.make buckets 0;
                  hcount = 0; hsum = 0; hmin = 0; hmax = 0 }) }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)

let gauge ?(labels = []) name =
  registered name labels
    (fun labels ->
      let g = { g_name = name; g_labels = labels; value = Atomic.make 0 } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let span_site = histogram

(* --- recording -------------------------------------------------------------- *)

let add c n =
  if Atomic.get on && n > 0 then
    ignore (Atomic.fetch_and_add c.cells.(shard_id ()) n)

let incr c =
  if Atomic.get on then ignore (Atomic.fetch_and_add c.cells.(shard_id ()) 1)

let set g v = if Atomic.get on then Atomic.set g.value v

let observe_enabled h v =
  let v = if v < 0 then 0 else v in
  let s = h.shards.(shard_id ()) in
  Mutex.lock s.hlock;
  let i = bucket_index v in
  s.hbuckets.(i) <- s.hbuckets.(i) + 1;
  (if s.hcount = 0 then begin
     s.hmin <- v;
     s.hmax <- v
   end
   else begin
     if v < s.hmin then s.hmin <- v;
     if v > s.hmax then s.hmax <- v
   end);
  s.hcount <- s.hcount + 1;
  s.hsum <- s.hsum + v;
  Mutex.unlock s.hlock

let observe h v = if Atomic.get on then observe_enabled h v

let time h f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = Clock.now_ns () in
    match f () with
    | v ->
        observe_enabled h (Clock.now_ns () - t0);
        v
    | exception e ->
        observe_enabled h (Clock.now_ns () - t0);
        raise e
  end

(* --- snapshots -------------------------------------------------------------- *)

type counter_snapshot = {
  cs_name : string;
  cs_labels : (string * string) list;
  cs_value : int;
}

type hist_snapshot = {
  hs_name : string;
  hs_labels : (string * string) list;
  hs_count : int;
  hs_sum : int;
  hs_min : int;
  hs_max : int;
  hs_buckets : int array;
}

type snapshot = {
  counters : counter_snapshot list;
  histograms : hist_snapshot list;
  gauges : counter_snapshot list;
}

let counter_snapshot c =
  { cs_name = c.c_name; cs_labels = c.c_labels;
    cs_value = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.cells }

let hist_snapshot h =
  let out = Array.make buckets 0 in
  let count = ref 0 and sum = ref 0 and mn = ref 0 and mx = ref 0 in
  Array.iter
    (fun s ->
      Mutex.lock s.hlock;
      if s.hcount > 0 then begin
        if !count = 0 then begin
          mn := s.hmin;
          mx := s.hmax
        end
        else begin
          if s.hmin < !mn then mn := s.hmin;
          if s.hmax > !mx then mx := s.hmax
        end;
        count := !count + s.hcount;
        sum := !sum + s.hsum;
        Array.iteri (fun i n -> out.(i) <- out.(i) + n) s.hbuckets
      end;
      Mutex.unlock s.hlock)
    h.shards;
  { hs_name = h.h_name; hs_labels = h.h_labels; hs_count = !count;
    hs_sum = !sum; hs_min = !mn; hs_max = !mx; hs_buckets = out }

let by_series a b = compare a b

let snapshot () =
  Mutex.lock reg_lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock reg_lock;
  let counters, histograms, gauges =
    List.fold_left
      (fun (cs, hs, gs) -> function
        | C c -> (counter_snapshot c :: cs, hs, gs)
        | H h -> (cs, hist_snapshot h :: hs, gs)
        | G g ->
            ( cs,
              hs,
              { cs_name = g.g_name; cs_labels = g.g_labels;
                cs_value = Atomic.get g.value }
              :: gs ))
      ([], [], []) metrics
  in
  let scalars =
    List.sort (fun a b ->
        by_series (a.cs_name, a.cs_labels) (b.cs_name, b.cs_labels))
  in
  { counters = scalars counters;
    histograms =
      List.sort
        (fun a b -> by_series (a.hs_name, a.hs_labels) (b.hs_name, b.hs_labels))
        histograms;
    gauges = scalars gauges }

let reset () =
  Mutex.lock reg_lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock reg_lock;
  List.iter
    (function
      | C c -> Array.iter (fun a -> Atomic.set a 0) c.cells
      | G g -> Atomic.set g.value 0
      | H h ->
          Array.iter
            (fun s ->
              Mutex.lock s.hlock;
              Array.fill s.hbuckets 0 buckets 0;
              s.hcount <- 0;
              s.hsum <- 0;
              s.hmin <- 0;
              s.hmax <- 0;
              Mutex.unlock s.hlock)
            h.shards)
    metrics

(* --- snapshot algebra ------------------------------------------------------- *)

let merge a b =
  { a with
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum + b.hs_sum;
    hs_min =
      (if a.hs_count = 0 then b.hs_min
       else if b.hs_count = 0 then a.hs_min
       else min a.hs_min b.hs_min);
    hs_max =
      (if a.hs_count = 0 then b.hs_max
       else if b.hs_count = 0 then a.hs_max
       else max a.hs_max b.hs_max);
    hs_buckets =
      Array.init buckets (fun i -> a.hs_buckets.(i) + b.hs_buckets.(i)) }

let hist_of_samples ~name ?(labels = []) samples =
  let out = Array.make buckets 0 in
  let count = ref 0 and sum = ref 0 and mn = ref 0 and mx = ref 0 in
  List.iter
    (fun v ->
      let v = if v < 0 then 0 else v in
      let i = bucket_index v in
      out.(i) <- out.(i) + 1;
      if !count = 0 then begin
        mn := v;
        mx := v
      end
      else begin
        if v < !mn then mn := v;
        if v > !mx then mx := v
      end;
      count := !count + 1;
      sum := !sum + v)
    samples;
  { hs_name = name; hs_labels = List.sort compare labels; hs_count = !count;
    hs_sum = !sum; hs_min = !mn; hs_max = !mx; hs_buckets = out }

let quantile h q =
  if h.hs_count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      max 1 (int_of_float (ceil (q *. float_of_int h.hs_count)))
    in
    let rec go i seen =
      if i >= buckets then bucket_upper (buckets - 1)
      else
        let seen = seen + h.hs_buckets.(i) in
        if seen >= rank then bucket_upper i else go (i + 1) seen
    in
    go 0 0
  end

let hist_mean h =
  if h.hs_count = 0 then 0.0
  else float_of_int h.hs_sum /. float_of_int h.hs_count

(* --- Prometheus text exposition --------------------------------------------- *)

(* One TYPE comment per metric name (the snapshot is sorted, so a name
   change marks a new metric family); histogram bucket series are
   cumulative and always end in le="+Inf". Only buckets up to the
   highest occupied one are materialised, which keeps the text small
   without changing any cumulative value. *)

let prom_labels_with labels extra =
  render_labels (List.sort compare (labels @ extra))

let prometheus_of_snapshot snap =
  let b = Buffer.create 1024 in
  let last_type = ref "" in
  let type_line name kind =
    if !last_type <> name then begin
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind);
      last_type := name
    end
  in
  let scalars kind =
    List.iter (fun c ->
        type_line c.cs_name kind;
        Buffer.add_string b
          (Printf.sprintf "%s%s %d\n" c.cs_name (render_labels c.cs_labels)
             c.cs_value))
  in
  scalars "counter" snap.counters;
  List.iter
    (fun h ->
      type_line h.hs_name "histogram";
      let top = ref (-1) in
      Array.iteri (fun i n -> if n > 0 then top := i) h.hs_buckets;
      let cum = ref 0 in
      for i = 0 to !top do
        cum := !cum + h.hs_buckets.(i);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket%s %d\n" h.hs_name
             (prom_labels_with h.hs_labels
                [ ("le", string_of_int (bucket_upper i)) ])
             !cum)
      done;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" h.hs_name
           (prom_labels_with h.hs_labels [ ("le", "+Inf") ])
           h.hs_count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %d\n" h.hs_name (render_labels h.hs_labels)
           h.hs_sum);
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" h.hs_name
           (render_labels h.hs_labels) h.hs_count))
    snap.histograms;
  scalars "gauge" snap.gauges;
  Buffer.contents b

(* --- exposition grammar validator ------------------------------------------- *)

(* Hand-rolled line parser for [name{label="value",...} number]. Used by
   the golden tests and by [client metrics --prom], which refuses to
   print text that fails its own grammar. *)

exception Bad of string

let bump (r : int ref) = r := !r + 1

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let name_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
    | _ -> false
  in
  let read_name what first_ok =
    let start = !pos in
    (match peek () with
    | Some c when first_ok c -> bump pos
    | _ -> raise (Bad (Printf.sprintf "expected %s at column %d" what !pos)));
    while (match peek () with Some c -> name_char c | None -> false) do
      bump pos
    done;
    String.sub line start (!pos - start)
  in
  let metric =
    read_name "metric name" (function
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
      | _ -> false)
  in
  let labels = ref [] in
  (if peek () = Some '{' then begin
     bump pos;
     let rec one () =
       let label =
         read_name "label name" (function
           | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
           | _ -> false)
       in
       if peek () <> Some '=' then raise (Bad "expected '=' after label name");
       bump pos;
       if peek () <> Some '"' then raise (Bad "expected '\"' in label value");
       bump pos;
       let vbuf = Buffer.create 16 in
       let rec value () =
         match peek () with
         | None -> raise (Bad "unterminated label value")
         | Some '"' -> bump pos
         | Some '\\' -> (
             bump pos;
             match peek () with
             | Some ('\\' | '"' | 'n') ->
                 Buffer.add_char vbuf line.[!pos];
                 bump pos;
                 value ()
             | _ -> raise (Bad "bad escape in label value"))
         | Some c ->
             Buffer.add_char vbuf c;
             bump pos;
             value ()
       in
       value ();
       labels := (label, Buffer.contents vbuf) :: !labels;
       match peek () with
       | Some ',' ->
           bump pos;
           one ()
       | Some '}' -> bump pos
       | _ -> raise (Bad "expected ',' or '}' in label set")
     in
     one ()
   end);
  if peek () <> Some ' ' then raise (Bad "expected single space before value");
  bump pos;
  let value = String.sub line !pos (n - !pos) in
  let numeric =
    value <> ""
    && (match value with
       | "+Inf" | "-Inf" | "NaN" -> true
       | _ -> ( match float_of_string_opt value with
                | Some _ -> true
                | None -> false))
    && not (String.contains value ' ')
  in
  if not numeric then raise (Bad (Printf.sprintf "bad sample value %S" value));
  (metric, List.rev !labels, value)

let validate_exposition text =
  (* per (_bucket base name + non-le labels): le series in order *)
  let series : (string * (string * string) list, (string * int) list) Hashtbl.t
      =
    Hashtbl.create 16
  in
  let counts : (string * (string * string) list, int) Hashtbl.t =
    Hashtbl.create 16
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines = String.split_on_char '\n' text in
  let rec check lineno = function
    | [] -> Ok ()
    | line :: rest ->
        if line = "" || line.[0] = '#' then check (lineno + 1) rest
        else begin
          match parse_line line with
          | exception Bad msg -> err "line %d: %s: %S" lineno msg line
          | metric, labels, value -> (
              let suffix s =
                String.length metric > String.length s
                && String.sub metric
                     (String.length metric - String.length s)
                     (String.length s)
                   = s
              in
              let base s =
                String.sub metric 0 (String.length metric - String.length s)
              in
              (if suffix "_bucket" && List.mem_assoc "le" labels then begin
                 let key =
                   (base "_bucket",
                    List.filter (fun (k, _) -> k <> "le") labels)
                 in
                 let le = List.assoc "le" labels in
                 let v =
                   match int_of_string_opt value with
                   | Some v -> v
                   | None -> -1
                 in
                 let prev =
                   Option.value ~default:[] (Hashtbl.find_opt series key)
                 in
                 Hashtbl.replace series key ((le, v) :: prev)
               end
               else if suffix "_count" then
                 match int_of_string_opt value with
                 | Some v -> Hashtbl.replace counts (base "_count", labels) v
                 | None -> ());
              check (lineno + 1) rest)
        end
  in
  match check 1 lines with
  | Error _ as e -> e
  | Ok () ->
      Hashtbl.fold
        (fun (name, labels) les acc ->
          match acc with
          | Error _ -> acc
          | Ok () -> (
              let les = List.rev les in
              match List.rev les with
              | [] -> Ok ()
              | (last_le, last_v) :: _ ->
                  if last_le <> "+Inf" then
                    err "%s%s: bucket series does not end in le=\"+Inf\"" name
                      (render_labels labels)
                  else if
                    let rec cumulative prev = function
                      | [] -> true
                      | (_, v) :: rest -> v >= prev && cumulative v rest
                    in
                    not (cumulative 0 les)
                  then
                    err "%s%s: bucket series is not cumulative" name
                      (render_labels labels)
                  else
                    match Hashtbl.find_opt counts (name, labels) with
                    | Some c when c <> last_v ->
                        err
                          "%s%s: +Inf bucket (%d) disagrees with _count (%d)"
                          name (render_labels labels) last_v c
                    | Some _ | None -> Ok ()))
        series (Ok ())

(* --- process memory --------------------------------------------------------- *)

(* VmHWM is the kernel's high-water mark of resident set size; reading
   it costs one small procfs read and needs no privileges *)
let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> None
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  let kb =
                    String.sub line 6 (String.length line - 6)
                    |> String.trim
                    |> String.split_on_char ' '
                    |> List.hd |> int_of_string_opt
                  in
                  Option.map (fun kb -> kb * 1024) kb
                else scan ()
          in
          scan ())

let reset_peak_rss () =
  (* compact first so freed heap pages return to the OS before the
     kernel re-arms the mark *)
  Gc.compact ();
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> false
  | oc -> (
      match
        output_string oc "5";
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
          close_out_noerr oc;
          false)
