module Obs = Ddg_obs.Obs

(* group by (name, labels) with a hashtable, but keep first-seen order
   only as a tiebreak artifact — the result is re-sorted to the
   snapshot invariant (name, then labels), matching Obs.snapshot *)

let series_key name labels = (name, List.sort compare labels)

(* counters and gauges: same-series values sum *)
let merge_scalars series (snaps : Obs.snapshot list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun (c : Obs.counter_snapshot) ->
          let k = series_key c.Obs.cs_name c.cs_labels in
          match Hashtbl.find_opt tbl k with
          | None -> Hashtbl.replace tbl k c
          | Some prev ->
              Hashtbl.replace tbl k
                { prev with Obs.cs_value = prev.Obs.cs_value + c.cs_value })
        (series s))
    snaps;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []
  |> List.sort (fun (a : Obs.counter_snapshot) (b : Obs.counter_snapshot) ->
         compare
           (a.Obs.cs_name, a.cs_labels)
           (b.Obs.cs_name, b.cs_labels))

let merge_histograms (snaps : Obs.snapshot list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.snapshot) ->
      List.iter
        (fun (h : Obs.hist_snapshot) ->
          let k = series_key h.Obs.hs_name h.hs_labels in
          match Hashtbl.find_opt tbl k with
          | None -> Hashtbl.replace tbl k h
          | Some prev -> Hashtbl.replace tbl k (Obs.merge prev h))
        s.Obs.histograms)
    snaps;
  Hashtbl.fold (fun _ h acc -> h :: acc) tbl []
  |> List.sort (fun (a : Obs.hist_snapshot) (b : Obs.hist_snapshot) ->
         compare
           (a.Obs.hs_name, a.hs_labels)
           (b.Obs.hs_name, b.hs_labels))

let merge_snapshots snaps =
  { Obs.counters = merge_scalars (fun s -> s.Obs.counters) snaps;
    histograms = merge_histograms snaps;
    gauges = merge_scalars (fun s -> s.Obs.gauges) snaps }
