(** Federating per-node metric snapshots into one cluster view.

    Each backend (and the router itself) carries a process-local
    {!Ddg_obs.Obs} registry; the router's [metrics] verb merges their
    snapshots into a single series set that renders as one valid
    Prometheus exposition. Merging follows the registry's own algebra:
    counters and gauges with the same name and label set sum, histograms
    fold through {!Ddg_obs.Obs.merge}, and the result keeps the snapshot
    invariant (sorted by name, then labels) so
    {!Ddg_obs.Obs.prometheus_of_snapshot} applies unchanged. A daemon
    that is a cluster member labels its gauges with its node id, so
    they pass through one series per node. *)

val merge_snapshots : Ddg_obs.Obs.snapshot list -> Ddg_obs.Obs.snapshot
(** Pointwise union of the given snapshots: series that share a name
    and label set combine (counter and gauge values add; histograms
    merge), series unique to one node pass through. The empty list
    yields the empty snapshot. Associative and commutative up to the output
    ordering, which is always name-then-labels. *)
