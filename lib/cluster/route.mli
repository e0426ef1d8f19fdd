(** Routing keys: the string a request hashes onto the ring by.

    Every artifact of one workload at one size class — its trace and
    every per-configuration stats blob — routes to the same node, so
    the owner that simulated a trace also serves all analyses of it
    warm. The canonical routing key is therefore the first two
    components of the artifact-store key
    ({!Ddg_experiments.Runner.trace_key} starts [name/size/...]), and
    requests derive the same [name/size] form from their verb. *)

val of_store_key : string -> string
(** The routing key of an artifact-store key: its first two
    [/]-separated components ([name/size]), or the whole key when it
    has fewer. Matches {!of_request} for every key the runner
    produces, so a backend's fetch-through asks the same owner the
    router dispatched to. *)

val of_request :
  size:Ddg_workloads.Workload.size ->
  Ddg_protocol.Protocol.request ->
  string option
(** The routing key of a request at the fleet's size class: workload
    verbs route by [workload/size], [Table] by [table/name],
    [Forward_range] by its store key's routing key, [Locate] by the key
    it carries. [None] for verbs any node can serve ([Ping],
    [Fsck], [Metrics], [Shutdown]) — the router handles
    those itself (answering locally, or fanning out to every backend) —
    and for the membership and backend-only verbs. *)
