module Protocol = Ddg_protocol.Protocol
module Workload = Ddg_workloads.Workload

let of_store_key key =
  match String.split_on_char '/' key with
  | name :: size :: _ -> name ^ "/" ^ size
  | _ -> key

let of_request ~size (req : Protocol.request) =
  let sz = Workload.size_to_string size in
  match req with
  | Protocol.Analyze { workload; _ }
  | Protocol.Simulate { workload }
  | Protocol.Advise { workload; _ } ->
      Some (workload ^ "/" ^ sz)
  | Protocol.Table { name } -> Some ("table/" ^ name)
  | Protocol.Forward_range { key; _ } -> Some (of_store_key key)
  | Protocol.Locate { key } -> Some key
  | Protocol.Ping _ | Protocol.Server_stats | Protocol.Fsck
  | Protocol.Metrics | Protocol.Shutdown | Protocol.Join _
  | Protocol.Decommission _ | Protocol.Ring_update _ | Protocol.Store_list
  | Protocol.Pull _ ->
      None
