open Ddg_isa

type edge_kind = True_data | Storage | Control

type node = {
  id : int;
  trace_index : int;
  pc : int;
  op_class : Opclass.t;
  dest : Loc.t option;
  level : int;
}

type edge = { from_node : int; to_node : int; kind : edge_kind }

type t = {
  nodes : node array;
  edges : edge list;
  critical_path : int;
  placed : int;
  incoming : edge list array;
      (* edges into each node, indexed by node id, chronological; built
         once so predecessors and chain walks don't rescan [edges] *)
}

(* A live-well entry extended with provenance: which node created the value
   and which nodes have consumed it. [creator = None] for pre-existing
   values. *)
type cell = {
  mutable create_level : int;
  mutable deepest_use : int;
  mutable creator : int option;
  mutable users : (int * int) list;  (* (node id, use level) *)
}

module Table = Hashtbl.Make (struct
  type t = Loc.t

  let equal = Loc.equal
  let hash = Loc.hash
end)

let storage_dependencies_apply (config : Config.t) loc =
  let { Config.registers; stack; data } = config.renaming in
  match Segment.storage_class_of_loc loc with
  | Loc.Register -> not registers
  | Loc.Stack_memory -> not stack
  | Loc.Data_memory -> not data

(* The window holds (completion level, node id) per trace event; node id is
   -1 for events that placed no node. *)
type builder = {
  config : Config.t;
  table : cell Table.t;
  mutable rev_nodes : node list;
  mutable edges : edge list;
  mutable next_id : int;
  mutable highest_level : int;
  mutable deepest_level : int;
  mutable firewall : int option;  (* node id of the last firewall source *)
  window : (int * int) Queue.t option;
  window_capacity : int;
  resources : Resources.t;
  predictor : Branch_pred.t;
}

let lookup b loc =
  match Table.find_opt b.table loc with
  | Some c -> c
  | None ->
      let level = b.highest_level - 1 in
      let c =
        { create_level = level; deepest_use = level; creator = None; users = [] }
      in
      Table.replace b.table loc c;
      c

let add_edge b from_node to_node kind =
  if from_node <> to_node then
    b.edges <- { from_node; to_node; kind } :: b.edges

let window_make_room b =
  match b.window with
  | None -> ()
  | Some q ->
      if Queue.length q = b.window_capacity then begin
        let displaced_level, displaced_node = Queue.pop q in
        if displaced_level + 1 > b.highest_level then begin
          b.highest_level <- displaced_level + 1;
          if displaced_node >= 0 then b.firewall <- Some displaced_node
        end
      end

let window_admit b level node_id =
  match b.window with
  | None -> ()
  | Some q -> Queue.push (level, node_id) q

let fresh_node b trace_index (e : Ddg_sim.Trace.event) level =
  let id = b.next_id in
  b.next_id <- id + 1;
  let node =
    { id; trace_index; pc = e.pc; op_class = e.op_class; dest = e.dest; level }
  in
  b.rev_nodes <- node :: b.rev_nodes;
  node

let record_effects b id (e : Ddg_sim.Trace.event) src_cells level =
  if level > b.deepest_level then b.deepest_level <- level;
  List.iter
    (fun c ->
      if level > c.deepest_use then c.deepest_use <- level;
      c.users <- (id, level) :: c.users)
    src_cells;
  match e.dest with
  | Some dest ->
      Table.replace b.table dest
        { create_level = level; deepest_use = level; creator = Some id;
          users = [] }
  | None -> ()

let place b trace_index (e : Ddg_sim.Trace.event) =
  let src_cells = List.map (lookup b) e.srcs in
  let src_ready =
    List.fold_left (fun acc c -> max acc c.create_level) min_int src_cells
  in
  let ready = max src_ready (b.highest_level - 1) in
  let level = ready + b.config.latency e.op_class in
  let storage_pred =
    match e.dest with
    | Some dest when storage_dependencies_apply b.config dest -> (
        match Table.find_opt b.table dest with
        | Some c -> Some (c, max c.create_level c.deepest_use)
        | None -> None)
    | Some _ | None -> None
  in
  let level =
    match storage_pred with
    | Some (_, d) -> max level (d + 1)
    | None -> level
  in
  let level =
    if Resources.unlimited b.resources then level
    else Resources.place b.resources e.op_class level
  in
  let node = fresh_node b trace_index e level in
  List.iter
    (fun c ->
      match c.creator with
      | Some creator -> add_edge b creator node.id True_data
      | None -> ())
    src_cells;
  (match storage_pred with
  | Some (c, d) ->
      let source =
        match List.find_opt (fun (_, l) -> l = d) c.users with
        | Some (user, _) -> Some user
        | None -> c.creator
      in
      (match source with
      | Some n -> add_edge b n node.id Storage
      | None -> ())
  | None -> ());
  (match b.firewall with
  | Some fw when src_ready < b.highest_level - 1 ->
      (* the firewall, not a data dependency, held this node down *)
      add_edge b fw node.id Control
  | Some _ | None -> ());
  record_effects b node.id e src_cells level;
  level

(* Conservative system call: placed immediately after the deepest
   computation, and everything afterwards must sit below it. *)
let place_syscall_conservative b trace_index (e : Ddg_sim.Trace.event) =
  let src_cells = List.map (lookup b) e.srcs in
  let level = b.deepest_level + b.config.latency e.op_class in
  let level = max level b.highest_level in
  let node = fresh_node b trace_index e level in
  List.iter
    (fun c ->
      match c.creator with
      | Some creator -> add_edge b creator node.id True_data
      | None -> ())
    src_cells;
  (match b.firewall with
  | Some fw -> add_edge b fw node.id Control
  | None -> ());
  record_effects b node.id e src_cells level;
  b.highest_level <- level + 1;
  b.firewall <- Some node.id;
  level

let feed b trace_index (e : Ddg_sim.Trace.event) =
  window_make_room b;
  match e.op_class with
  | Opclass.Control ->
      (match e.branch with
      | Some { taken } ->
          if
            (not (Branch_pred.predicts_perfectly b.predictor))
            && Branch_pred.mispredicted b.predictor ~pc:e.pc ~taken
          then begin
            let ready =
              List.fold_left
                (fun acc loc -> max acc (lookup b loc).create_level)
                (b.highest_level - 1) e.srcs
            in
            let resolve = ready + 1 in
            if resolve > b.highest_level then b.highest_level <- resolve
          end
      | None -> ());
      window_admit b (b.highest_level - 1) (-1)
  | Opclass.Syscall ->
      if b.config.syscall_stall then
        let level = place_syscall_conservative b trace_index e in
        window_admit b level (b.next_id - 1)
      else window_admit b (b.highest_level - 1) (-1)
  | Opclass.Int_alu | Opclass.Int_multiply | Opclass.Int_divide
  | Opclass.Fp_add_sub | Opclass.Fp_multiply | Opclass.Fp_divide
  | Opclass.Load_store ->
      let level = place b trace_index e in
      window_admit b level (b.next_id - 1)

let build config trace =
  Result.iter_error invalid_arg (Config.validate config);
  let b =
    {
      config;
      table = Table.create 256;
      rev_nodes = [];
      edges = [];
      next_id = 0;
      highest_level = 0;
      deepest_level = -1;
      firewall = None;
      window =
        (match config.Config.window with
        | Some _ -> Some (Queue.create ())
        | None -> None);
      window_capacity =
        (match config.Config.window with Some w -> w | None -> 0);
      resources = Resources.create config.Config.fu;
      predictor = Branch_pred.create config.Config.branch;
    }
  in
  Ddg_sim.Trace.iteri (fun i e -> feed b i e) trace;
  let nodes = Array.of_list (List.rev b.rev_nodes) in
  let edges = List.rev b.edges in
  let incoming = Array.make (Array.length nodes) [] in
  List.iter (fun e -> incoming.(e.to_node) <- e :: incoming.(e.to_node)) edges;
  Array.iteri (fun i es -> incoming.(i) <- List.rev es) incoming;
  {
    nodes;
    edges;
    critical_path = b.deepest_level + 1;
    placed = Array.length nodes;
    incoming;
  }

let nodes (t : t) = t.nodes
let edges (t : t) = t.edges
let critical_path (t : t) = t.critical_path

let ops_per_level (t : t) =
  let profile = Array.make (max 0 t.critical_path) 0 in
  Array.iter (fun n -> profile.(n.level) <- profile.(n.level) + 1) t.nodes;
  profile

let available_parallelism (t : t) =
  if t.critical_path = 0 then 0.0
  else float_of_int t.placed /. float_of_int t.critical_path

let predecessors (t : t) id =
  if id < 0 || id >= Array.length t.incoming then [] else t.incoming.(id)

let default_label n =
  let dest =
    match n.dest with Some d -> Loc.to_string d | None -> "_"
  in
  Printf.sprintf "@%d %s\\n%s" n.pc dest (Opclass.to_string n.op_class)

let to_dot ?(node_label = default_label) (t : t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "digraph ddg {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  Array.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" n.id (node_label n)))
    t.nodes;
  let by_level = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      let existing =
        match Hashtbl.find_opt by_level n.level with
        | Some ns -> ns
        | None -> []
      in
      Hashtbl.replace by_level n.level (n :: existing))
    t.nodes;
  Hashtbl.iter
    (fun _level ns ->
      Buffer.add_string buf "  { rank=same; ";
      List.iter
        (fun n -> Buffer.add_string buf (Printf.sprintf "n%d; " n.id))
        ns;
      Buffer.add_string buf "}\n")
    by_level;
  List.iter
    (fun e ->
      let attrs =
        match e.kind with
        | True_data -> ""
        | Storage -> " [color=gray, arrowhead=dot]"
        | Control -> " [style=dashed]"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d%s;\n" e.from_node e.to_node attrs))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let critical_chain (t : t) =
  if Array.length t.nodes = 0 then []
  else begin
    let deepest =
      Array.fold_left
        (fun best n -> if n.level > best.level then n else best)
        t.nodes.(0) t.nodes
    in
    let rec walk n acc =
      match t.incoming.(n.id) with
      | [] -> List.rev (n :: acc)
      | preds ->
          (* level ties break to the chronologically last predecessor *)
          let best =
            List.fold_left
              (fun best e ->
                let cand = t.nodes.(e.from_node) in
                match best with
                | Some b when b.level > cand.level -> best
                | _ -> Some cand)
              None preds
          in
          (match best with
          | Some b -> walk b (n :: acc)
          | None -> List.rev (n :: acc))
    in
    List.rev (walk deepest [])
  end

let chain_summary t =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let k =
        match Hashtbl.find_opt counts n.op_class with Some k -> k | None -> 0
      in
      Hashtbl.replace counts n.op_class (k + 1))
    (critical_chain t);
  List.filter_map
    (fun cls ->
      match Hashtbl.find_opt counts cls with
      | Some k -> Some (cls, k)
      | None -> None)
    Ddg_isa.Opclass.all

type sharing = {
  processors : int;
  internal_edges : int;
  cross_edges : int;
  per_processor_nodes : int array;
}

let partition_sharing (t : t) ~processors ~scheme =
  if processors < 1 then invalid_arg "Ddg.partition_sharing";
  let n = Array.length t.nodes in
  let owner id =
    match scheme with
    | `Round_robin -> id mod processors
    | `Contiguous ->
        if n = 0 then 0
        else min (processors - 1) (id * processors / n)
  in
  let per_processor_nodes = Array.make processors 0 in
  Array.iter
    (fun node ->
      let p = owner node.id in
      per_processor_nodes.(p) <- per_processor_nodes.(p) + 1)
    t.nodes;
  let internal = ref 0 and cross = ref 0 in
  List.iter
    (fun e ->
      match e.kind with
      | True_data ->
          if owner e.from_node = owner e.to_node then incr internal
          else incr cross
      | Storage | Control -> ())
    t.edges;
  {
    processors;
    internal_edges = !internal;
    cross_edges = !cross;
    per_processor_nodes;
  }
