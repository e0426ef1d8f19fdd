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

(* The kernel places every row and this builder names the edges. Per
   location id it keeps the node that created the held value and the
   latest node that used that value at its deepest level; besides those,
   the node each row placed, the latest node at the deepest level, and
   the firewall node ([-1]: none). highestLevel only ever rises to one
   past a node's level, so the firewall node always sits at
   highestLevel - 1, and a node raises highestLevel exactly when it is
   deeper than the firewall node. *)
let build config trace =
  let cols = Ddg_sim.Trace.columns trace in
  let num_locs = Ddg_sim.Trace.num_locs trace
  and classes = Ddg_sim.Trace.storage_classes trace
  and extra = Ddg_sim.Trace.extra_srcs trace in
  let k = Analyzer.create config ~num_locs ~classes in
  let storage_dep = Config.storage_dependency_table config in
  let creator = Array.make num_locs (-1)
  and deepest_user = Array.make num_locs (-1)
  and node_of_row = Array.make cols.n (-1)
  and levels = Array.make cols.n 0 in
  let rev_nodes = ref [] and edges = ref [] and next_id = ref 0 in
  let firewall = ref (-1) and deepest = ref (-1) in
  let add_edge from_node to_node kind =
    if from_node >= 0 then edges := { from_node; to_node; kind } :: !edges
  in
  let raise_firewall x =
    if x >= 0 && (!firewall < 0 || levels.(x) > levels.(!firewall)) then
      firewall := x
  in
  for i = 0 to cols.n - 1 do
    let flags = Char.code cols.flags.{i} in
    let tag = flags land Ddg_sim.Trace.flags_class_mask in
    let srcs =
      List.filter (fun id -> id >= 0)
        [ cols.src0.{i}; cols.src1.{i}; cols.src2.{i} ]
      @
      if flags land Ddg_sim.Trace.flags_extra <> 0 then
        Array.to_list (extra i)
      else []
    in
    let mispredicts = Analyzer.mispredicts k in
    Analyzer.feed k cols ~extra ~lo:i ~hi:(i + 1);
    (match config.Config.window with
    | Some w when i >= w -> raise_firewall node_of_row.(i - w)
    | _ -> ());
    if tag = Opclass.control_tag then begin
      (* a mispredicted branch resolves one past its latest-created
         source *)
      if Analyzer.mispredicts k > mispredicts then
        raise_firewall
          (List.fold_left
             (fun latest s ->
               let c = creator.(s) in
               if c >= 0 && (latest < 0 || levels.(c) > levels.(latest))
               then c
               else latest)
             (-1) srcs)
    end
    else if tag <> Opclass.syscall_tag || config.Config.syscall_stall then begin
      let id = !next_id and level = Analyzer.level k in
      incr next_id;
      levels.(id) <- level;
      node_of_row.(i) <- id;
      let d = cols.dsts.{i} in
      rev_nodes :=
        { id; trace_index = i; pc = cols.pcs.{i};
          op_class = Opclass.of_tag tag;
          dest =
            (if d >= 0 then Some (Ddg_sim.Trace.loc_of_id trace d) else None);
          level }
        :: !rev_nodes;
      List.iter (fun s -> add_edge creator.(s) id True_data) srcs;
      if tag = Opclass.syscall_tag then begin
        (* placed just past the deepest node so far, and the new
           firewall *)
        add_edge !deepest id Control;
        firewall := id
      end
      else begin
        if d >= 0 && storage_dep.(Char.code (Bytes.get classes d)) then
          add_edge
            (if deepest_user.(d) >= 0 then deepest_user.(d) else creator.(d))
            id Storage;
        (* the firewall held the node when no source's creator sits at
           highestLevel - 1 or deeper; a pre-existing source sits there
           only because the firewall does *)
        let firewall_level = Analyzer.highest_level k - 1 in
        if
          List.for_all
            (fun s -> creator.(s) < 0 || levels.(creator.(s)) < firewall_level)
            srcs
        then add_edge !firewall id Control
      end;
      List.iter
        (fun s ->
          let u = deepest_user.(s) in
          if u < 0 || levels.(u) <= level then deepest_user.(s) <- id)
        srcs;
      if d >= 0 then begin
        creator.(d) <- id;
        deepest_user.(d) <- -1
      end;
      if !deepest < 0 || levels.(!deepest) <= level then deepest := id
    end
  done;
  let nodes = Array.of_list (List.rev !rev_nodes) in
  let edges = List.rev !edges in
  let incoming = Array.make (Array.length nodes) [] in
  List.iter (fun e -> incoming.(e.to_node) <- e :: incoming.(e.to_node)) edges;
  Array.iteri (fun i es -> incoming.(i) <- List.rev es) incoming;
  {
    nodes;
    edges;
    critical_path = (Analyzer.finish k).critical_path;
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
      let preds = t.incoming.(n.id) in
      (* a storage predecessor bound the node only from one level below
         it; otherwise the highest true-data or control predecessor did,
         level ties breaking to the chronologically last *)
      let binding_storage e =
        e.kind = Storage && t.nodes.(e.from_node).level = n.level - 1
      in
      let best =
        match List.find_opt binding_storage preds with
        | Some e -> Some t.nodes.(e.from_node)
        | None ->
            List.fold_left
              (fun best e ->
                let cand = t.nodes.(e.from_node) in
                match best with
                | Some b when b.level > cand.level -> best
                | _ -> Some cand)
              None
              (List.filter (fun e -> e.kind <> Storage) preds)
      in
      match best with
      | Some b -> walk b (n :: acc)
      | None -> List.rev (n :: acc)
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
