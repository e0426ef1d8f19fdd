(** Explicit dynamic dependency graphs for small traces.

    The streaming {!Analyzer} never materialises the graph — that is what
    makes it scale to arbitrarily long traces. For worked examples,
    visualisation and tests, this module builds the DDG explicitly: every
    placed operation becomes a node, and every dependency that constrained
    its placement becomes a typed edge (true-data, storage, or control).

    Every level comes from the {!Analyzer} kernel, fed one row at a time;
    this module only names the edges, from the node that created each
    held value and the nodes that used it. Memory grows with trace
    length, so use this only for traces of up to ~10^5 events. *)

type edge_kind =
  | True_data  (** RAW: the value created at the edge's head is consumed *)
  | Storage    (** WAR/WAW: location reuse when renaming is disabled *)
  | Control
      (** firewall: [highestLevel], not a source, held the node down.
          The edge starts at the firewall node, the node whose level
          last raised [highestLevel]: a conservative system call, a node
          displaced from the instruction window, or the latest-created
          source of a mispredicted branch. A node gets one when none of
          its sources' creators sits at [highestLevel - 1] or deeper. A
          conservative system call's edge starts instead at the latest
          node placed at the deepest level yet used, which it waits
          for. *)

type node = {
  id : int;              (** dense node index, in trace order *)
  trace_index : int;     (** position of the event in the input trace *)
  pc : int;
  op_class : Ddg_isa.Opclass.t;
  dest : Ddg_isa.Loc.t option;
  level : int;           (** completion level (0-based) *)
}

type edge = { from_node : int; to_node : int; kind : edge_kind }
(** [to_node] depends on [from_node]. *)

type t

val build : Config.t -> Ddg_sim.Trace.t -> t
(** @raise Invalid_argument when {!Config.validate} rejects the
    configuration. *)

val nodes : t -> node array
val edges : t -> edge list
val critical_path : t -> int
(** Number of levels = deepest completion level + 1. *)

val ops_per_level : t -> int array
(** The (exact, unbucketed) parallelism profile: index = level. *)

val available_parallelism : t -> float

val predecessors : t -> int -> edge list
(** Edges into a node. *)

val critical_chain : t -> node list
(** One maximal dependence chain ending at a deepest node, root first:
    from a node at the maximum level, repeatedly step to the predecessor
    that bound it — a storage predecessor one level below the node, else
    the true-data or control predecessor at the highest level. Useful
    for diagnosing {e what} limits the parallelism of a trace (loop
    counters? accumulators? storage reuse?). *)

val chain_summary : t -> (Ddg_isa.Opclass.t * int) list
(** Operation-class histogram of {!critical_chain}. *)

(** Cross-processor data sharing for a partitioned execution (paper
    section 2.3: "by measuring how much data flows from the nodes in one
    subgraph to another ... we can measure the degree of data sharing
    amongst the processors"). *)
type sharing = {
  processors : int;
  internal_edges : int;   (** true-data edges within one partition *)
  cross_edges : int;      (** true-data edges between partitions *)
  per_processor_nodes : int array;
}

val partition_sharing :
  t -> processors:int -> scheme:[ `Contiguous | `Round_robin ] -> sharing
(** Assign nodes to [processors] either in contiguous trace-order blocks
    or round-robin, and count how many true-data edges cross partitions.
    Storage and control edges are excluded — they are artefacts of the
    serial machine, not data flow. @raise Invalid_argument if
    [processors < 1]. *)

val to_dot : ?node_label:(node -> string) -> t -> string
(** Graphviz rendering: true-data edges solid, storage edges with the
    paper's "gray bubble" (gray, dot arrowhead), control edges dashed;
    nodes ranked by DDG level. *)
