(** Explicit dynamic dependency graphs for small traces.

    The streaming {!Analyzer} never materialises the graph — that is what
    makes it scale to arbitrarily long traces. For worked examples,
    visualisation and tests, this module builds the DDG explicitly: every
    placed operation becomes a node, and every dependency that constrained
    its placement becomes a typed edge (true-data, storage, or control).

    Placement semantics are identical to {!Analyzer} — a property test in
    the suite checks that both compute the same critical path and profile
    on arbitrary traces — but memory grows with trace length, so use this
    only for traces of up to ~10^5 events. *)

type edge_kind =
  | True_data  (** RAW: the value created at the edge's head is consumed *)
  | Storage    (** WAR/WAW: location reuse when renaming is disabled *)
  | Control    (** firewall: system call or mispredicted branch *)

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
(** One maximal dependence chain ending at a deepest node, deepest first:
    from a node at the maximum level, repeatedly step to the predecessor
    at the highest level. Useful for diagnosing {e what} limits the
    parallelism of a trace (loop counters? accumulators? storage reuse?). *)

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
