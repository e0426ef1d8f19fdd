(** The paper's two-pass trace processing mode (section 3.2, dead-value
    method 1).

    "Process the trace in two passes, first in the reverse direction and
    then in the forward direction. If the instructions are processed in
    reverse, the first occurrence of a value is its last use, and value
    lifetime information can be easily inserted into the trace for use on
    a second, forward pass through the trace."

    The reverse pass marks, for every event, which of its location
    references (sources and destination) are the {e final} reference to
    that location in the whole trace. The forward pass is the ordinary
    analysis — the {!Analyzer} kernel, fed one row at a time — except
    that after each row it evicts ({!Analyzer.evict}) the locations the
    row referenced for the last time, so its working set tracks the
    number of locations with future references rather than every
    location ever touched (the paper's single-forward-pass mode needed
    32 MBytes for exactly this reason).

    Results are identical to {!Analyzer.analyze} except for the
    [live_locations] field, which is 0 here (everything has been
    evicted); the {e peak} live-well occupancy is returned beside the
    stats. The suite checks the equivalence by canonical bytes. *)

(** Per-event finality annotations from the reverse pass. *)
type annotations

val annotate : Ddg_sim.Trace.t -> annotations
(** The reverse pass. O(trace) time; O(distinct locations) space. *)

val final_dest : annotations -> int -> bool
(** Is event [i]'s destination its location's final reference? *)

val final_src : annotations -> int -> int -> bool
(** Is event [i]'s [j]-th source operand its location's final reference?
    (When the same location appears both as a source and the destination
    of event [i], the destination carries the flag.) *)

val analyze :
  Config.t -> Ddg_sim.Trace.t -> Analyzer.stats * int
(** Both passes; returns the statistics (with [live_locations] = final
    occupancy, which is 0 — everything has been evicted) and the peak
    live-well occupancy. *)
