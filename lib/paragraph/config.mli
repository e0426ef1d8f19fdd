(** Analysis configuration: the paper's Paragraph switches (section 3.2).

    Any combination of switches may be used; {!default} reproduces the
    paper's Table 3 "Conservative" setting (system calls stall, all
    renaming enabled, unbounded window, Table 1 latencies, no resource or
    branch constraints). *)

(** Which storage classes are renamed. A renamed class contributes no
    storage (WAR/WAW) dependencies to the DDG; an un-renamed class forces
    each write to be placed below the last use of the previous value in
    the same location. *)
type renaming = {
  registers : bool;  (** rename integer and floating-point registers *)
  stack : bool;      (** rename stack-segment memory *)
  data : bool;       (** rename non-stack (static + heap) memory *)
}

val rename_all : renaming
val rename_none : renaming
val rename_registers_only : renaming
val rename_registers_stack : renaming

(** Functional-unit limits (the paper's resource dependencies, Figure 4).
    [None] in a field means unlimited. [total] bounds the number of
    operations per DDG level regardless of class; the per-class fields
    bound integer ({!Ddg_isa.Opclass.Int_alu}, multiply, divide),
    floating-point, and memory operations separately. *)
type fu_limits = {
  total : int option;
  int_units : int option;
  fp_units : int option;
  mem_units : int option;
}

val unlimited_fu : fu_limits

(** How conditional branches constrain the DDG. [Perfect] (the paper's
    setting for every experiment) removes all control dependencies.
    The other policies model a fetch stall on a mispredicted branch with a
    firewall at the branch's resolution level — the extension the paper
    sketches in section 3.2 ("the firewall can also be used to represent
    the effect of a mispredicted conditional branch"). *)
type branch_policy =
  | Perfect
  | Predict_taken
  | Predict_not_taken
  | Two_bit of int
      (** a classic 2-bit saturating-counter predictor with [2^n] entries
          indexed by pc; the argument is [n] *)

type t = {
  syscall_stall : bool;
      (** conservative (true): a system call is assumed to modify every
          live value, implemented as a firewall; optimistic (false):
          system calls are ignored entirely *)
  renaming : renaming;
  window : int option;
      (** [Some w]: only [w] contiguous trace instructions are visible at
          once; displaced instructions leave a firewall. [None]: the whole
          trace is visible (no control dependencies). *)
  latency : Ddg_isa.Opclass.t -> int;
      (** operation time in DDG levels; default {!Ddg_isa.Opclass.latency}
          (Table 1) *)
  fu : fu_limits;
  branch : branch_policy;
}

val default : t
(** Conservative syscalls, all renaming, unbounded window, Table 1
    latencies, unlimited resources, perfect branching. *)

val dataflow : t
(** {!default} with optimistic syscalls: the pure dataflow limit (only
    true data dependencies). *)

val with_renaming : renaming -> t -> t
val with_window : int option -> t -> t
val with_syscall_stall : bool -> t -> t
val with_fu : fu_limits -> t -> t
val with_branch : branch_policy -> t -> t

val validate : t -> (unit, string) result
(** [Ok ()] when every switch is in range: a window of at least 1, every
    functional-unit limit at least 1, every operation latency at least 1.
    [Error msg] names the first switch out of range. The analyzers and
    {!Ddg.build} reject such a configuration with [Invalid_argument]; the
    protocol and the CLI check it where a configuration enters. *)

val latency_table : t -> int array
(** The latency function tabulated by operation-class tag
    ({!Ddg_isa.Opclass.to_tag}), for the analyzer's flat-integer hot
    loop. *)

val storage_dependency_table : t -> bool array
(** Indexed by storage-class tag ({!Ddg_isa.Loc.storage_class_tag}):
    true when storage (WAR/WAW) dependencies apply to that class, i.e.
    its renaming switch is off. *)

val describe : t -> string
(** One-line human-readable summary of the switch settings. *)
