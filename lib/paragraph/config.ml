type renaming = { registers : bool; stack : bool; data : bool }

let rename_all = { registers = true; stack = true; data = true }
let rename_none = { registers = false; stack = false; data = false }
let rename_registers_only = { registers = true; stack = false; data = false }
let rename_registers_stack = { registers = true; stack = true; data = false }

type fu_limits = {
  total : int option;
  int_units : int option;
  fp_units : int option;
  mem_units : int option;
}

let unlimited_fu =
  { total = None; int_units = None; fp_units = None; mem_units = None }

type branch_policy = Perfect | Predict_taken | Predict_not_taken | Two_bit of int

type t = {
  syscall_stall : bool;
  renaming : renaming;
  window : int option;
  latency : Ddg_isa.Opclass.t -> int;
  fu : fu_limits;
  branch : branch_policy;
}

let default =
  {
    syscall_stall = true;
    renaming = rename_all;
    window = None;
    latency = Ddg_isa.Opclass.latency;
    fu = unlimited_fu;
    branch = Perfect;
  }

let dataflow = { default with syscall_stall = false }

let with_renaming renaming t = { t with renaming }
let with_window window t = { t with window }
let with_syscall_stall syscall_stall t = { t with syscall_stall }
let with_fu fu t = { t with fu }
let with_branch branch t = { t with branch }

let validate t =
  let limit what = function
    | Some k when k < 1 -> [ Printf.sprintf "%s must be >= 1 (got %d)" what k ]
    | Some _ | None -> []
  in
  let latency cls =
    let k = t.latency cls in
    if k >= 1 then []
    else
      [ Printf.sprintf "%s latency must be >= 1 (got %d)"
          (Ddg_isa.Opclass.to_string cls) k ]
  in
  match
    limit "window" t.window
    @ limit "total FU limit" t.fu.total
    @ limit "int FU limit" t.fu.int_units
    @ limit "fp FU limit" t.fu.fp_units
    @ limit "mem FU limit" t.fu.mem_units
    @ List.concat_map latency Ddg_isa.Opclass.all
  with
  | [] -> Ok ()
  | problem :: _ -> Error problem

let latency_table t =
  Array.init Ddg_isa.Opclass.count (fun tag ->
      t.latency (Ddg_isa.Opclass.of_tag tag))

let storage_dependency_table t =
  let { registers; stack; data } = t.renaming in
  let a = Array.make 3 false in
  a.(Ddg_isa.Loc.storage_class_tag Ddg_isa.Loc.Register) <- not registers;
  a.(Ddg_isa.Loc.storage_class_tag Ddg_isa.Loc.Stack_memory) <- not stack;
  a.(Ddg_isa.Loc.storage_class_tag Ddg_isa.Loc.Data_memory) <- not data;
  a

let describe t =
  let renaming =
    match t.renaming with
    | { registers = true; stack = true; data = true } -> "rename all"
    | { registers = true; stack = true; data = false } -> "rename regs+stack"
    | { registers = true; stack = false; data = false } -> "rename regs"
    | { registers = false; stack = false; data = false } -> "no renaming"
    | { registers = r; stack = s; data = d } ->
        Printf.sprintf "rename{regs=%b;stack=%b;data=%b}" r s d
  in
  let window =
    match t.window with
    | None -> "window=inf"
    | Some w -> Printf.sprintf "window=%d" w
  in
  let fu =
    match t.fu with
    | { total = None; int_units = None; fp_units = None; mem_units = None } ->
        "fu=inf"
    | { total; int_units; fp_units; mem_units } ->
        let f name = function
          | None -> ""
          | Some k -> Printf.sprintf "%s=%d " name k
        in
        "fu{" ^ f "total" total ^ f "int" int_units ^ f "fp" fp_units
        ^ f "mem" mem_units ^ "}"
  in
  let branch =
    match t.branch with
    | Perfect -> "branch=perfect"
    | Predict_taken -> "branch=taken"
    | Predict_not_taken -> "branch=not-taken"
    | Two_bit n -> Printf.sprintf "branch=2bit(%d)" n
  in
  Printf.sprintf "%s syscalls, %s, %s, %s, %s"
    (if t.syscall_stall then "conservative" else "optimistic")
    renaming window fu branch
