(* Unit tests for the functional simulator: arithmetic semantics, memory,
   control flow, calls, syscalls, faults and trace-event contents. *)

open Ddg_sim

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let run ?input ?max_instructions src =
  Machine.run ?input ?max_instructions (Ddg_asm.Assembler.assemble_string src)

let run_traced ?input src =
  Machine.run_to_trace ?input (Ddg_asm.Assembler.assemble_string src)

let output ?input src = (run ?input src).output

let expect_halt r =
  match r.Machine.stop with
  | Machine.Halted -> ()
  | s -> Alcotest.failf "expected halt, got %a" Machine.pp_stop_reason s

(* --- Arithmetic -------------------------------------------------------- *)

let test_arith () =
  let r = run {|
main:   li   t0, 21
        add  t1, t0, t0
        li   v0, 1
        move a0, t1
        syscall
        halt
|} in
  expect_halt r;
  check_str "21+21" "42" r.output

let test_arith_ops () =
  check_str "sub" "-7"
    (output "main: li t0, 5\n sub t1, t0, 12\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "mul" "60"
    (output "main: li t0, 5\n mul t1, t0, 12\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "div" "4"
    (output "main: li t0, 57\n div t1, t0, 12\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "rem" "9"
    (output "main: li t0, 57\n rem t1, t0, 12\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "and" "8"
    (output "main: li t0, 12\n and t1, t0, 10\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "or" "14"
    (output "main: li t0, 12\n or t1, t0, 10\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "xor" "6"
    (output "main: li t0, 12\n xor t1, t0, 10\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "sll" "48"
    (output "main: li t0, 12\n sll t1, t0, 2\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "sra" "-2"
    (output "main: li t0, -8\n sra t1, t0, 2\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "slt" "1"
    (output "main: li t0, -8\n slt t1, t0, 0\n li v0, 1\n move a0, t1\n syscall\n halt")

let test_float_arith () =
  check_str "fp pipeline" "10.25"
    (output
       {|
main:   fli  f1, 2.5
        fli  f2, 1.5
        fadd f3, f1, f2     # 4.0
        fmul f4, f3, f1     # 10.0
        fli  f5, 0.25
        fadd f12, f4, f5    # 10.25
        li   v0, 2
        syscall
        halt
|})

let test_cvt () =
  check_str "i2f/f2i roundtrip" "7"
    (output
       {|
main:   li t0, 7
        cvt.i2f f1, t0
        cvt.f2i a0, f1
        li v0, 1
        syscall
        halt
|})

let test_fcmp () =
  check_str "fcmp lt" "1"
    (output
       {|
main:   fli f1, 1.0
        fli f2, 2.0
        fcmp.lt a0, f1, f2
        li v0, 1
        syscall
        halt
|})

(* --- Memory ------------------------------------------------------------ *)

let test_memory () =
  check_str "store/load" "99"
    (output
       {|
        .data
cell:   .word 0
        .text
main:   li t0, 99
        sw t0, cell
        lw a0, cell
        li v0, 1
        syscall
        halt
|})

let test_static_data () =
  check_str "initialised data" "123"
    (output
       {|
        .data
A:      .word 100 20 3
        .text
main:   lw t0, A
        la t3, A
        lw t1, 4(t3)
        lw t2, 8(t3)
        add a0, t0, t1
        add a0, a0, t2
        li v0, 1
        syscall
        halt
|})

let test_float_memory () =
  check_str "float data" "4.75"
    (output
       {|
        .data
X:      .float 1.25 3.5
        .text
main:   flw f1, X
        la  t0, X
        flw f2, 4(t0)
        fadd f12, f1, f2
        li v0, 2
        syscall
        halt
|})

let test_stack () =
  check_str "stack push/pop" "5"
    (output
       {|
main:   addi sp, sp, -8
        li t0, 5
        sw t0, 0(sp)
        lw a0, 0(sp)
        addi sp, sp, 8
        li v0, 1
        syscall
        halt
|})

(* --- Control flow ------------------------------------------------------ *)

let test_loop () =
  (* sum 1..10 = 55 *)
  check_str "loop sum" "55"
    (output
       {|
main:   li t0, 0          # sum
        li t1, 1          # i
        li t2, 10
loop:   add t0, t0, t1
        addi t1, t1, 1
        ble t1, t2, loop
done:   move a0, t0
        li v0, 1
        syscall
        halt
|})

let test_call () =
  check_str "function call" "30"
    (output
       {|
main:   li a0, 10
        li a1, 20
        jal addfn
        move a0, v0
        li v0, 1
        syscall
        halt
addfn:  add v0, a0, a1
        jr ra
|})

let test_recursion () =
  (* factorial 6 via the stack = 720 *)
  check_str "recursion" "720"
    (output
       {|
main:   li a0, 6
        jal fact
        move a0, v0
        li v0, 1
        syscall
        halt
fact:   bgtz a0, rec
        li v0, 1
        jr ra
rec:    addi sp, sp, -8
        sw ra, 0(sp)
        sw a0, 4(sp)
        addi a0, a0, -1
        jal fact
        lw a0, 4(sp)
        lw ra, 0(sp)
        addi sp, sp, 8
        mul v0, v0, a0
        jr ra
|})

(* --- Syscalls ----------------------------------------------------------- *)

let test_read_int () =
  check_str "read input" "12"
    (output ~input:[ Value.Int 7; Value.Int 5 ]
       {|
main:   li v0, 5
        syscall
        move t0, v0
        li v0, 5
        syscall
        add a0, t0, v0
        li v0, 1
        syscall
        halt
|})

let test_print_char () =
  check_str "print chars" "hi\n"
    (output
       {|
main:   li v0, 3
        li a0, 104
        syscall
        li a0, 105
        syscall
        li a0, 10
        syscall
        halt
|})

let test_sbrk () =
  let r = run {|
main:   li v0, 9
        li a0, 8
        syscall
        move t0, v0      # first block
        li v0, 9
        li a0, 8
        syscall
        sub a0, v0, t0   # distance = 8
        li v0, 1
        syscall
        halt
|} in
  expect_halt r;
  check_str "sbrk bump" "8" r.output

let test_exit_syscall () =
  let r = run "main: li v0, 10\n syscall\n nop\n" in
  expect_halt r;
  check_int "stops at exit" 2 r.instructions

let test_more_ops () =
  check_str "nor" "-15"
    (output "main: li t0, 12\n li t1, 2\n nor t2, t0, t1\n li v0, 1\n move a0, t2\n syscall\n halt");
  check_str "srl of negative is logical" "1073741822"
    (output
       "main: li t0, -8\n srl t1, t0, 2\n li v0, 1\n move a0, t1\n syscall\n halt");
  check_str "not pseudo" "-13"
    (output "main: li t0, 12\n not t1, t0\n li v0, 1\n move a0, t1\n syscall\n halt")

let test_jalr () =
  check_str "indirect call" "9"
    (output
       {|
main:   la t0, fn
        li a0, 4
        jalr t0
        move a0, v0
        li v0, 1
        syscall
        halt
fn:     addi v0, a0, 5
        jr ra
|})

let test_fneg_fsub () =
  check_str "fneg" "-2.5"
    (output
       "main: fli f1, 2.5\n fneg f12, f1\n li v0, 2\n syscall\n halt");
  check_str "fsub" "1.25"
    (output
       "main: fli f1, 3.75\n fli f2, 2.5\n fsub f12, f1, f2\n li v0, 2\n syscall\n halt")

let test_write_to_zero_discarded () =
  check_str "r0 stays zero" "0"
    (output
       "main: li zero, 42\n move a0, zero\n li v0, 1\n syscall\n halt")

let test_bad_jump_target () =
  match (run "main: li t0, 99999\n jr t0\n halt").stop with
  | Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

(* --- Faults and limits --------------------------------------------------- *)

let test_div_by_zero () =
  match (run "main: li t0, 1\n li t1, 0\n div t2, t0, t1\n halt").stop with
  | Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_unaligned () =
  match (run "main: li t0, 3\n lw t1, 0(t0)\n halt").stop with
  | Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

let test_instruction_limit () =
  let r = run ~max_instructions:10 "main: j main\n" in
  (match r.stop with
  | Machine.Instruction_limit -> ()
  | s -> Alcotest.failf "expected limit, got %a" Machine.pp_stop_reason s);
  check_int "executed" 10 r.instructions

let test_fall_off_end_faults () =
  match (run "main: nop\n").stop with
  | Machine.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault"

(* --- Trace events -------------------------------------------------------- *)

let test_trace_events () =
  let _, trace = run_traced {|
        .data
A:      .word 5
        .text
main:   lw t0, A
        addi t1, t0, 1
        sw t1, A
        beqz t1, main
        halt
|} in
  check_int "five events" 5 (Trace.length trace);
  let e0 = Trace.get trace 0 in
  (* lw t0, A : reads Mem A (base is zero reg, so no reg source) *)
  (match e0.srcs with
  | [ Ddg_isa.Loc.Mem a ] -> check_int "load addr" Ddg_isa.Segment.data_base a
  | _ -> Alcotest.fail "load srcs");
  (match e0.dest with
  | Some (Ddg_isa.Loc.Reg 8) -> ()
  | _ -> Alcotest.fail "load dest");
  let e2 = Trace.get trace 2 in
  (* sw t1, A : dest is the memory word, srcs are t1 *)
  (match e2.dest with
  | Some (Ddg_isa.Loc.Mem a) -> check_int "store addr" Ddg_isa.Segment.data_base a
  | _ -> Alcotest.fail "store dest");
  let e3 = Trace.get trace 3 in
  Alcotest.(check bool) "branch has outcome" true (e3.branch <> None);
  Alcotest.(check bool) "branch not taken" false
    (match e3.branch with Some { taken } -> taken | None -> true);
  Alcotest.(check bool) "branch creates no value" false
    (Trace.creates_value e3)

let test_trace_counts () =
  let r, trace = run_traced {|
main:   li t0, 3
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
|} in
  check_int "trace length = executed" r.instructions (Trace.length trace);
  check_int "value creators" 4
    (Trace.count Trace.creates_value trace) (* li + 3x addi *)

(* --- trace file I/O -------------------------------------------------------- *)

let test_trace_io_roundtrip () =
  let _, trace = run_traced {|
        .data
A:      .word 5
        .text
main:   lw t0, A
        fli f1, 2.5
        fadd f2, f1, f1
        addi t1, t0, 1
        sw t1, A
        beqz t1, main
        li v0, 1
        move a0, t1
        syscall
        halt
|} in
  let path = Filename.temp_file "ddg_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.write_file path trace;
      let back = Trace_io.read_file path in
      check_int "same length" (Trace.length trace) (Trace.length back);
      Trace.iteri
        (fun i e ->
          let e' = Trace.get back i in
          Alcotest.(check bool)
            (Printf.sprintf "event %d equal" i)
            true
            (e.Trace.pc = e'.Trace.pc
            && e.op_class = e'.op_class
            && e.dest = e'.dest && e.srcs = e'.srcs && e.branch = e'.branch))
        trace)

let test_trace_io_corrupt () =
  let path = Filename.temp_file "ddg_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE";
      close_out oc;
      match Trace_io.read_file path with
      | exception Trace_io.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt")

let test_trace_io_truncated () =
  let _, trace = run_traced "main: li t0, 1\n halt" in
  let path = Filename.temp_file "ddg_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.write_file path trace;
      (* chop off the terminator *)
      let contents =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic (n - 1) in
        close_in ic;
        s
      in
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      match Trace_io.read_file path with
      | exception Trace_io.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected Corrupt")

let test_determinism () =
  let src = {|
main:   li t0, 1000
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
|} in
  let r1 = run src and r2 = run src in
  check_int "same count" r1.instructions r2.instructions;
  check_str "same output" r1.output r2.output

let tests =
  [ Alcotest.test_case "arith basic" `Quick test_arith;
    Alcotest.test_case "arith ops" `Quick test_arith_ops;
    Alcotest.test_case "float arith" `Quick test_float_arith;
    Alcotest.test_case "conversions" `Quick test_cvt;
    Alcotest.test_case "fcmp" `Quick test_fcmp;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "static data" `Quick test_static_data;
    Alcotest.test_case "float memory" `Quick test_float_memory;
    Alcotest.test_case "stack" `Quick test_stack;
    Alcotest.test_case "loop" `Quick test_loop;
    Alcotest.test_case "call" `Quick test_call;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "read int" `Quick test_read_int;
    Alcotest.test_case "print char" `Quick test_print_char;
    Alcotest.test_case "sbrk" `Quick test_sbrk;
    Alcotest.test_case "exit syscall" `Quick test_exit_syscall;
    Alcotest.test_case "more ops" `Quick test_more_ops;
    Alcotest.test_case "jalr" `Quick test_jalr;
    Alcotest.test_case "fneg/fsub" `Quick test_fneg_fsub;
    Alcotest.test_case "write to zero discarded" `Quick
      test_write_to_zero_discarded;
    Alcotest.test_case "bad jump target" `Quick test_bad_jump_target;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "unaligned" `Quick test_unaligned;
    Alcotest.test_case "instruction limit" `Quick test_instruction_limit;
    Alcotest.test_case "fall off end" `Quick test_fall_off_end_faults;
    Alcotest.test_case "trace events" `Quick test_trace_events;
    Alcotest.test_case "trace counts" `Quick test_trace_counts;
    Alcotest.test_case "trace io roundtrip" `Quick test_trace_io_roundtrip;
    Alcotest.test_case "trace io corrupt" `Quick test_trace_io_corrupt;
    Alcotest.test_case "trace io truncated" `Quick test_trace_io_truncated;
    Alcotest.test_case "determinism" `Quick test_determinism ]
