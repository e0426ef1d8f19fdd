(* Functional-unit placement against a reference transcription of the
   rule, and the range checks every analysis entry point applies to its
   configuration. *)

open Ddg_paragraph
open Ddg_isa

(* the linear-scan transcription of DESIGN.md §6.0's resource rule *)
module Oracle = Reference.Oracle

let gen_limits =
  let open QCheck.Gen in
  let limit = oneofl [ None; Some 1; Some 2; Some 3 ] in
  let* total = limit and* int_units = limit and* fp_units = limit
  and* mem_units = limit in
  return { Config.total; int_units; fp_units; mem_units }

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 300) (pair (oneofl Opclass.all) (int_range 0 40)))

let prop_place_matches_oracle =
  QCheck.Test.make ~name:"Resources.place equals the linear-scan oracle"
    ~count:500
    (QCheck.make
       QCheck.Gen.(pair gen_limits gen_ops)
       ~print:(fun (limits, ops) ->
         Config.describe { Config.default with fu = limits } ^ "\n"
         ^ String.concat " "
             (List.map
                (fun (cls, ready) ->
                  Printf.sprintf "%s@%d" (Opclass.to_string cls) ready)
                ops)))
    (fun (limits, ops) ->
      let r = Resources.create limits and o = Oracle.create limits in
      Resources.unlimited r = (limits = Config.unlimited_fu)
      && List.for_all
           (fun (cls, ready) ->
             Resources.place r cls ready = Oracle.place o cls ready)
           ops)

(* total = 3 and int = 2: even levels are full in the int pool with room
   under the total, odd levels are full in the total pool with no int op
   at all — the shape of a class limit just below a total limit. *)
let test_alternating_full_levels () =
  let limits =
    { Config.unlimited_fu with total = Some 3; int_units = Some 2 }
  in
  let r = Resources.create limits and o = Oracle.create limits in
  let place what cls ready expected =
    let level = Resources.place r cls ready in
    Alcotest.(check int) (what ^ " (oracle)") (Oracle.place o cls ready) level;
    Alcotest.(check int) what expected level
  in
  let n = 500 in
  for k = 0 to n - 1 do
    place "int fills an even level" Opclass.Int_alu (2 * k) (2 * k);
    place "int fills an even level" Opclass.Int_multiply (2 * k) (2 * k);
    for _ = 1 to 3 do
      place "fp fills an odd level" Opclass.Fp_add_sub ((2 * k) + 1)
        ((2 * k) + 1)
    done
  done;
  place "int skips every int-full and total-full level" Opclass.Int_alu 0
    (2 * n);
  place "fp takes the total's room on an int-full level" Opclass.Fp_multiply 0
    0;
  place "fp skips the now total-full level" Opclass.Fp_divide 0 2;
  place "a second int shares the first free level" Opclass.Int_divide 0
    (2 * n);
  place "a third int moves one level on" Opclass.Int_alu 0 ((2 * n) + 1);
  place "memory draws on the total alone" Opclass.Load_store 0 4;
  place "syscalls draw on the total alone" Opclass.Syscall 1 6

(* --- configuration range checks ------------------------------------------- *)

let with_latency cls k =
  { Config.default with
    latency = (fun c -> if c = cls then k else Opclass.latency c) }

let fu f = Config.(with_fu (f unlimited_fu) default)

(* one configuration per rejected field; the zero-valued ones also fit
   on the wire, which carries no negative numbers *)
let zero_configs =
  [ ("window 0", Config.(with_window (Some 0) default));
    ("total 0", fu (fun l -> { l with total = Some 0 }));
    ("int 0", fu (fun l -> { l with int_units = Some 0 }));
    ("fp 0", fu (fun l -> { l with fp_units = Some 0 }));
    ("mem 0", fu (fun l -> { l with mem_units = Some 0 }));
    ( "int 0 under a total",
      fu (fun l -> { l with total = Some 4; int_units = Some 0 }) );
    ("int alu latency 0", with_latency Opclass.Int_alu 0);
    ("syscall latency 0", with_latency Opclass.Syscall 0) ]

let bad_configs =
  zero_configs
  @ [ ("window -1", Config.(with_window (Some (-1)) default));
      ("total -3", fu (fun l -> { l with total = Some (-3) }));
      ("fp divide latency -1", with_latency Opclass.Fp_divide (-1)) ]

let test_validate_rejects_each_field () =
  Alcotest.(check bool) "default is valid" true
    (Config.validate Config.default = Ok ());
  Alcotest.(check bool) "limits of one are valid" true
    (Config.validate
       Config.(
         with_window (Some 1)
           (with_fu
              { total = Some 1; int_units = Some 1; fp_units = Some 1;
                mem_units = Some 1 }
              default))
    = Ok ());
  List.iter
    (fun (name, config) ->
      match Config.validate config with
      | Ok () -> Alcotest.failf "%s: accepted" name
      | Error _ -> ())
    bad_configs

let expect_invalid name what f =
  match f () with
  | _ -> Alcotest.failf "%s: %s accepted the configuration" name what
  | exception Invalid_argument _ -> ()

let test_entry_points_reject () =
  let _, trace =
    Ddg_workloads.Workload.trace ~max_instructions:2000
      (Option.get (Ddg_workloads.Registry.find "mtxx"))
      Ddg_workloads.Workload.Tiny
  in
  let path = Filename.temp_file "ddg_rejects" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Ddg_sim.Trace_io.write_file_flat path trace;
  List.iter
    (fun (name, config) ->
      expect_invalid name "Analyzer.analyze_stream" (fun () ->
          ignore (Analyzer.analyze_stream config path));
      expect_invalid name "Two_pass.analyze" (fun () ->
          ignore (Two_pass.analyze config trace));
      expect_invalid name "Analyzer.analyze" (fun () ->
          ignore (Analyzer.analyze config trace));
      expect_invalid name "Analyzer.analyze_many" (fun () ->
          ignore (Analyzer.analyze_many [ Config.default; config ] trace));
      expect_invalid name "Ddg.build" (fun () ->
          ignore (Ddg.build config trace)))
    bad_configs;
  expect_invalid "total 0" "Resources.create" (fun () ->
      ignore (Resources.create { Config.unlimited_fu with total = Some 0 }))

let tests =
  [ Alcotest.test_case "alternating int-full and total-full levels" `Quick
      test_alternating_full_levels;
    Alcotest.test_case "validate rejects each out-of-range field" `Quick
      test_validate_rejects_each_field;
    Alcotest.test_case "analysis entry points reject bad configs" `Quick
      test_entry_points_reject ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_place_matches_oracle ]
