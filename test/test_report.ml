(* Tests for the reporting library: table layout, number formatting, CSV
   escaping, chart rendering edge cases. *)

let check_str = Alcotest.(check string)

open Ddg_report

let test_int_cell () =
  check_str "small" "7" (Table.int_cell 7);
  check_str "thousands" "1,234" (Table.int_cell 1234);
  check_str "millions" "28,696,843,509" (Table.int_cell 28_696_843_509);
  check_str "negative" "-1,234" (Table.int_cell (-1234));
  check_str "zero" "0" (Table.int_cell 0)

let test_float_cell () =
  check_str "paper value" "23,302.60" (Table.float_cell 23302.6);
  check_str "small" "13.28" (Table.float_cell 13.28);
  check_str "decimals" "0.316" (Table.float_cell ~decimals:3 0.3164)

let test_table_render () =
  let out =
    Table.render
      ~headers:[ ("Name", Table.Left); ("Value", Table.Right) ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "four lines + trailing" 5 (List.length lines);
  check_str "header" "Name  Value" (List.nth lines 0);
  check_str "rule" "----  -----" (List.nth lines 1);
  check_str "row aligns right" "a         1" (List.nth lines 2)

let test_table_pads_short_rows () =
  let out =
    Table.render
      ~headers:[ ("A", Table.Left); ("B", Table.Left) ]
      [ [ "x" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table_rejects_long_rows () =
  match
    Table.render ~headers:[ ("A", Table.Left) ] [ [ "x"; "y" ] ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_csv_escaping () =
  check_str "plain" "a,b\n1,2\n"
    (Csv.to_string ~header:[ "a"; "b" ] [ [ "1"; "2" ] ]);
  check_str "comma quoted" "h\n\"a,b\"\n"
    (Csv.to_string ~header:[ "h" ] [ [ "a,b" ] ]);
  check_str "quote doubled" "h\n\"a\"\"b\"\n"
    (Csv.to_string ~header:[ "h" ] [ [ "a\"b" ] ])

let test_column_chart () =
  let chart =
    Chart.column_chart ~width:10 ~height:4
      [ (0.0, 1.0); (5.0, 4.0); (9.0, 2.0) ]
  in
  Alcotest.(check bool) "has bars" true (String.contains chart '#');
  Alcotest.(check bool) "has axis" true (String.contains chart '+');
  check_str "empty" "(empty profile)\n" (Chart.column_chart [])

let test_column_chart_log () =
  let chart =
    Chart.column_chart ~width:10 ~height:4 ~log_y:true
      [ (0.0, 1.0); (5.0, 10000.0) ]
  in
  Alcotest.(check bool) "log renders" true (String.contains chart '#')

let test_scatter () =
  let chart =
    Chart.log_log_scatter
      [ ("a", 'a', [ (1.0, 10.0); (100.0, 50.0) ]);
        ("b", 'b', [ (10.0, 5.0) ]) ]
  in
  Alcotest.(check bool) "has a" true (String.contains chart 'a');
  Alcotest.(check bool) "has b" true (String.contains chart 'b');
  Alcotest.(check bool) "has legend" true
    (String.length chart > 0
    &&
    let rec find i =
      i + 6 <= String.length chart
      && (String.sub chart i 6 = "legend" || find (i + 1))
    in
    find 0);
  check_str "empty" "(no points)\n" (Chart.log_log_scatter [])

let test_scatter_drops_nonpositive () =
  let chart =
    Chart.log_log_scatter [ ("a", 'a', [ (0.0, 5.0); (10.0, 10.0) ]) ]
  in
  Alcotest.(check bool) "renders" true (String.contains chart 'a')

let test_sparkline () =
  check_str "empty" "" (Chart.sparkline []);
  let s = Chart.sparkline [ 0.0; 1.0; 8.0 ] in
  Alcotest.(check int) "one char per value" 3 (String.length s);
  Alcotest.(check bool) "max is #" true (s.[2] = '#')

let test_json () =
  let open Json in
  check_str "minified"
    {|{"a":1,"b":[true,null,"x\"y"],"c":1.5}|}
    (to_string ~minify:true
       (Obj
          [ ("a", Int 1);
            ("b", List [ Bool true; Null; String "x\"y" ]);
            ("c", Float 1.5) ]));
  check_str "whole float keeps .0" "2.0" (to_string ~minify:true (Float 2.0));
  check_str "nan is null" "null" (to_string ~minify:true (Float Float.nan));
  check_str "empty obj" "{}" (to_string ~minify:true (Obj []));
  check_str "newline escaped" {|"a\nb"|}
    (to_string ~minify:true (String "a\nb"));
  (* pretty output parses back structurally: cheap sanity *)
  let pretty = to_string (Obj [ ("k", List [ Int 1; Int 2 ]) ]) in
  Alcotest.(check bool) "pretty has newlines" true
    (String.contains pretty '\n');
  (* a repeated key, even nested, is refused rather than emitted *)
  List.iter
    (fun (what, v) ->
      match to_string v with
      | s -> Alcotest.failf "%s: emitted %s" what s
      | exception Invalid_argument _ -> ())
    [ ("top level", Obj [ ("a", Int 1); ("b", Int 2); ("a", Int 3) ]);
      ("nested", List [ Obj [ ("k", Obj [ ("x", Null); ("x", Null) ]) ] ]) ]

let tests =
  [ Alcotest.test_case "int cells" `Quick test_int_cell;
    Alcotest.test_case "float cells" `Quick test_float_cell;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick
      test_table_pads_short_rows;
    Alcotest.test_case "table rejects long rows" `Quick
      test_table_rejects_long_rows;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "column chart" `Quick test_column_chart;
    Alcotest.test_case "column chart log" `Quick test_column_chart_log;
    Alcotest.test_case "scatter" `Quick test_scatter;
    Alcotest.test_case "scatter drops nonpositive" `Quick
      test_scatter_drops_nonpositive;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "json" `Quick test_json ]
