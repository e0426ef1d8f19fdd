type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* nan/infinity are handled by the caller *)
let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.12g" x

(* a repeated key is a bug in the caller: JSON readers silently keep
   one of the values *)
let check_keys fields =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (key, _) ->
      if Hashtbl.mem seen key then
        invalid_arg (Printf.sprintf "Json.to_string: duplicate key %S" key);
      Hashtbl.add seen key ())
    fields

let to_string ?(minify = false) t =
  let buf = Buffer.create 256 in
  let newline indent =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ')
    end
  in
  let rec emit indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float x ->
        if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity
        then Buffer.add_string buf "null"
        else Buffer.add_string buf (float_repr x)
    | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            emit (indent + 2) item)
          items;
        newline indent;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        check_keys fields;
        Buffer.add_char buf '{';
        List.iteri
          (fun i (key, value) ->
            if i > 0 then Buffer.add_char buf ',';
            newline (indent + 2);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape key);
            Buffer.add_string buf (if minify then "\":" else "\": ");
            emit (indent + 2) value)
          fields;
        newline indent;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf
