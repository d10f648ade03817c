(** Test inputs: the values of the module's uniforms and the dimensions of
    the fragment grid to render.  An input plays the role of the "file
    describing the inputs on which the module will be executed" that
    spirv-fuzz takes (section 3.2). *)

type t = {
  uniforms : (string * Value.t) list;
  width : int;
  height : int;
}
[@@deriving show { with_path = false }]

let make ?(width = 8) ?(height = 8) uniforms = { uniforms; width; height }

let find_uniform t name = List.assoc_opt name t.uniforms

(** Parse a uniform assignment list: ["name=value"] items separated by
    commas or newlines; values are [true]/[false], integers, floats, or
    vecN/array literals like [(1.0, 2.0)].  Grid size via the reserved
    names [width]/[height].  This is the "file describing the inputs on
    which the module will be executed" that spirv-fuzz takes. *)
let of_string text : (t, string) result =
  let items =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "" && s.[0] <> '#')
  in
  let parse_scalar v =
    match v with
    | "true" -> Ok (Value.VBool true)
    | "false" -> Ok (Value.VBool false)
    | _ -> (
        match int_of_string_opt v with
        | Some i -> Ok (Value.VInt (Int32.of_int i))
        | None -> (
            match float_of_string_opt v with
            | Some f -> Ok (Value.VFloat f)
            | None -> Error (Printf.sprintf "cannot parse value %S" v)))
  in
  let parse_value v =
    let v = String.trim v in
    if String.length v >= 2 && v.[0] = '(' && v.[String.length v - 1] = ')' then begin
      let inner = String.sub v 1 (String.length v - 2) in
      let parts = String.split_on_char ';' inner |> List.map String.trim in
      let rec go acc = function
        | [] -> Ok (Value.VComposite (Array.of_list (List.rev acc)))
        | p :: rest -> (
            match parse_scalar p with
            | Ok x -> go (x :: acc) rest
            | Error e -> Error e)
      in
      go [] parts
    end
    else parse_scalar v
  in
  let rec go acc ~width ~height = function
    | [] -> Ok { uniforms = List.rev acc; width; height }
    | item :: rest -> (
        match String.index_opt item '=' with
        | None -> Error (Printf.sprintf "expected name=value, got %S" item)
        | Some i -> (
            let name = String.trim (String.sub item 0 i) in
            let v = String.sub item (i + 1) (String.length item - i - 1) in
            match name with
            | "width" -> (
                match int_of_string_opt (String.trim v) with
                | Some w when w > 0 -> go acc ~width:w ~height rest
                | _ -> Error "width must be a positive integer")
            | "height" -> (
                match int_of_string_opt (String.trim v) with
                | Some h when h > 0 -> go acc ~width ~height:h rest
                | _ -> Error "height must be a positive integer")
            | _ -> (
                match parse_value v with
                | Ok value -> go ((name, value) :: acc) ~width ~height rest
                | Error e -> Error e)))
  in
  go [] ~width:8 ~height:8 items
