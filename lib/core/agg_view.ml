module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Value = Dw_relation.Value
module Expr = Dw_relation.Expr

type agg_fn = Count | Sum of string | Min of string | Max of string

type t = {
  name : string;
  table : string;
  schema : Schema.t;
  filter : Expr.t option;
  group_by : string list;
  aggregates : (string * agg_fn) list;
}

let col_of = function Count -> None | Sum c | Min c | Max c -> Some c

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.group_by = [] then err "agg view %s: empty GROUP BY" t.name
  else if t.aggregates = [] then err "agg view %s: no aggregates" t.name
  else begin
    let missing =
      List.filter (fun c -> not (Schema.mem t.schema c)) t.group_by
      @ List.filter_map
          (fun (_, fn) ->
            match col_of fn with
            | Some c when not (Schema.mem t.schema c) -> Some c
            | Some _ | None -> None)
          t.aggregates
    in
    let filter_missing =
      match t.filter with
      | None -> []
      | Some e -> List.filter (fun c -> not (Schema.mem t.schema c)) (Expr.columns e)
    in
    match missing @ filter_missing with
    | c :: _ -> err "agg view %s: unknown column %s" t.name c
    | [] ->
      let out_names = t.group_by @ List.map fst t.aggregates in
      let dups =
        List.filter (fun n -> List.length (List.filter (( = ) n) out_names) > 1) out_names
      in
      (match dups with
       | d :: _ -> err "agg view %s: duplicate output column %s" t.name d
       | [] ->
         let bad_sum =
           List.find_opt
             (fun (_, fn) ->
               match fn with
               | Sum c -> (
                   match (Schema.column t.schema (Schema.index_of t.schema c)).Schema.ty with
                   | Value.Tint | Value.Tfloat -> false
                   | Value.Tbool | Value.Tdate | Value.Tstring _ -> true)
               | Count | Min _ | Max _ -> false)
             t.aggregates
         in
         (match bad_sum with
          | Some (out, _) -> err "agg view %s: SUM over non-numeric column (%s)" t.name out
          | None -> Ok ()))
  end

let output_schema t =
  let group_cols =
    List.map
      (fun c ->
        let col = Schema.column t.schema (Schema.index_of t.schema c) in
        { Schema.name = c; ty = col.Schema.ty; nullable = false })
      t.group_by
  in
  let agg_cols =
    List.map
      (fun (out, fn) ->
        let ty =
          match fn with
          | Count -> Value.Tint
          | Sum c | Min c | Max c ->
            (Schema.column t.schema (Schema.index_of t.schema c)).Schema.ty
        in
        { Schema.name = out; ty; nullable = false })
      t.aggregates
  in
  Schema.make ~key_arity:(List.length group_cols) (group_cols @ agg_cols)

let passes t row =
  match t.filter with None -> true | Some e -> Expr.eval_pred t.schema row e

let group_key t row =
  Array.of_list (List.map (fun c -> row.(Schema.index_of t.schema c)) t.group_by)

let field t row c = row.(Schema.index_of t.schema c)

let agg_value t fn rows =
  match fn with
  | Count -> Value.Int (List.length rows)
  | Sum c ->
    List.fold_left (fun acc row -> Value.add acc (field t row c)) (Value.Int 0) rows
  | Min c -> (
      match rows with
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun acc row ->
            let v = field t row c in
            if Value.compare v acc < 0 then v else acc)
          (field t first c) rest)
  | Max c -> (
      match rows with
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun acc row ->
            let v = field t row c in
            if Value.compare v acc > 0 then v else acc)
          (field t first c) rest)

module GroupMap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let output_row t group rows =
  Array.append group (Array.of_list (List.map (fun (_, fn) -> agg_value t fn rows) t.aggregates))

let eval t ~rows =
  let passing = List.filter (passes t) rows in
  let groups =
    List.fold_left
      (fun acc row ->
        GroupMap.update (group_key t row)
          (function None -> Some [ row ] | Some l -> Some (row :: l))
          acc)
      GroupMap.empty passing
  in
  GroupMap.bindings groups
  |> List.map (fun (group, members) -> (output_row t group members, List.length members))

(* incremental transitions *)

let agg_slot t i = List.length t.group_by + i

let init_group t row = output_row t (group_key t row) [ row ]

let apply_insert t ~current row =
  let out = Array.copy current in
  List.iteri
    (fun i (_, fn) ->
      let slot = agg_slot t i in
      match fn with
      | Count -> out.(slot) <- Value.add out.(slot) (Value.Int 1)
      | Sum c -> out.(slot) <- Value.add out.(slot) (field t row c)
      | Min c ->
        let v = field t row c in
        if Value.compare v out.(slot) < 0 then out.(slot) <- v
      | Max c ->
        let v = field t row c in
        if Value.compare v out.(slot) > 0 then out.(slot) <- v)
    t.aggregates;
  out

type delete_outcome = Updated of Tuple.t | Needs_rescan

let apply_delete t ~current row =
  let out = Array.copy current in
  let rescan = ref false in
  List.iteri
    (fun i (_, fn) ->
      let slot = agg_slot t i in
      match fn with
      | Count -> out.(slot) <- Value.sub out.(slot) (Value.Int 1)
      | Sum c -> out.(slot) <- Value.sub out.(slot) (field t row c)
      | Min c -> if Value.compare (field t row c) out.(slot) <= 0 then rescan := true
      | Max c -> if Value.compare (field t row c) out.(slot) >= 0 then rescan := true)
    t.aggregates;
  if !rescan then Needs_rescan else Updated out

let recompute_group t ~group ~members =
  match members with
  | [] -> None
  | _ -> Some (output_row t group members, List.length members)
