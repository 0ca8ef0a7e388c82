module G = Broker_graph.Graph

type summary = {
  ixps : int;
  ases : int;
  max_connected_subgraph : int;
  as_as_connections : int;
  as_ixp_connections : int;
  ixp_connected_fraction : float;
}

let summarize t =
  let comps = Broker_graph.Components.compute t.Topology.graph in
  let _, largest = Broker_graph.Components.largest comps in
  {
    ixps = Topology.count_kind t Node_meta.Ixp;
    ases = Topology.n t - Topology.count_kind t Node_meta.Ixp;
    max_connected_subgraph = largest;
    as_as_connections = Topology.as_as_edges t;
    as_ixp_connections = Topology.as_ixp_edges t;
    ixp_connected_fraction = Topology.ixp_connected_fraction t;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>IXPs: %d@,ASes: %d@,Max connected subgraph: %d@,AS-AS connections: %d@,AS-IXP connections: %d@,ASes with IXP membership: %.1f%%@]"
    s.ixps s.ases s.max_connected_subgraph s.as_as_connections
    s.as_ixp_connections
    (100.0 *. s.ixp_connected_fraction)

let kind_code = function
  | Node_meta.Tier1 -> "t1"
  | Node_meta.Transit -> "tr"
  | Node_meta.Access -> "ac"
  | Node_meta.Content -> "co"
  | Node_meta.Enterprise -> "en"
  | Node_meta.Ixp -> "ix"

let kind_of_code = function
  | "t1" -> Some Node_meta.Tier1
  | "tr" -> Some Node_meta.Transit
  | "ac" -> Some Node_meta.Access
  | "co" -> Some Node_meta.Content
  | "en" -> Some Node_meta.Enterprise
  | "ix" -> Some Node_meta.Ixp
  | _ -> None

(* Relation code of the arc u → v, for the edge line [e u v code]. *)
let rel_codes =
  [
    (Node_meta.arc_up, "cp");
    (Node_meta.arc_down, "pc");
    (Node_meta.arc_peer, "pp");
    (Node_meta.arc_ixp, "im");
    (Node_meta.arc_none, "--");
  ]

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let n = Topology.n t in
      Printf.fprintf oc "brokerset-topology 1 %d %d\n" n (G.m t.Topology.graph);
      for v = 0 to n - 1 do
        Printf.fprintf oc "n %d %s %d %s\n" v
          (kind_code t.Topology.kinds.(v))
          t.Topology.tiers.(v) t.Topology.names.(v)
      done;
      Topology.iter_labelled_edges t (fun u v l ->
          Printf.fprintf oc "e %d %d %s\n" u v (List.assoc l rel_codes)))

(* A growable array: the loader sizes nothing from a header count, so a
   file can only make it allocate what its own lines hold. *)
type 'a buf = { mutable data : 'a array; mutable len : int }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (max 16 (2 * b.len)) x in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line_no = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun msg -> failwith (Printf.sprintf "Dataset.load: line %d: %s" !line_no msg))
          fmt
      in
      let next_line () =
        incr line_no;
        input_line ic
      in
      let int_field what s =
        match int_of_string_opt s with
        | Some x -> x
        | None -> fail "%s %S is not an integer" what s
      in
      let count what s =
        let c = int_field what s in
        if c < 0 then fail "negative %s %d" what c;
        c
      in
      let n, m =
        match String.split_on_char ' ' (try next_line () with End_of_file -> "") with
        | [ "brokerset-topology"; "1"; n; m ] -> (count "node count" n, count "edge count" m)
        | _ -> fail "bad header"
      in
      let node what s =
        let v = int_field what s in
        if v < 0 || v >= n then fail "%s %d outside [0, %d)" what v n;
        v
      in
      (* Node lines come in id order, as [save] writes them. *)
      let nodes = { data = [||]; len = 0 } in
      let edges = { data = [||]; len = 0 } in
      (try
         while true do
           match String.split_on_char ' ' (next_line ()) with
           | "n" :: v :: kind :: tier :: name_parts ->
               let v = node "node id" v in
               if v <> nodes.len then fail "node id %d out of order, expected %d" v nodes.len;
               let kind =
                 match kind_of_code kind with
                 | Some k -> k
                 | None -> fail "unknown kind %S" kind
               in
               push nodes (kind, int_field "tier" tier, String.concat " " name_parts)
           | [ "e"; u; v; rel ] ->
               if edges.len = m then fail "more edges than the header's %d" m;
               let u = node "endpoint" u and v = node "endpoint" v in
               if u = v then fail "self-loop on %d" u;
               let label =
                 match List.find_opt (fun (_, code) -> String.equal code rel) rel_codes with
                 | Some (l, _) -> l
                 | None -> fail "unknown relation %S" rel
               in
               push edges (u, v, label)
           | [] | [ "" ] -> ()
           | _ -> fail "malformed line"
         done
       with End_of_file -> ());
      if nodes.len < n then fail "end of file after %d of the header's %d nodes" nodes.len n;
      if edges.len < m then fail "end of file after %d of the header's %d edges" edges.len m;
      let nodes = Array.sub nodes.data 0 n in
      Topology.make
        ~kinds:(Array.map (fun (k, _, _) -> k) nodes)
        ~tiers:(Array.map (fun (_, t, _) -> t) nodes)
        ~names:(Array.map (fun (_, _, name) -> name) nodes)
        ~n (Array.sub edges.data 0 m))
