module G = Broker_graph.Graph

type csr = { off : int array; adj : int array }

type t = {
  graph : G.t;
  kinds : Node_meta.kind array;
  tiers : int array;
  names : string array;
  arc_relations : Bytes.t;
  customers : csr;
  providers : csr;
}

let mirror l =
  if l = Node_meta.arc_up then Node_meta.arc_down
  else if l = Node_meta.arc_down then Node_meta.arc_up
  else if l = Node_meta.arc_none || l = Node_meta.arc_peer || l = Node_meta.arc_ixp then l
  else invalid_arg "Topology.make: unknown label"

(* The arcs of [graph] labelled [l], in CSR order. *)
let select graph labels l =
  let n = G.n graph and off = G.csr_off graph and adj = G.csr_adj graph in
  let soff = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let c = ref soff.(u) in
    for a = off.(u) to off.(u + 1) - 1 do
      if Bytes.get labels a = l then incr c
    done;
    soff.(u + 1) <- !c
  done;
  let sadj = Array.make soff.(n) 0 in
  let w = ref 0 in
  Array.iteri
    (fun a v ->
      if Bytes.get labels a = l then begin
        sadj.(!w) <- v;
        incr w
      end)
    adj;
  { off = soff; adj = sadj }

(* The one writer of arc labels. An unlabelled repeat of an edge leaves an
   earlier label in place. *)
let make ~kinds ~tiers ~names ~n edges =
  if Array.length kinds <> n || Array.length tiers <> n || Array.length names <> n then
    invalid_arg "Topology.make: metadata length";
  let graph = G.of_edges ~n (Array.map (fun (u, v, _) -> (u, v)) edges) in
  let arc_relations = Bytes.make (G.arcs graph) Node_meta.arc_none in
  Array.iter
    (fun (u, v, l) ->
      if u = v then invalid_arg "Topology.make: self edge";
      let back = mirror l in
      if l <> Node_meta.arc_none then begin
        Bytes.set arc_relations (G.arc_index graph u v) l;
        Bytes.set arc_relations (G.arc_index graph v u) back
      end)
    edges;
  {
    graph;
    kinds;
    tiers;
    names;
    arc_relations;
    customers = select graph arc_relations Node_meta.arc_down;
    providers = select graph arc_relations Node_meta.arc_up;
  }

let iter_labelled_edges t f =
  let off = G.csr_off t.graph and adj = G.csr_adj t.graph in
  for u = 0 to G.n t.graph - 1 do
    for a = off.(u) to off.(u + 1) - 1 do
      let v = adj.(a) in
      if u < v then f u v (Bytes.get t.arc_relations a)
    done
  done

let n t = G.n t.graph
let is_ixp t v = Node_meta.kind_equal t.kinds.(v) Node_meta.Ixp
let is_as t v = not (is_ixp t v)

let filter_nodes t pred =
  let out = ref [] in
  for v = n t - 1 downto 0 do
    if pred v then out := v :: !out
  done;
  Array.of_list !out

let ixps t = filter_nodes t (is_ixp t)
let ases t = filter_nodes t (is_as t)

let count_kind t kind =
  Array.fold_left
    (fun acc k -> if Node_meta.kind_equal k kind then acc + 1 else acc)
    0 t.kinds

let count_edges t pred =
  let acc = ref 0 in
  G.iter_edges t.graph (fun u v -> if pred u v then incr acc);
  !acc

let as_as_edges t = count_edges t (fun u v -> is_as t u && is_as t v)
let as_ixp_edges t = count_edges t (fun u v -> is_ixp t u <> is_ixp t v)

let with_ases_only t =
  let old_ids = ases t in
  let remap = Array.make (n t) (-1) in
  Array.iteri (fun new_id old_id -> remap.(old_id) <- new_id) old_ids;
  let edges = ref [] in
  iter_labelled_edges t (fun u v l ->
      if remap.(u) >= 0 && remap.(v) >= 0 then
        edges := (remap.(u), remap.(v), l) :: !edges);
  let pick a = Array.map (fun old_id -> a.(old_id)) old_ids in
  ( make ~kinds:(pick t.kinds) ~tiers:(pick t.tiers) ~names:(pick t.names)
      ~n:(Array.length old_ids) (Array.of_list !edges),
    old_ids )

let tier1_members t =
  filter_nodes t (fun v -> Node_meta.kind_equal t.kinds.(v) Node_meta.Tier1)

let ixp_connected_fraction t =
  let as_total = ref 0 and connected = ref 0 in
  for v = 0 to n t - 1 do
    if is_as t v then begin
      incr as_total;
      let has_ixp = G.fold_neighbors t.graph v (fun acc w -> acc || is_ixp t w) false in
      if has_ixp then incr connected
    end
  done;
  if !as_total = 0 then 0.0 else float_of_int !connected /. float_of_int !as_total
