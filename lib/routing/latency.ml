module G = Broker_graph.Graph
module T = Broker_topo.Topology
module Nm = Broker_topo.Node_meta

type t = { tbl : (int * int, float) Hashtbl.t }

let key u v = if u < v then (u, v) else (v, u)

let assign ~rng topo =
  let g = topo.T.graph in
  let tbl = Hashtbl.create (2 * G.m g) in
  T.iter_labelled_edges topo (fun u v l ->
      let base =
        if l = Nm.arc_ixp then 2.0
        else if l = Nm.arc_peer then 5.0
        else if l = Nm.arc_up || l = Nm.arc_down then 10.0
        else 8.0
      in
      let jitter = 0.5 +. Broker_util.Xrandom.float rng 1.0 in
      Hashtbl.replace tbl (key u v) (base *. jitter));
  { tbl }

let edge_latency t u v = Hashtbl.find t.tbl (key u v)

let path_latency t path =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go (acc +. edge_latency t u v) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 path

let min_latency_path t topo ~is_broker ~src ~dst =
  let g = topo.T.graph in
  let edge_ok u v = is_broker u || is_broker v in
  let weight u v = edge_latency t u v in
  match Broker_graph.Dijkstra.shortest_path ~edge_ok g ~weight src dst with
  | [] -> None
  | path -> Some (path, path_latency t path)

let stretch t topo ~is_broker ~src ~dst =
  let g = topo.T.graph in
  let weight u v = edge_latency t u v in
  match
    ( min_latency_path t topo ~is_broker ~src ~dst,
      Broker_graph.Dijkstra.shortest_path g ~weight src dst )
  with
  | Some (_, dominated), (_ :: _ as free) ->
      let free_latency = path_latency t free in
      if free_latency <= 0.0 then None else Some (dominated /. free_latency)
  | _, _ -> None
