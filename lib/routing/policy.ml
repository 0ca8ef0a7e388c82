module T = Broker_topo.Topology
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta

type hop_class = Up | Down | Flat | Into_fabric | Out_of_fabric

(* The one derivation of a hop class: endpoint kinds first (IXP fabrics
   are transparent), then the arc's relation label; unknown relations
   are Flat. [arc] is the position of u → v in the CSR. *)
let classify_arc topo labels arc u v =
  if T.is_ixp topo v then Into_fabric
  else if T.is_ixp topo u then Out_of_fabric
  else begin
    let l = Bytes.get labels arc in
    if l = Nm.arc_up then Up else if l = Nm.arc_down then Down else Flat
  end

let classify topo u v =
  let arc = G.arc_index topo.T.graph u v in
  if arc < 0 then invalid_arg "Policy.classify: not an edge";
  classify_arc topo topo.T.arc_relations arc u v

(* State machine: 0 = ascending, 1 = descending. The single permitted
   "peak" is a Flat hop or an AS→IXP→AS fabric crossing. *)
let valley_free topo path =
  let labels = topo.T.arc_relations in
  let rec walk state = function
    | u :: (v :: _ as rest) ->
        let arc = G.arc_index topo.T.graph u v in
        if arc < 0 then false
        else begin
          match (classify_arc topo labels arc u v, state) with
          | Up, 0 -> walk 0 rest
          | Up, _ -> false
          | Down, _ -> walk 1 rest
          | Flat, 0 -> walk 1 rest
          | Flat, _ -> false
          | Into_fabric, 0 -> walk 0 rest
          | Into_fabric, _ -> false
          | Out_of_fabric, 0 -> walk 1 rest
          | Out_of_fabric, _ -> false
        end
    | [ _ ] | [] -> true
  in
  walk 0 path

let exports_to _topo ~learned_from ~toward =
  (* From the exporter's point of view: a route learned from a customer
     (the neighbor below us: our [Down] direction) goes to everyone; routes
     learned from peers or providers go to customers only. *)
  let from_customer = match learned_from with Down -> true | Up | Flat | Into_fabric | Out_of_fabric -> false in
  let to_customer = match toward with Down -> true | Up | Flat | Into_fabric | Out_of_fabric -> false in
  from_customer || to_customer
