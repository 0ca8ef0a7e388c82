module G = Broker_graph.Graph
module R = Broker_util.Xrandom

let grow ~rng topo ~new_ases =
  if new_ases < 0 then invalid_arg "Churn.grow: negative growth";
  let old_n = Topology.n topo in
  let n = old_n + new_ases in
  (* Old edges keep their ids and labels. *)
  let edges = ref [] in
  Topology.iter_labelled_edges topo (fun u v l -> edges := (u, v, l) :: !edges);
  (* Degree-weighted provider pool over the existing transit core. *)
  let core = ref [] in
  for v = 0 to old_n - 1 do
    if topo.Topology.tiers.(v) >= 1 && topo.Topology.tiers.(v) <= 2 then
      for _ = 0 to G.degree topo.Topology.graph v do
        core := v :: !core
      done
  done;
  let pool = Array.of_list !core in
  if Array.length pool = 0 then invalid_arg "Churn.grow: no transit core";
  let ixps = Topology.ixps topo in
  let kinds = Array.make n Node_meta.Enterprise in
  let tiers = Array.make n 3 in
  let names = Array.make n "" in
  Array.blit topo.Topology.kinds 0 kinds 0 old_n;
  Array.blit topo.Topology.tiers 0 tiers 0 old_n;
  Array.blit topo.Topology.names 0 names 0 old_n;
  for v = old_n to n - 1 do
    let r = R.float rng 1.0 in
    kinds.(v) <-
      (if r < 0.08 then Node_meta.Content
       else if r < 0.53 then Node_meta.Access
       else Node_meta.Enterprise);
    names.(v) <- Printf.sprintf "NEW-AS%d" v;
    (* 1-3 providers, degree-preferential. *)
    let wanted = 1 + R.int rng 3 in
    let chosen = Hashtbl.create 4 in
    let tries = ref 0 in
    while Hashtbl.length chosen < wanted && !tries < 40 do
      incr tries;
      Hashtbl.replace chosen pool.(R.int rng (Array.length pool)) ()
    done;
    Hashtbl.iter (fun p () -> edges := (v, p, Node_meta.arc_up) :: !edges) chosen;
    (* ~40% also join a random IXP, mirroring the base topology. *)
    if Array.length ixps > 0 && R.bernoulli rng 0.4 then begin
      let x = ixps.(R.int rng (Array.length ixps)) in
      edges := (v, x, Node_meta.arc_ixp) :: !edges
    end
  done;
  Topology.make ~kinds ~tiers ~names ~n (Array.of_list !edges)
