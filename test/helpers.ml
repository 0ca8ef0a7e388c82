(* Shared test fixtures and small graph builders. *)

module G = Broker_graph.Graph

let rng () = Broker_util.Xrandom.create 12345

(* Path 0-1-2-...-(n-1). *)
let path_graph n = G.of_edges ~n (Array.init (n - 1) (fun i -> (i, i + 1)))

(* Cycle. *)
let cycle_graph n =
  G.of_edges ~n (Array.init n (fun i -> (i, (i + 1) mod n)))

(* Star with center 0. *)
let star_graph n = G.of_edges ~n (Array.init (n - 1) (fun i -> (0, i + 1)))

(* Complete graph. *)
let clique_graph n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  G.of_edges ~n (Array.of_list !edges)

(* Two triangles joined by one bridge: 0-1-2-0, 3-4-5-3, bridge 2-3. *)
let barbell_graph () =
  G.of_edges ~n:6 [| (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) |]

(* Random connected-ish graph generator for qcheck. *)
let random_graph rng ~n ~m =
  let edges =
    Array.init m (fun _ ->
        (Broker_util.Xrandom.int rng n, Broker_util.Xrandom.int rng n))
  in
  (* A spanning chain keeps most of it connected. *)
  let chain = Array.init (n - 1) (fun i -> (i, i + 1)) in
  G.of_edges ~n (Array.append edges chain)

let small_internet ?(seed = 77) ?(scale = 0.01) () =
  Broker_topo.Internet.generate
    { (Broker_topo.Internet.scaled scale) with Broker_topo.Internet.seed }

(* Relation label of the arc u -> v of a topology. *)
let arc_label t u v =
  Bytes.get t.Broker_topo.Topology.arc_relations (G.arc_index t.Broker_topo.Topology.graph u v)

(* One label per arc, and the two arcs of every edge mirrored: up <-> down,
   the other labels equal. *)
let labels_mirrored t =
  let module Nm = Broker_topo.Node_meta in
  let module T = Broker_topo.Topology in
  let ok = ref (Bytes.length t.T.arc_relations = G.arcs t.T.graph) in
  T.iter_labelled_edges t (fun u v l ->
      let back = arc_label t v u in
      let expected =
        if l = Nm.arc_up then Nm.arc_down else if l = Nm.arc_down then Nm.arc_up else l
      in
      if back <> expected then ok := false);
  !ok

(* qcheck arbitrary for small random graphs, shrinking-free. *)
let graph_arbitrary =
  QCheck.make
    ~print:(fun g -> Printf.sprintf "<graph n=%d m=%d>" (G.n g) (G.m g))
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 80 >>= fun m ->
      int_range 0 1_000_000 >|= fun seed ->
      random_graph (Broker_util.Xrandom.create seed) ~n ~m)

(* A fixed-seed qcheck property as one alcotest case. *)
let check_prop ?(count = 8) ~seed name arb law =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count ~name arb law)

(* A random labelled topology on [n] vertices from [m] random pairs: any
   node kinds (IXPs included), any of the five label bytes on any kind
   pair, repeated edges in either orientation. Vertex 0 is a tier-1 AS,
   so the topology always has a transit core. *)
let random_topology rng ~n ~m =
  let module Nm = Broker_topo.Node_meta in
  let module X = Broker_util.Xrandom in
  let kinds_pool = Array.of_list Nm.all_kinds in
  let labels = [| Nm.arc_none; Nm.arc_up; Nm.arc_down; Nm.arc_peer; Nm.arc_ixp |] in
  let kinds =
    Array.init n (fun v ->
        if v = 0 then Nm.Tier1 else kinds_pool.(X.int rng (Array.length kinds_pool)))
  in
  let tiers =
    Array.init n (fun v -> if v = 0 then 1 else if Nm.is_as kinds.(v) then 1 + X.int rng 3 else 0)
  in
  let edges =
    List.filter_map
      (fun _ ->
        let u = X.int rng n and v = X.int rng n in
        if u = v then None else Some (u, v, labels.(X.int rng (Array.length labels))))
      (List.init m Fun.id)
  in
  Broker_topo.Topology.make ~kinds ~tiers
    ~names:(Array.init n (Printf.sprintf "V%d"))
    ~n (Array.of_list edges)

(* qcheck arbitrary for [random_topology]: (seed, n, m). *)
let topology_arbitrary =
  QCheck.make
    ~print:(fun (seed, n, m) -> Printf.sprintf "<seed=%d n=%d m=%d>" seed n m)
    QCheck.Gen.(triple (int_range 0 1_000_000) (int_range 2 30) (int_range 0 90))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
