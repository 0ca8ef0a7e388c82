(* Tests for Broker_topo: Node_meta, Topology, Classic generators,
   Internet generator, Dataset round-trip. *)

open Helpers
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta
module T = Broker_topo.Topology
module Classic = Broker_topo.Classic
module Internet = Broker_topo.Internet
module Dataset = Broker_topo.Dataset

(* ---------- Arc labels written by Topology.make ---------- *)

let make_topo ?(ixps = []) ~n edges =
  let kinds = Array.init n (fun v -> if List.mem v ixps then Nm.Ixp else Nm.Transit) in
  T.make ~kinds ~tiers:(Array.make n 2) ~names:(Array.make n "") ~n edges

let test_relations_c2p_orientation () =
  let t = make_topo ~n:6 [| (5, 2, Nm.arc_up) |] in
  check_bool "customer side up" true (arc_label t 5 2 = Nm.arc_up);
  check_bool "provider side down" true (arc_label t 2 5 = Nm.arc_down);
  let t' = make_topo ~n:6 [| (2, 5, Nm.arc_down) |] in
  check_bool "same labels from the provider's side" true
    (Bytes.equal t.T.arc_relations t'.T.arc_relations)

let test_relations_peer_ixp () =
  let t = make_topo ~ixps:[ 9 ] ~n:10 [| (1, 2, Nm.arc_peer); (9, 3, Nm.arc_ixp) |] in
  check_bool "peer both ways" true (arc_label t 2 1 = Nm.arc_peer && arc_label t 1 2 = Nm.arc_peer);
  check_bool "ixp both ways" true (arc_label t 3 9 = Nm.arc_ixp && arc_label t 9 3 = Nm.arc_ixp);
  check_int "missing edge" (-1) (G.arc_index t.T.graph 1 9);
  check_int "one label per arc" 4 (Bytes.length t.T.arc_relations);
  (* A repeated edge keeps the last label given; an unlabelled repeat
     leaves it in place. *)
  let t =
    make_topo ~n:3
      [| (0, 1, Nm.arc_peer); (1, 0, Nm.arc_up); (0, 1, Nm.arc_none); (1, 2, Nm.arc_none) |]
  in
  check_bool "last label wins" true (arc_label t 1 0 = Nm.arc_up && arc_label t 0 1 = Nm.arc_down);
  check_bool "unlabelled edge" true (arc_label t 1 2 = Nm.arc_none && arc_label t 2 1 = Nm.arc_none)

let test_relations_self_edge () =
  Alcotest.check_raises "self" (Invalid_argument "Topology.make: self edge") (fun () ->
      ignore (make_topo ~n:5 [| (4, 4, Nm.arc_peer) |]));
  Alcotest.check_raises "unknown label" (Invalid_argument "Topology.make: unknown label")
    (fun () -> ignore (make_topo ~n:5 [| (1, 4, 'x') |]))

(* ---------- Relation CSRs ---------- *)

(* [customers] and [providers] hold, in CSR order, exactly the neighbours
   the oracle finds by filtering the arc labels, and mirror each other. *)
let relation_csrs_ok t =
  let segment (c : T.csr) u =
    Array.to_list (Array.sub c.T.adj c.T.off.(u) (c.T.off.(u + 1) - c.T.off.(u)))
  in
  let customers = segment t.T.customers and providers = segment t.T.providers in
  let ok = ref (Array.length t.T.customers.T.adj = Array.length t.T.providers.T.adj) in
  for u = 0 to T.n t - 1 do
    if
      customers u <> Oracle_valley_free.labelled_neighbours t u Nm.arc_down
      || providers u <> Oracle_valley_free.labelled_neighbours t u Nm.arc_up
      || not (List.for_all (fun v -> List.mem u (providers v)) (customers u))
    then ok := false
  done;
  !ok

let relation_csrs =
  check_prop ~count:40 ~seed:20170614 "customers/providers = label filter" topology_arbitrary
    (fun (seed, n, m) ->
      let rng = rng () in
      let t = random_topology (Broker_util.Xrandom.create seed) ~n ~m in
      let path = Filename.temp_file "topo" ".txt" in
      let loaded =
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Dataset.save ~path t;
            Dataset.load ~path)
      in
      relation_csrs_ok t && relation_csrs_ok loaded
      && relation_csrs_ok (fst (T.with_ases_only t))
      && relation_csrs_ok (Broker_topo.Churn.grow ~rng t ~new_ases:(1 + (seed mod 20))))

(* ---------- Classic generators ---------- *)

let test_er_size () =
  let g = Classic.erdos_renyi ~rng:(rng ()) ~n:200 ~m:400 in
  check_int "n" 200 (G.n g);
  check_bool "m close to target" true (G.m g > 350 && G.m g <= 400)

let test_ws_degree () =
  let g = Classic.watts_strogatz ~rng:(rng ()) ~n:100 ~k:4 ~beta:0.0 in
  (* No rewiring: a perfect ring lattice, everyone degree 4. *)
  for v = 0 to 99 do
    check_int "lattice degree" 4 (G.degree g v)
  done

let test_ws_rewired_connect () =
  let g = Classic.watts_strogatz ~rng:(rng ()) ~n:100 ~k:4 ~beta:0.3 in
  check_int "n" 100 (G.n g);
  check_bool "about 2n edges" true (abs (G.m g - 200) < 20)

let test_ws_bad_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Classic.watts_strogatz: k must be positive and even")
    (fun () -> ignore (Classic.watts_strogatz ~rng:(rng ()) ~n:10 ~k:3 ~beta:0.0))

let test_ba_heavy_tail () =
  let g = Classic.barabasi_albert ~rng:(rng ()) ~n:500 ~m:3 in
  check_int "n" 500 (G.n g);
  (* Preferential attachment: the max degree is far above the mean. *)
  let avg = Broker_graph.Metrics.average_degree g in
  check_bool "hub exists" true (float_of_int (G.max_degree g) > 4.0 *. avg);
  (* connected by construction *)
  let c = Broker_graph.Components.compute g in
  check_int "connected" 1 (Broker_graph.Components.count c)

(* ---------- Internet generator ---------- *)

let small = lazy (small_internet ~seed:77 ~scale:0.02 ())

let test_internet_table2_shape () =
  let t = Lazy.force small in
  let s = Dataset.summarize t in
  let p = Internet.scaled 0.02 in
  check_int "ixps" p.Internet.n_ixp s.Dataset.ixps;
  check_int "ases" p.Internet.n_as s.Dataset.ases;
  check_bool "as-as edges within 2%" true
    (abs (s.Dataset.as_as_connections - p.Internet.as_as_edge_target)
    < p.Internet.as_as_edge_target / 50);
  check_bool "as-ixp edges within 5%" true
    (abs (s.Dataset.as_ixp_connections - p.Internet.as_ixp_edge_target)
    < p.Internet.as_ixp_edge_target / 20);
  check_float_eps 0.02 "ixp membership fraction" 0.402 s.Dataset.ixp_connected_fraction

let test_internet_giant_component () =
  let t = Lazy.force small in
  let s = Dataset.summarize t in
  check_bool "giant component ~ everything" true
    (s.Dataset.max_connected_subgraph > 99 * T.n t / 100)

let test_internet_deterministic () =
  let a = small_internet ~seed:5 ~scale:0.01 () in
  let b = small_internet ~seed:5 ~scale:0.01 () in
  Alcotest.(check (array (pair int int))) "same edges"
    (G.edges a.T.graph) (G.edges b.T.graph);
  let c = small_internet ~seed:6 ~scale:0.01 () in
  check_bool "different seed differs" false (G.edges a.T.graph = G.edges c.T.graph)

let test_internet_relations_complete () =
  let t = Lazy.force small in
  check_bool "one mirrored label per arc" true (labels_mirrored t);
  check_bool "every edge classified" false (Bytes.contains t.T.arc_relations Nm.arc_none)

let test_internet_ixp_edges_touch_ixps () =
  let t = Lazy.force small in
  let bad = ref 0 in
  T.iter_labelled_edges t (fun u v l ->
      if l = Nm.arc_ixp <> (T.is_ixp t u <> T.is_ixp t v) then incr bad);
  check_int "ixp labels exactly on AS-IXP edges" 0 !bad

let test_internet_tiers () =
  let t = Lazy.force small in
  let tier1 = T.tier1_members t in
  check_int "tier1 count" (Internet.scaled 0.02).Internet.n_tier1 (Array.length tier1);
  (* Tier-1 clique: all pairs connected, as peers. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u <> v then begin
            check_bool "clique edge" true (G.mem_edge t.T.graph u v);
            check_bool "peer link" true (arc_label t u v = Nm.arc_peer)
          end)
        tier1)
    tier1

let test_internet_small_world () =
  let t = Lazy.force small in
  let est =
    Broker_core.Alpha_beta.estimate ~rng:(rng ()) ~sources:32 t.T.graph ~alpha:0.99
  in
  check_bool "beta small" true (est.Broker_core.Alpha_beta.beta <= 5)

let test_internet_scaled_bounds () =
  Alcotest.check_raises "scale 0" (Invalid_argument "Internet.scaled: factor in (0,1]")
    (fun () -> ignore (Internet.scaled 0.0))

(* ---------- Topology ---------- *)

let test_topology_counts () =
  let t = Lazy.force small in
  let total =
    List.fold_left (fun acc k -> acc + T.count_kind t k) 0 Nm.all_kinds
  in
  check_int "kinds partition nodes" (T.n t) total;
  check_int "edge split" (G.m t.T.graph) (T.as_as_edges t + T.as_ixp_edges t)

let test_topology_ases_only () =
  let t = Lazy.force small in
  let restricted, mapping = T.with_ases_only t in
  check_int "no ixps left" 0 (T.count_kind restricted Nm.Ixp);
  check_int "as count preserved" (Array.length (T.ases t)) (T.n restricted);
  check_int "edges are the AS-AS edges" (T.as_as_edges t) (G.m restricted.T.graph);
  (* Mapping consistency: kinds survive. *)
  Array.iteri
    (fun new_id old_id ->
      check_bool "kind preserved" true
        (Nm.kind_equal restricted.T.kinds.(new_id) t.T.kinds.(old_id)))
    mapping;
  (* Every AS-AS edge keeps its label. *)
  let kept = ref 0 in
  T.iter_labelled_edges restricted (fun u v l ->
      if l = arc_label t mapping.(u) mapping.(v) then incr kept);
  check_int "labels kept" (G.m restricted.T.graph) !kept;
  check_bool "mirrored" true (labels_mirrored restricted)

(* ---------- Dataset ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_dataset_roundtrip () =
  let t = small_internet ~seed:9 ~scale:0.005 () in
  let path = Filename.temp_file "topo" ".txt" and path' = Filename.temp_file "topo" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove path')
    (fun () ->
      Dataset.save ~path t;
      let t' = Dataset.load ~path in
      check_int "n" (T.n t) (T.n t');
      Alcotest.(check (array (pair int int))) "edges" (G.edges t.T.graph) (G.edges t'.T.graph);
      for v = 0 to T.n t - 1 do
        check_bool "kind" true (Nm.kind_equal t.T.kinds.(v) t'.T.kinds.(v));
        check_int "tier" t.T.tiers.(v) t'.T.tiers.(v);
        Alcotest.(check string) "name" t.T.names.(v) t'.T.names.(v)
      done;
      (* Relations survive with orientation, and saving again reproduces
         the file byte for byte. *)
      check_bool "labels preserved" true (Bytes.equal t.T.arc_relations t'.T.arc_relations);
      Dataset.save ~path:path' t';
      check_bool "file reproduced" true (String.equal (read_file path) (read_file path')))

(* One malformed file per loader error, each named by the line at fault. *)
let malformed_files =
  [
    ("extra_edge.txt", "Dataset.load: line 7: more edges than the header's 2");
    ("node_id_out_of_range.txt", "Dataset.load: line 4: node id 3 outside [0, 3)");
    ("endpoint_out_of_range.txt", "Dataset.load: line 5: endpoint 7 outside [0, 3)");
    ("negative_count.txt", "Dataset.load: line 1: negative edge count -1");
    ("self_loop.txt", "Dataset.load: line 5: self-loop on 1");
    ("unknown_relation.txt", "Dataset.load: line 5: unknown relation \"xx\"");
    ("empty.txt", "Dataset.load: line 1: bad header");
    ( "huge_node_count.txt",
      "Dataset.load: line 2: end of file after 0 of the header's 99999999999999 nodes" );
    ( "huge_edge_count.txt",
      "Dataset.load: line 6: end of file after 1 of the header's 4611686018427387903 edges" );
    ("node_out_of_order.txt", "Dataset.load: line 3: node id 2 out of order, expected 1");
  ]

let test_dataset_malformed () =
  List.iter
    (fun (file, msg) ->
      Alcotest.check_raises file (Failure msg) (fun () ->
          ignore (Dataset.load ~path:(Filename.concat "fixtures/topology" file))))
    malformed_files

let suite =
  [
    ( "topo.relations",
      [
        Alcotest.test_case "c2p orientation" `Quick test_relations_c2p_orientation;
        Alcotest.test_case "peer & ixp" `Quick test_relations_peer_ixp;
        Alcotest.test_case "self edge" `Quick test_relations_self_edge;
        relation_csrs;
      ] );
    ( "topo.classic",
      [
        Alcotest.test_case "ER size" `Quick test_er_size;
        Alcotest.test_case "WS lattice degree" `Quick test_ws_degree;
        Alcotest.test_case "WS rewired" `Quick test_ws_rewired_connect;
        Alcotest.test_case "WS bad k" `Quick test_ws_bad_k;
        Alcotest.test_case "BA heavy tail" `Quick test_ba_heavy_tail;
      ] );
    ( "topo.internet",
      [
        Alcotest.test_case "Table-2 shape" `Quick test_internet_table2_shape;
        Alcotest.test_case "giant component" `Quick test_internet_giant_component;
        Alcotest.test_case "deterministic" `Quick test_internet_deterministic;
        Alcotest.test_case "relations complete" `Quick test_internet_relations_complete;
        Alcotest.test_case "relation/node kinds" `Quick test_internet_ixp_edges_touch_ixps;
        Alcotest.test_case "tier-1 clique" `Quick test_internet_tiers;
        Alcotest.test_case "small world" `Quick test_internet_small_world;
        Alcotest.test_case "scaled bounds" `Quick test_internet_scaled_bounds;
      ] );
    ( "topo.topology",
      [
        Alcotest.test_case "counts" `Quick test_topology_counts;
        Alcotest.test_case "ases only" `Quick test_topology_ases_only;
      ] );
    ( "topo.dataset",
      [
        Alcotest.test_case "roundtrip" `Quick test_dataset_roundtrip;
        Alcotest.test_case "malformed files" `Quick test_dataset_malformed;
      ] );
  ]
