(* Tests for valley-free policy machinery: Broker_routing.Policy, Bgp,
   Stitch, and Broker_core.Directional. Uses a small hand-built topology
   with known business relationships. *)

open Helpers
module G = Broker_graph.Graph
module Nm = Broker_topo.Node_meta
module T = Broker_topo.Topology
module Policy = Broker_routing.Policy
module Bgp = Broker_routing.Bgp
module Directional = Broker_core.Directional
module Conn = Broker_core.Connectivity
module Oracle = Oracle_valley_free

(* Hand-built topology:

      0 ------- 1        tier-1 peers
     / \         \
    2   3         4      transit (customers of tier-1)
    |   |        / \
    5   6       7   8    stubs (customers of transit)

    plus IXP 9 with members 2 and 4 (peering fabric),
    plus a direct peering link 3 -- 4.                      *)
let fixture_edges =
  [|
    (0, 1, Nm.arc_peer);
    (2, 0, Nm.arc_up);
    (3, 0, Nm.arc_up);
    (4, 1, Nm.arc_up);
    (5, 2, Nm.arc_up);
    (6, 3, Nm.arc_up);
    (7, 4, Nm.arc_up);
    (8, 4, Nm.arc_up);
    (2, 9, Nm.arc_ixp);
    (4, 9, Nm.arc_ixp);
    (3, 4, Nm.arc_peer);
  |]

let fixture_of edges =
  let kinds =
    [|
      Nm.Tier1; Nm.Tier1; Nm.Transit; Nm.Transit; Nm.Transit; Nm.Enterprise;
      Nm.Content; Nm.Access; Nm.Enterprise; Nm.Ixp;
    |]
  in
  let tiers = [| 1; 1; 2; 2; 2; 3; 3; 3; 3; 0 |] in
  let names = Array.init 10 (fun i -> Printf.sprintf "N%d" i) in
  T.make ~kinds ~tiers ~names ~n:10 edges

let fixture () = fixture_of fixture_edges

(* The fixture plus an AS–AS edge 6 -- 7 with no recorded relation, and
   an AS–AS edge 5 -- 8 labelled as an IXP membership (a peering for
   every consumer). *)
let fixture_with_unknown () =
  fixture_of (Array.append fixture_edges [| (6, 7, Nm.arc_none); (5, 8, Nm.arc_ixp) |])

(* ---------- Policy ---------- *)

let test_policy_classify () =
  let t = fixture () in
  check_bool "up" true (Policy.classify t 2 0 = Policy.Up);
  check_bool "down" true (Policy.classify t 0 2 = Policy.Down);
  check_bool "flat" true (Policy.classify t 0 1 = Policy.Flat);
  check_bool "into fabric" true (Policy.classify t 2 9 = Policy.Into_fabric);
  check_bool "out of fabric" true (Policy.classify t 9 4 = Policy.Out_of_fabric)

let test_policy_classify_non_edge () =
  let t = fixture () in
  Alcotest.check_raises "non-edge" (Invalid_argument "Policy.classify: not an edge")
    (fun () -> ignore (Policy.classify t 5 6))

let test_policy_valley_free_accepts () =
  let t = fixture () in
  (* Up, peer at the top, down: 5 -> 2 -> 0 -> 1 -> 4 -> 7. *)
  check_bool "classic valley-free" true (Policy.valley_free t [ 5; 2; 0; 1; 4; 7 ]);
  (* Pure ascent. *)
  check_bool "ascent" true (Policy.valley_free t [ 5; 2; 0 ]);
  (* Pure descent. *)
  check_bool "descent" true (Policy.valley_free t [ 0; 2; 5 ]);
  (* Through the IXP fabric: 5 -> 2 -> 9 -> 4 -> 8. *)
  check_bool "via ixp" true (Policy.valley_free t [ 5; 2; 9; 4; 8 ]);
  (* Direct peering at the peak: 6 -> 3 -> 4 -> 7. *)
  check_bool "peer peak" true (Policy.valley_free t [ 6; 3; 4; 7 ])

let test_policy_valley_free_rejects () =
  let t = fixture () in
  (* Down then up: a valley. 0 -> 2 -> ... cannot climb back: 5 -> 2 is
     down-up? Build: 0 -> 3 -> 6 is descent, then 6 has no up after...
     use 2 -> 0 -> 1 -> 4 then up again 4 -> ... no up edge from 4 except
     to 1. Valley: 5 -> 2 -> 0 (up,up) then 0 -> 3 (down) then 3 -> 4
     (peer after descent - illegal). *)
  check_bool "peer after descent" false (Policy.valley_free t [ 5; 2; 0; 3; 4 ]);
  (* Two peer hops: 3 -> 4 peer then 4 -> 9 -> 2 fabric peer. *)
  check_bool "second peering" false (Policy.valley_free t [ 3; 4; 9; 2 ]);
  (* Peer hop while already descending. *)
  check_bool "peer while descending" false (Policy.valley_free t [ 0; 3; 4 ]);
  (* Up after down. *)
  check_bool "up after down is a valley" false (Policy.valley_free t [ 0; 2; 0 ]);
  (* Non-edge path invalid. *)
  check_bool "non-edge" false (Policy.valley_free t [ 5; 6 ])

let test_policy_exports () =
  let t = fixture () in
  (* Routes learned from a customer (Down neighbor) export to everyone. *)
  check_bool "customer->peer" true
    (Policy.exports_to t ~learned_from:Policy.Down ~toward:Policy.Flat);
  (* Routes learned from a peer export only to customers. *)
  check_bool "peer->peer" false
    (Policy.exports_to t ~learned_from:Policy.Flat ~toward:Policy.Flat);
  check_bool "peer->customer" true
    (Policy.exports_to t ~learned_from:Policy.Flat ~toward:Policy.Down);
  check_bool "provider->provider" false
    (Policy.exports_to t ~learned_from:Policy.Up ~toward:Policy.Up)

(* ---------- Bgp ---------- *)

let test_bgp_routes_to_stub () =
  let t = fixture () in
  let routes = Bgp.routes_to t 5 in
  (* 5's provider chain: 2 then 0 have customer routes. *)
  (match routes.(2) with
  | Some r -> check_int "direct customer" 1 r.Bgp.hops
  | None -> Alcotest.fail "2 should reach 5");
  (match routes.(0) with
  | Some r ->
      check_int "two customer hops" 2 r.Bgp.hops;
      check_bool "via customer" true (r.Bgp.via = Bgp.Via_customer)
  | None -> Alcotest.fail "0 should reach 5");
  (* 1 reaches 5 via its peer 0 (peer route). *)
  (match routes.(1) with
  | Some r -> check_bool "via peer" true (r.Bgp.via = Bgp.Via_peer)
  | None -> Alcotest.fail "1 should reach 5");
  (* 6 reaches 5 via its provider 3 (provider route). *)
  (match routes.(6) with
  | Some r -> check_bool "via provider" true (r.Bgp.via = Bgp.Via_provider)
  | None -> Alcotest.fail "6 should reach 5");
  (* destination itself *)
  (match routes.(5) with
  | Some r -> check_int "self" 0 r.Bgp.hops
  | None -> Alcotest.fail "self route")

let test_bgp_prefers_customer () =
  let t = fixture () in
  (* Destination 7: AS 4 has customer route (1 hop). AS 3 has peer route via
     peering 3-4 (2 hops) even though provider route via 0-1-4 exists. *)
  let routes = Bgp.routes_to t 7 in
  (match routes.(3) with
  | Some r ->
      check_bool "peer preferred over provider" true (r.Bgp.via = Bgp.Via_peer);
      check_int "hops" 2 r.Bgp.hops
  | None -> Alcotest.fail "3 should reach 7")

let test_bgp_reachability_full_on_tree () =
  let t = fixture () in
  let frac = Bgp.reachable_fraction ~rng:(rng ()) ~destinations:9 t in
  (* Everything is reachable in this little hierarchy. *)
  check_float "full reachability" 1.0 frac;
  let len = Bgp.average_path_length ~rng:(rng ()) ~destinations:9 t in
  check_bool "positive path length" true (len > 0.0)

(* ---------- Directional ---------- *)

let test_directional_matches_policy () =
  let t = fixture () in
  (* With every node a broker, directional connectivity counts exactly the
     valley-free-reachable ordered pairs. Cross-check a few pairs against
     Policy.valley_free path existence. *)
  let sat =
    Directional.saturated_sampled ~rng:(rng ()) ~sources:10 t
      ~is_broker:(fun _ -> true)
  in
  check_bool "most pairs valley-free reachable" true (sat > 0.8)

let test_directional_broker_restriction () =
  let t = fixture () in
  (* No brokers: nothing moves. *)
  let sat =
    Directional.saturated_sampled ~rng:(rng ()) ~sources:10 t
      ~is_broker:(fun _ -> false)
  in
  check_float "zero" 0.0 sat

let test_directional_upgrades_monotone () =
  let t = fixture () in
  let brokers = [| 0; 1; 2; 3; 4 |] in
  let is_broker = Conn.of_brokers ~n:10 brokers in
  let source_set = Array.init 10 (fun i -> i) in
  let sat_plain =
    Directional.saturated_sampled ~source_set ~rng:(rng ()) ~sources:10 t ~is_broker
  in
  let upgrades =
    Directional.upgrade_broker_edges ~rng:(rng ()) t ~brokers ~fraction:1.0
  in
  let sat_up =
    Directional.saturated_sampled ~upgrades ~source_set ~rng:(rng ()) ~sources:10 t
      ~is_broker
  in
  check_bool "upgrades never hurt" true (sat_up >= sat_plain -. 1e-12);
  check_bool "some upgrades counted" true (Directional.upgrade_count upgrades > 0)

let test_directional_below_bidirectional () =
  let t = small_internet ~seed:6 ~scale:0.01 () in
  let g = t.T.graph in
  let n = G.n g in
  let brokers = Broker_core.Maxsg.run g ~k:20 in
  let is_broker = Conn.of_brokers ~n brokers in
  let source_set = Broker_util.Sampling.without_replacement (rng ()) ~n ~k:40 in
  let dir =
    Directional.saturated_sampled ~source_set ~rng:(rng ()) ~sources:40 t ~is_broker
  in
  let bidir =
    (Conn.sampled ~l_max:1 ~source_set ~rng:(rng ()) ~sources:40 g ~is_broker)
      .Conn.saturated
  in
  check_bool "valley-free <= bidirectional" true (dir <= bidir +. 1e-12)

let test_upgrade_fraction_bounds () =
  let t = fixture () in
  Alcotest.check_raises "fraction"
    (Invalid_argument "Directional.upgrade_broker_edges: fraction in [0,1]")
    (fun () ->
      ignore (Directional.upgrade_broker_edges ~rng:(rng ()) t ~brokers:[| 0 |] ~fraction:1.5))

let test_upgrades_other_graph () =
  let t1 = fixture () and t2 = fixture () in
  let brokers = [| 0; 1; 2; 3; 4 |] in
  let upgrades = Directional.upgrade_broker_edges ~rng:(rng ()) t1 ~brokers ~fraction:1.0 in
  Alcotest.check_raises "other graph"
    (Invalid_argument "Directional: upgrades built on a different graph") (fun () ->
      ignore
        (Directional.saturated_sampled ~upgrades ~rng:(rng ()) ~sources:10 t2
           ~is_broker:(fun _ -> true)));
  (* The empty set fits every graph. *)
  ignore
    (Directional.saturated_sampled ~upgrades:Directional.no_upgrades ~rng:(rng ())
       ~sources:10 t2 ~is_broker:(fun _ -> true))

(* ---------- Differential oracle ---------- *)

(* Fixed-seed property runs ([Helpers.check_prop]): the label-based
   kernels against the hash-probing reference of oracle_valley_free.ml,
   bit for bit. *)

let upgrade_fractions = [ 0.0; 0.3; 1.0 ]

(* Per-source distances agree for every upgrade fraction (upgrade sets
   drawn from equal rng streams pick the same edges). *)
let directional_agrees topo ~brokers ~sources ~upgrade_seed =
  let is_broker = Conn.of_brokers ~n:(T.n topo) brokers in
  List.for_all
    (fun fraction ->
      let mk () = Broker_util.Xrandom.create upgrade_seed in
      let upgrades = Directional.upgrade_broker_edges ~rng:(mk ()) topo ~brokers ~fraction in
      let reference = Oracle.upgrade_broker_edges ~rng:(mk ()) topo ~brokers ~fraction in
      Directional.upgrade_count upgrades = Oracle.upgrade_count reference
      && Array.for_all
           (fun s ->
             Directional.distances ~upgrades topo ~is_broker s
             = Oracle.distances ~upgrades:reference topo ~is_broker s)
           sources)
    upgrade_fractions

let bgp_agrees topo dests =
  Array.for_all (fun d -> Bgp.routes_to topo d = Oracle.routes_to topo d) dests

(* Per-source distances folded into a curve through the float
   arithmetic every evaluator shares. *)
let curve_of_distances ~l_max ~n dists =
  let hist = Array.make (l_max + 1) 0 and reached = ref 0 in
  List.iter
    (Array.iter (fun d ->
         if d > 0 then begin
           incr reached;
           if d <= l_max then hist.(d) <- hist.(d) + 1
         end))
    dists;
  Conn.curve_of_counts ~l_max ~hist ~reached:!reached ~total:(List.length dists * (n - 1))

(* Multi-source curves (l_max 1 and 10) and saturated values agree with
   curves built from the oracle's distances, for every upgrade fraction:
   the kernels count reached vertices inside the sweep, not through
   [distances]. *)
let curves_agree topo ~brokers ~sources ~upgrade_seed =
  let n = T.n topo in
  let is_broker = Conn.of_brokers ~n brokers in
  let rng = Broker_util.Xrandom.create 0 in
  List.for_all
    (fun fraction ->
      let mk () = Broker_util.Xrandom.create upgrade_seed in
      let upgrades = Directional.upgrade_broker_edges ~rng:(mk ()) topo ~brokers ~fraction in
      let reference = Oracle.upgrade_broker_edges ~rng:(mk ()) topo ~brokers ~fraction in
      let dists =
        List.map (Oracle.distances ~upgrades:reference topo ~is_broker) (Array.to_list sources)
      in
      List.for_all
        (fun l_max ->
          Directional.curve_sampled ~l_max ~upgrades ~source_set:sources ~rng ~sources:0 topo
            ~is_broker
          = curve_of_distances ~l_max ~n dists)
        [ 1; 10 ]
      && Directional.saturated_sampled ~upgrades ~source_set:sources ~rng ~sources:0 topo
           ~is_broker
         = (curve_of_distances ~l_max:1 ~n dists).Conn.saturated)
    upgrade_fractions

let instance_arb =
  QCheck.make
    ~print:(fun (seed, scale, prefix) ->
      Printf.sprintf "<seed=%d scale=%.3f prefix=%.2f>" seed scale prefix)
    QCheck.Gen.(
      triple (int_range 0 100_000) (float_range 0.01 0.05) (float_range 0.0 1.0))

let differential_generated =
  check_prop ~seed:20170611 "label kernels = hash-probing oracle" instance_arb
    (fun (seed, scale, prefix) ->
      let topo = small_internet ~seed ~scale () in
      let n = T.n topo in
      let order = Broker_core.Maxsg.run_to_saturation topo.T.graph in
      let k = int_of_float (prefix *. float_of_int (Array.length order)) in
      let brokers = Array.sub order 0 k in
      let rng = Broker_util.Xrandom.create seed in
      let sources = Broker_util.Sampling.without_replacement rng ~n ~k:(min 6 n) in
      let ases = T.ases topo in
      let dests =
        Array.map
          (fun i -> ases.(i))
          (Broker_util.Sampling.without_replacement rng ~n:(Array.length ases)
             ~k:(min 4 (Array.length ases)))
      in
      directional_agrees topo ~brokers ~sources ~upgrade_seed:(seed + 1)
      && directional_agrees topo ~brokers:order ~sources ~upgrade_seed:(seed + 2)
      && Array.for_all
           (fun s ->
             Directional.distances topo ~is_broker:Conn.unrestricted s
             = Oracle.distances topo ~is_broker:Conn.unrestricted s)
           sources
      && bgp_agrees topo dests)

let differential_curves =
  check_prop ~count:6 ~seed:20170612 "curves = oracle-built curves" instance_arb
    (fun (seed, scale, prefix) ->
      let topo = small_internet ~seed ~scale () in
      let n = T.n topo in
      let order = Broker_core.Maxsg.run_to_saturation topo.T.graph in
      let k = int_of_float (prefix *. float_of_int (Array.length order)) in
      let sources =
        Broker_util.Sampling.without_replacement (Broker_util.Xrandom.create seed) ~n
          ~k:(min 8 n)
      in
      curves_agree topo ~brokers:(Array.sub order 0 k) ~sources ~upgrade_seed:(seed + 1)
      && curves_agree topo ~brokers:order ~sources ~upgrade_seed:(seed + 2))

(* Random graphs through [Topology.make]: IXPs anywhere and every label
   byte on every kind pair, including labels no generator writes (a
   provider arc into a fabric, a peering between two IXPs). *)
let differential_adversarial =
  check_prop ~count:150 ~seed:20170613 "adversarial labels = oracle" topology_arbitrary
    (fun (seed, n, m) ->
      let rng = Broker_util.Xrandom.create seed in
      let topo = random_topology rng ~n ~m in
      let all = Array.init n Fun.id in
      let brokers =
        Array.of_list (List.filter (fun _ -> Broker_util.Xrandom.bool rng) (Array.to_list all))
      in
      directional_agrees topo ~brokers ~sources:all ~upgrade_seed:seed
      && directional_agrees topo ~brokers:all ~sources:all ~upgrade_seed:(seed + 1)
      && curves_agree topo ~brokers ~sources:all ~upgrade_seed:(seed + 2)
      && bgp_agrees topo all)

let test_differential_fixture_unknown () =
  let t = fixture_with_unknown () in
  let all = Array.init 10 Fun.id in
  check_bool "directional = oracle" true
    (directional_agrees t ~brokers:[| 0; 1; 2; 3; 4; 6 |] ~sources:all ~upgrade_seed:3
    && directional_agrees t ~brokers:all ~sources:all ~upgrade_seed:4);
  check_bool "bgp = oracle" true (bgp_agrees t all);
  (* Directional: the relation-less edge is a peering hop. *)
  check_bool "classified flat" true (Policy.classify t 6 7 = Policy.Flat);
  let d = Directional.distances t ~is_broker:(fun _ -> true) 6 in
  check_int "6 -> 7 over the unknown edge" 1 d.(7);
  (* Bgp: it carries no route; 6 still reaches 7 via 3, 4. *)
  match (Bgp.routes_to t 7).(6) with
  | Some r ->
      check_int "provider route hops" 3 r.Bgp.hops;
      check_bool "via provider" true (r.Bgp.via = Bgp.Via_provider)
  | None -> Alcotest.fail "6 should reach 7"

(* ---------- Arc labels ---------- *)

let test_labels_one_per_arc () =
  let t = fixture () in
  check_int "one label per arc" (G.arcs t.T.graph) (Bytes.length t.T.arc_relations);
  check_bool "arc 2->0 up" true (arc_label t 2 0 = Nm.arc_up);
  check_bool "arc 0->2 down" true (arc_label t 0 2 = Nm.arc_down)

(* ---------- Stitch ---------- *)

let test_stitch_simple () =
  let t = fixture () in
  let is_broker v = v = 2 || v = 0 || v = 1 || v = 4 in
  match Broker_routing.Stitch.stitch t.T.graph ~is_broker ~src:5 ~dst:7 with
  | None -> Alcotest.fail "path should exist"
  | Some s ->
      check_bool "path endpoints" true
        (List.hd s.Broker_routing.Stitch.path = 5
        && List.nth s.Broker_routing.Stitch.path (List.length s.Broker_routing.Stitch.path - 1) = 7);
      check_bool "dominated" true
        (Broker_core.Dominating.is_dominated_path ~is_broker s.Broker_routing.Stitch.path);
      (* Shortest dominated route is 5-2-9-4-7: the IXP fabric 9 sits
         between brokers 2 and 4 and is "hired". *)
      Alcotest.(check (list int)) "fabric hop hired" [ 9 ] s.Broker_routing.Stitch.employees

let test_stitch_with_employee () =
  (* Brokers 0 and 2 with a non-broker 1 between them: path 0-1-2 hires 1. *)
  let g = path_graph 3 in
  let is_broker v = v = 0 || v = 2 in
  match Broker_routing.Stitch.stitch g ~is_broker ~src:0 ~dst:2 with
  | None -> Alcotest.fail "path should exist"
  | Some s ->
      Alcotest.(check (list int)) "employee is 1" [ 1 ] s.Broker_routing.Stitch.employees;
      check_int "employee hops" 2 (Broker_routing.Stitch.total_employee_hops s)

let test_stitch_none () =
  let g = G.of_edges ~n:4 [| (0, 1); (2, 3) |] in
  check_bool "no path" true
    (Broker_routing.Stitch.stitch g ~is_broker:(fun _ -> true) ~src:0 ~dst:3 = None)

let suite =
  [
    ( "routing.policy",
      [
        Alcotest.test_case "classify" `Quick test_policy_classify;
        Alcotest.test_case "classify non-edge" `Quick test_policy_classify_non_edge;
        Alcotest.test_case "valley-free accepts" `Quick test_policy_valley_free_accepts;
        Alcotest.test_case "valley-free rejects" `Quick test_policy_valley_free_rejects;
        Alcotest.test_case "export rules" `Quick test_policy_exports;
      ] );
    ( "routing.bgp",
      [
        Alcotest.test_case "routes to stub" `Quick test_bgp_routes_to_stub;
        Alcotest.test_case "class preference" `Quick test_bgp_prefers_customer;
        Alcotest.test_case "reachability" `Quick test_bgp_reachability_full_on_tree;
      ] );
    ( "core.directional",
      [
        Alcotest.test_case "matches policy" `Quick test_directional_matches_policy;
        Alcotest.test_case "broker restriction" `Quick test_directional_broker_restriction;
        Alcotest.test_case "upgrades monotone" `Quick test_directional_upgrades_monotone;
        Alcotest.test_case "below bidirectional" `Quick test_directional_below_bidirectional;
        Alcotest.test_case "fraction bounds" `Quick test_upgrade_fraction_bounds;
        Alcotest.test_case "upgrades tied to their graph" `Quick test_upgrades_other_graph;
      ] );
    ( "routing.valley_oracle",
      [
        differential_generated;
        differential_curves;
        differential_adversarial;
        Alcotest.test_case "fixture with unknown relation" `Quick
          test_differential_fixture_unknown;
      ] );
    ( "topology.arc_relations",
      [
        Alcotest.test_case "one label per arc" `Quick test_labels_one_per_arc;
      ] );
    ( "routing.stitch",
      [
        Alcotest.test_case "simple" `Quick test_stitch_simple;
        Alcotest.test_case "employee hop" `Quick test_stitch_with_employee;
        Alcotest.test_case "no path" `Quick test_stitch_none;
      ] );
  ]
