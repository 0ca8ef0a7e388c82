(* valley_free: the Fig. 5b/5c valley-free connectivity grid and BGP
   routing on the pinned-scale topology. Nearly all time is in core
   (Directional) and routing (Bgp); nothing here touches sim or the
   incremental tracker. *)

open Harness
module T = Broker_topo.Topology
module G = Broker_graph.Graph
module Conn = Broker_core.Connectivity
module Dir = Broker_core.Directional
module Bgp = Broker_routing.Bgp
module X = Broker_util.Xrandom

let base_scale = 0.1
let n_sources = 96
let fractions = [| 0.0; 0.3; 1.0 |]
let n_dests = 64

(* Sources and destinations whose full outputs feed the checks and the
   digest; a fixed prefix of the seed's samples. *)
let check_sources = 4
let check_dests = 8
let l_max = 10

type cell = { is_broker : int -> bool; upgrades : Dir.upgrades }

type env = {
  topo : T.t;
  sources : int array;
  budgets : int array;
  is_brokers : (int -> bool) array;  (** one per budget *)
  grid : cell array;  (** budget-major, fractions in order *)
  dests : int array;
  rng0 : X.t;  (** unused by pinned-source calls; required by the API *)
}

let scale opts = base_scale *. opts.scale
let scale_count opts c = max 1 (int_of_float (float_of_int c *. scale opts))

let setup (opts : opts) () =
  let topo =
    span ~layer:"topology" "topology.generate" (fun () ->
        Broker_topo.Internet.generate (topo_params (scale opts)))
  in
  let g = topo.T.graph in
  let n = G.n g in
  let order =
    span ~layer:"core" "core.maxsg.order" (fun () -> Broker_core.Maxsg.run_to_saturation g)
  in
  let sat = Array.length order in
  let budgets =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.map (fun c -> min sat (scale_count opts c)) [ 100; 500; 1000; 2000 ] @ [ sat ]))
  in
  let sources, dests =
    span ~layer:"util" "util.sampling" (fun () ->
        let sources =
          Broker_util.Sampling.without_replacement (rng opts.seed 1) ~n
            ~k:(min n_sources n)
        in
        let ases = T.ases topo in
        let pick =
          Broker_util.Sampling.without_replacement (rng opts.seed 2)
            ~n:(Array.length ases) ~k:(min n_dests (Array.length ases))
        in
        (sources, Array.map (fun i -> ases.(i)) pick))
  in
  let is_brokers = Array.map (fun k -> Conn.of_brokers ~n (Array.sub order 0 k)) budgets in
  let grid =
    span ~layer:"core" "core.directional.upgrades" (fun () ->
        Array.concat
          (Array.to_list
             (Array.mapi
                (fun bi k ->
                  let brokers = Array.sub order 0 k in
                  Array.mapi
                    (fun fi fraction ->
                      let upgrades =
                        Dir.upgrade_broker_edges
                          ~rng:(rng opts.seed (100 + (10 * bi) + fi))
                          topo ~brokers ~fraction
                      in
                      { is_broker = is_brokers.(bi); upgrades })
                    fractions)
                budgets)))
  in
  { topo; sources; budgets; is_brokers; grid; dests; rng0 = X.create 0 }

(* One valley-free traversal: a single pinned source on one grid cell. *)
let vf env ~source cell =
  span ~layer:"core" "core.directional.saturated_sampled" (fun () ->
      Dir.saturated_sampled ~upgrades:cell.upgrades ~source_set:[| source |] ~rng:env.rng0
        ~sources:1 env.topo ~is_broker:cell.is_broker)

let routes env d = span ~layer:"routing" "routing.bgp.routes_to" (fun () -> Bgp.routes_to env.topo d)

(* BGP routes ending at d, as counts of routed ASes by hop bound. *)
let bgp_counts (routes : Bgp.route option array) d =
  let counts = Array.make (l_max + 1) 0 in
  Array.iteri
    (fun v r ->
      match r with
      | Some { Bgp.hops; _ } when v <> d && hops >= 1 && hops <= l_max ->
          for l = hops to l_max do
            counts.(l) <- counts.(l) + 1
          done
      | Some _ | None -> ())
    routes;
  counts

let route_summary (routes : Bgp.route option array) =
  Array.fold_left
    (fun (routed, hops, cust, peer) r ->
      match r with
      | None -> (routed, hops, cust, peer)
      | Some { Bgp.hops = h; via } ->
          ( routed + 1,
            hops + h,
            (cust + match via with Bgp.Via_customer -> 1 | Via_peer | Via_provider -> 0),
            peer + match via with Bgp.Via_peer -> 1 | Via_customer | Via_provider -> 0 ))
    (0, 0, 0, 0) routes

(* The fixed work: every grid cell for the first [check_sources] sources,
   the bidirectional oracle on the same sources, and BGP against
   unrestricted valley-free reach for the first [check_dests]
   destinations. *)
type fixed = {
  vf_cells : float array array;  (** [source][cell] *)
  bidir : float array array;  (** [source][budget] *)
  bgp : (int * int * int * int) array;
  bgp_le : int array array;  (** [dest][l]: ASes with a BGP route <= l hops *)
  vf_le : int array array;  (** [dest][l]: valley-free pairs within l hops *)
}

let fixed_work env () =
  let n = G.n env.topo.T.graph in
  let srcs = Array.sub env.sources 0 (min check_sources (Array.length env.sources)) in
  let vf_cells = Array.map (fun s -> Array.map (fun c -> vf env ~source:s c) env.grid) srcs in
  let bidir =
    Array.map
      (fun s ->
        Array.map
          (fun is_broker ->
            span ~layer:"core" "core.connectivity.sampled" (fun () ->
                (Conn.sampled ~l_max:1 ~source_set:[| s |] ~rng:env.rng0 ~sources:1
                   env.topo.T.graph ~is_broker)
                  .Conn.saturated))
          env.is_brokers)
      srcs
  in
  let dests = Array.sub env.dests 0 (min check_dests (Array.length env.dests)) in
  let routed = Array.map (fun d -> routes env d) dests in
  let vf_le =
    Array.map
      (fun d ->
        let c =
          span ~layer:"core" "core.directional.curve_sampled" (fun () ->
              Dir.curve_sampled ~l_max ~source_set:[| d |] ~rng:env.rng0 ~sources:1 env.topo
                ~is_broker:Conn.unrestricted)
        in
        Array.map (fun p -> Float.to_int (Float.round (p *. float_of_int (n - 1)))) c.Conn.per_hop)
      dests
  in
  {
    vf_cells;
    bidir;
    bgp = Array.map route_summary routed;
    bgp_le = Array.mapi (fun i r -> bgp_counts r dests.(i)) routed;
    vf_le;
  }

let equal_fixed a b =
  Array.for_all2 floats_eq a.vf_cells b.vf_cells
  && Array.for_all2 floats_eq a.bidir b.bidir
  && a.bgp = b.bgp && a.bgp_le = b.bgp_le && a.vf_le = b.vf_le

let check_fixed h env f =
  let nf = Array.length fractions in
  let nb = Array.length env.budgets in
  let bidir = Array.map Array.copy f.bidir in
  if h.opts.perturb then bidir.(0).(nb - 1) <- 0.0;
  Array.iteri
    (fun si cells ->
      let at bi fi = cells.((bi * nf) + fi) in
      for bi = 0 to nb - 1 do
        for fi = 1 to nf - 1 do
          check h
            (Printf.sprintf "vf monotone in upgrade fraction (source %d, budget %d)" si
               env.budgets.(bi))
            (at bi (fi - 1) <= at bi fi)
        done;
        for fi = 0 to nf - 1 do
          check h
            (Printf.sprintf "vf <= bidirectional (source %d, budget %d)" si env.budgets.(bi))
            (at bi fi <= bidir.(si).(bi))
        done
      done;
      for bi = 1 to nb - 1 do
        List.iter
          (fun fi ->
            check h
              (Printf.sprintf "vf monotone in budget (source %d, fraction %g)" si fractions.(fi))
              (at (bi - 1) fi <= at bi fi))
          [ 0; nf - 1 ]
      done)
    f.vf_cells;
  Array.iteri
    (fun di le ->
      for l = 1 to l_max do
        check h
          (Printf.sprintf "bgp routes within %d hops <= vf pairs (dest %d)" l di)
          (le.(l) <= f.vf_le.(di).(l))
      done)
    f.bgp_le;
  Array.iter (Array.iter (digest_float h)) f.vf_cells;
  Array.iter (Array.iter (digest_float h)) f.bidir;
  Array.iter
    (fun (a, b, c, d) -> List.iter (digest_int h) [ a; b; c; d ])
    f.bgp;
  Array.iter (Array.iter (digest_int h)) f.vf_le

(* Unit i of the valley-free loop: sources rotate fastest and cells shift
   by one each time the sources wrap, so any prefix of the loop spreads
   evenly over sources and cells. *)
let unit_of env i =
  let ns = Array.length env.sources in
  let nc = Array.length env.grid in
  (i mod ns, (i + (i / ns)) mod nc)

let run h =
  let opts = h.opts in
  if opts.trace then begin
    Broker_obs.Control.set_enabled true;
    tracing := true;
    let env = span ~layer:"bench" "bench.setup" (setup opts) in
    let f = traced_pass h ~work:(fixed_work env) ~equal:equal_fixed in
    check_fixed h env f;
    let cells = "core.directional.saturated_sampled" and bgp = "routing.bgp.routes_to" in
    metric h "core.directional.ms_per_source" "ms"
      (per ~num:(float_of_int (total_ns cells) /. 1e6) ~den:(float_of_int (count cells)));
    metric h "core.directional.minor_words_per_source" "words"
      (per ~num:(words cells (fun s -> s.minor_words)) ~den:(float_of_int (count cells)));
    metric h "routing.bgp.ms_per_dest" "ms"
      (per ~num:(float_of_int (total_ns bgp) /. 1e6) ~den:(float_of_int (count bgp)));
    metric h "routing.bgp.minor_words_per_dest" "words"
      (per ~num:(words bgp (fun s -> s.minor_words)) ~den:(float_of_int (count bgp)));
    finish_trace h
  end
  else begin
    let env = setup_reps h (setup opts) in
    let f = fixed_work env () in
    (* One timed region: every unit is a valley-free traversal, and every
       other unit also routes one BGP destination (about 60% / 40% of
       the time), so both figures average over the whole run. *)
    let vf_out = Hashtbl.create 256 and bgp_out = Hashtbl.create 64 in
    let vf_times = ref [] and bgp_times = ref [] in
    for_seconds ~budget:opts.seconds (fun i ->
        let si, ci = unit_of env i in
        let v = timed vf_times ci (fun () -> vf env ~source:env.sources.(si) env.grid.(ci)) in
        if si < Array.length f.vf_cells then Hashtbl.replace vf_out (si, ci) v;
        if i mod 2 = 1 then begin
          let di = i / 2 mod Array.length env.dests in
          let r = timed bgp_times di (fun () -> routes env env.dests.(di)) in
          if di < Array.length f.bgp then Hashtbl.replace bgp_out di (route_summary r)
        end);
    Hashtbl.iter
      (fun (si, ci) v -> check h "timed vf output equals fixed output" (float_eq v f.vf_cells.(si).(ci)))
      vf_out;
    Hashtbl.iter (fun di s -> check h "timed bgp output equals fixed output" (s = f.bgp.(di))) bgp_out;
    check_fixed h env f;
    let vf_rate = float_of_int (Array.length env.grid) /. sum_by_kind median !vf_times in
    let bgp_p50 = 1000.0 *. median (times !bgp_times) in
    let bgp_rate = 1000.0 /. bgp_p50 in
    info h "vf_sources_per_s" "1/s" vf_rate;
    info h "bgp_dests_per_s" "1/s" bgp_rate;
    info h "vf_traversals" "count" (float_of_int (List.length !vf_times));
    info h "bgp_dests" "count" (float_of_int (List.length !bgp_times));
    metric h "throughput_per_s" "1/s" vf_rate;
    metric h "latency_ms" "ms" bgp_p50
  end
