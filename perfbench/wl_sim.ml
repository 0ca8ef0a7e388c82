(* sim_steady and sim_churn: the flow-level brokerage simulator at the
   X6-X8 scale. sim_steady is the read path (Zipf sessions, Flush cache,
   no faults, no topology updates): about half the path-cache lookups
   hit. sim_churn is the write path (gravity sessions, independent
   broker faults with failover and retry, Ring cache, a 64-op topology
   burst spread over the run): almost every lookup recomputes a
   dominated path. *)

open Harness
module T = Broker_topo.Topology
module G = Broker_graph.Graph
module Sim = Broker_sim.Simulator
module Workload = Broker_sim.Workload
module Faults = Broker_sim.Faults
module Stream = Broker_sim.Topo_stream
module Cache = Broker_sim.Shard_cache

let base_scale = 0.05
let steady_sessions = 20_000
let churn_sessions = 6_000
let churn_updates = 64

type kind = Steady | Churn

type env = {
  topo : T.t;
  brokers : int array;
  sessions : Workload.session array;
  config : Sim.config;
  chaos : Sim.chaos option;
  churn : Sim.topo_churn option;
  cache : Cache.strategy;
}

let setup kind (opts : opts) () =
  let scale = base_scale *. opts.scale in
  let topo =
    span ~layer:"topology" "topology.generate" (fun () ->
        Broker_topo.Internet.generate (topo_params scale))
  in
  let g = topo.T.graph in
  let n = G.n g in
  let order =
    span ~layer:"core" "core.maxsg.order" (fun () -> Broker_core.Maxsg.run_to_saturation g)
  in
  let k = min (Array.length order) (max 8 (int_of_float (1000.0 *. scale))) in
  let brokers = Array.sub order 0 k in
  let config = Sim.degree_capacity g ~factor:0.25 in
  match kind with
  | Steady ->
      let sessions =
        span ~layer:"sim" "sim.setup.workload" (fun () ->
            Workload.generate ~rng:(rng opts.seed 1) (Workload.zipf ~n ()) ~n_sessions:steady_sessions
              Workload.default_params)
      in
      { topo; brokers; sessions; config; chaos = None; churn = None; cache = Cache.Flush }
  | Churn ->
      let sessions =
        span ~layer:"sim" "sim.setup.workload" (fun () ->
            (* The traffic matrix belongs to the fixed data set, like
               the topology; the seed draws the sessions from it. *)
            let model = Broker_core.Traffic.gravity ~rng:(rng topology_seed 3) g in
            Workload.generate ~rng:(rng opts.seed 4) model ~n_sessions:churn_sessions
              Workload.default_params)
      in
      let last = sessions.(Array.length sessions - 1).Workload.arrival in
      let horizon = last +. 20.0 in
      let faults =
        span ~layer:"sim" "sim.setup.faults" (fun () ->
            Faults.generate ~rng:(rng opts.seed 5) topo ~brokers ~horizon
              (Faults.Independent { mtbf = horizon /. 8.0; mttr = 20.0 }))
      in
      let updates =
        span ~layer:"sim" "sim.setup.topo_stream" (fun () ->
            let ops = Stream.burst ~rng:(rng opts.seed 6) g ~size:churn_updates in
            let m = float_of_int (Array.length ops) in
            Array.mapi
              (fun i op -> { Stream.time = last *. (float_of_int i +. 0.5) /. m; op })
              ops)
      in
      {
        topo;
        brokers;
        sessions;
        config;
        chaos = Some (Sim.default_chaos faults);
        churn = Some { Sim.updates; propagation = Stream.Centralized { delay = 1.0 } };
        cache = Cache.Ring { vnodes = Cache.default_vnodes };
      }

let simulate env =
  span ~layer:"sim" "sim.simulator.run" (fun () ->
      Sim.run ?chaos:env.chaos ?topo:env.churn ~cache:env.cache env.topo ~brokers:env.brokers
        ~sessions:env.sessions env.config)

let digest_stats h (s : Sim.stats) =
  List.iter (digest_int h)
    [
      s.offered; s.admitted; s.rejected_no_path; s.rejected_capacity; s.rejected_shed;
      s.peak_in_flight; s.failed_over; s.dropped_midflight; s.retried_admitted; s.topo_applied;
      s.topo_ignored; s.cache.lookups; s.cache.hits; s.cache.served_degraded;
      s.cache.repaired_lazily; s.cache.recomputed; s.cache.evicted; s.cache.flushed;
    ];
  List.iter (digest_float h)
    [
      s.admission_rate; s.mean_hops; s.employee_hop_fraction; s.mean_broker_utilization; s.revenue;
      s.broker_downtime; s.revenue_lost; s.availability;
    ]

let check_stats h env (s : Sim.stats) =
  let offered = if h.opts.perturb then s.offered + 1 else s.offered in
  check h "offered = admitted + rejected (no path, capacity, shed)"
    (offered = s.admitted + s.rejected_no_path + s.rejected_capacity + s.rejected_shed);
  check h "every session offered" (s.offered = Array.length env.sessions);
  let c = s.cache in
  check h "cache lookups = hits + degraded + repaired + recomputed"
    (c.lookups = c.hits + c.served_degraded + c.repaired_lazily + c.recomputed);
  let delivered = match env.churn with None -> 0 | Some tc -> Array.length tc.Sim.updates in
  check h "topo applied + ignored = delivered updates" (s.topo_applied + s.topo_ignored = delivered);
  digest_stats h s

(* Distinct (src, dst) pairs in arrival order. *)
let distinct_pairs env =
  let seen = Hashtbl.create 4096 in
  Array.fold_left
    (fun acc (s : Workload.session) ->
      if Hashtbl.mem seen (s.src, s.dst) then acc
      else begin
        Hashtbl.add seen (s.src, s.dst) ();
        (s.src, s.dst) :: acc
      end)
    [] env.sessions
  |> List.rev |> Array.of_list

(* Trace-only probes. Dominated-path cost is timed over the workload's
   distinct pairs on the static topology; the cache is timed by replaying
   the session key stream against those precomputed paths, so the probe
   measures the cache alone. The library counters are off here, so they
   describe the simulator run only. *)
let probes h env =
  Broker_obs.Control.set_enabled false;
  let n = G.n env.topo.T.graph in
  let is_b = Array.make n false in
  Array.iter (fun b -> is_b.(b) <- true) env.brokers;
  let is_broker v = is_b.(v) in
  let view = Broker_graph.View.of_graph env.topo.T.graph in
  let pairs = distinct_pairs env in
  let paths = Hashtbl.create (Array.length pairs) in
  let name = "core.dominating.find_dominated_path_view" in
  span ~layer:"core" name (fun () ->
      Array.iter
        (fun (u, v) ->
          let p = Broker_core.Dominating.find_dominated_path_view view ~is_broker u v in
          Hashtbl.replace paths (u, v) (match p with [] -> None | p -> Some (Array.of_list p)))
        pairs);
  let np = float_of_int (Array.length pairs) in
  metric h "core.dominating.us_per_path" "us" (span_s name *. 1e6 /. np);
  metric h "core.dominating.words_per_path" "words" (words name (fun s -> s.minor_words) /. np);
  let cache = Cache.create ~strategy:env.cache ~n ~shards:env.brokers () in
  let find = "sim.shard_cache.find" in
  span ~layer:"sim" find (fun () ->
      Array.iter
        (fun (s : Workload.session) ->
          ignore
            (Cache.find cache ~compute:(fun () -> Hashtbl.find paths (s.src, s.dst)) s.src s.dst))
        env.sessions);
  metric h "sim.shard_cache.lookup_ns" "ns"
    (span_s find *. 1e9 /. float_of_int (Array.length env.sessions))

let run kind h =
  let opts = h.opts in
  let n_sessions env = float_of_int (Array.length env.sessions) in
  if opts.trace then begin
    Broker_obs.Control.set_enabled true;
    tracing := true;
    let env = span ~layer:"bench" "bench.setup" (setup kind opts) in
    let s = traced_pass h ~work:(fun () -> simulate env) ~equal:Sim.stats_equal in
    check_stats h env s;
    probes h env;
    let runs = float_of_int (count "sim.simulator.run") in
    metric h "sim.simulator.major_words_per_session" "words"
      (words "sim.simulator.run" (fun s -> s.major_words) /. (runs *. n_sessions env));
    let c = s.Sim.cache in
    metric h "sim.cache.hit_ratio" "ratio"
      (per ~num:(float_of_int (c.hits + c.served_degraded)) ~den:(float_of_int c.lookups));
    metric h "sim.setup.workload_s" "s" (span_s "sim.setup.workload");
    metric h "sim.setup.faults_s" "s" (span_s "sim.setup.faults");
    metric h "sim.setup.topo_stream_s" "s" (span_s "sim.setup.topo_stream");
    finish_trace h
  end
  else begin
    let env = setup_reps h (setup kind opts) in
    let s = simulate env in
    let same = ref true in
    let runs = ref [] in
    (* Each run starts from a collected heap, so runs do not inherit the
       previous run's collector debt. *)
    for_seconds ~budget:opts.seconds (fun _ ->
        Gc.full_major ();
        same := Sim.stats_equal s (timed runs () (fun () -> simulate env)) && !same);
    check h "every timed run reproduces the fixed run's stats" !same;
    let times = times !runs in
    check_stats h env s;
    let rate = n_sessions env /. median times in
    info h "sessions_per_s" "1/s" rate;
    info h "sim_runs" "count" (float_of_int (List.length times));
    metric h "throughput_per_s" "1/s" rate;
    metric h "latency_ms" "ms" (1000.0 *. median times)
  end
