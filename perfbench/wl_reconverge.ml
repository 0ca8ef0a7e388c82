(* reconverge: the paper's full-scale topology with a 1,000-broker MaxSG
   prefix and 192 sources. A budget ladder of MS-BFS connectivity curves,
   then a stream of 8-op announce/withdraw bursts through the incremental
   tracker, each followed by a read of the curve. The work sits in graph
   (Msbfs, Projected, Delta) and core (Connectivity, Incremental) on a
   working set ten times the other workloads'. *)

open Harness
module G = Broker_graph.Graph
module Delta = Broker_graph.Delta
module Conn = Broker_core.Connectivity
module Incr = Broker_core.Incremental
module Stream = Broker_sim.Topo_stream

let brokers_k = 1000
let n_sources = 192
let ladder = [| 125; 250; 500; 1000 |]
let burst_size = 8
let n_bursts = 64

(* Bursts whose curves are in the fixed work, and how many of those are
   also replayed from scratch through Delta.compact. *)
let fixed_bursts = 16
let oracle_bursts = 3

type env = {
  g : G.t;
  sources : int array;
  ladder_preds : (int -> bool) array;
  is_broker : int -> bool;
  bursts : Incr.op array array;
  tracker : Incr.t;
}

let to_incr = function
  | Stream.Announce (u, v) -> Incr.Add (u, v)
  | Stream.Withdraw (u, v) -> Incr.Remove (u, v)

let inverse = Array.map (function Incr.Add (u, v) -> Incr.Remove (u, v) | Incr.Remove (u, v) -> Incr.Add (u, v))

let setup (opts : opts) () =
  let topo =
    span ~layer:"topology" "topology.generate" (fun () ->
        Broker_topo.Internet.generate (topo_params opts.scale))
  in
  let g = topo.Broker_topo.Topology.graph in
  let n = G.n g in
  let order = span ~layer:"core" "core.maxsg.order" (fun () -> Broker_core.Maxsg.run g ~k:brokers_k) in
  let prefix k = Conn.of_brokers ~n (Array.sub order 0 (min k (Array.length order))) in
  let sources =
    span ~layer:"util" "util.sampling" (fun () ->
        Broker_util.Sampling.without_replacement (rng opts.seed 1) ~n ~k:(min n_sources n))
  in
  let bursts =
    span ~layer:"sim" "sim.setup.topo_stream" (fun () ->
        Array.init n_bursts (fun i ->
            Array.map to_incr (Stream.burst ~rng:(rng opts.seed (100 + i)) g ~size:burst_size)))
  in
  let is_broker = prefix brokers_k in
  let tracker =
    span ~layer:"core" "core.incremental.create" (fun () -> Incr.create g ~is_broker ~sources)
  in
  { g; sources; ladder_preds = Array.map prefix ladder; is_broker; bursts; tracker }

let curve env is_broker =
  span ~layer:"core" "core.connectivity.eval_sources" (fun () ->
      Conn.eval_sources env.g ~is_broker env.sources)

(* One re-convergence: apply a burst, then read the curve. *)
let reconverge env ops =
  let stats = span ~layer:"core" "core.incremental.apply" (fun () -> Incr.apply env.tracker ops) in
  (stats, span ~layer:"core" "core.incremental.curve" (fun () -> Incr.curve env.tracker))

(* From-scratch oracle: the base graph plus the burst, compacted to a
   fresh CSR and evaluated by the batch engine. *)
let oracle env ops =
  let g' =
    span ~layer:"graph" "graph.delta.compact" (fun () ->
        let d = Delta.create env.g in
        Array.iter
          (function
            | Incr.Add (u, v) -> ignore (Delta.add_edge d u v)
            | Incr.Remove (u, v) -> ignore (Delta.remove_edge d u v))
          ops;
        Delta.compact env.g d)
  in
  span ~layer:"core" "core.connectivity.oracle" (fun () ->
      Conn.eval_sources g' ~is_broker:env.is_broker env.sources)

let curve_eq (a : Conn.curve) (b : Conn.curve) =
  a.l_max = b.l_max && floats_eq a.per_hop b.per_hop && float_eq a.saturated b.saturated

type fixed = {
  ladder_curves : Conn.curve array;
  base : Conn.curve;  (** tracker curve before any burst *)
  after : (Incr.stats * Conn.curve) array;  (** per fixed burst *)
  restored : Conn.curve array;  (** tracker curve after each burst's inverse *)
  oracles : Conn.curve array;
}

let fixed_work env () =
  let ladder_curves = Array.map (curve env) env.ladder_preds in
  let base = Incr.curve env.tracker in
  let nb = min fixed_bursts (Array.length env.bursts) in
  let pairs =
    Array.init nb (fun b ->
        let after = reconverge env env.bursts.(b) in
        (after, snd (reconverge env (inverse env.bursts.(b)))))
  in
  let after = Array.map fst pairs and restored = Array.map snd pairs in
  let oracles = Array.init (min oracle_bursts nb) (fun b -> oracle env env.bursts.(b)) in
  { ladder_curves; base; after; restored; oracles }

let equal_fixed a b =
  Array.for_all2 curve_eq a.ladder_curves b.ladder_curves
  && curve_eq a.base b.base
  && Array.for_all2 (fun (s, c) (s', c') -> s = s' && curve_eq c c') a.after b.after
  && Array.for_all2 curve_eq a.restored b.restored
  && Array.for_all2 curve_eq a.oracles b.oracles

let check_fixed h f =
  let top = Array.length ladder - 1 in
  check h "tracker base curve = eval_sources at the full budget"
    (curve_eq f.base f.ladder_curves.(top));
  for i = 1 to top do
    check h "saturated connectivity monotone in broker budget"
      (f.ladder_curves.(i - 1).saturated <= f.ladder_curves.(i).saturated)
  done;
  Array.iteri
    (fun b oracle ->
      let oracle =
        if h.opts.perturb && b = 0 then { oracle with Conn.saturated = Float.succ oracle.Conn.saturated }
        else oracle
      in
      check h (Printf.sprintf "incremental curve = from-scratch oracle (burst %d)" b)
        (curve_eq (snd f.after.(b)) oracle))
    f.oracles;
  Array.iteri
    (fun b c -> check h (Printf.sprintf "inverse burst %d restores the base curve" b) (curve_eq c f.base))
    f.restored;
  let digest_curve (c : Conn.curve) =
    Array.iter (digest_float h) c.per_hop;
    digest_float h c.saturated
  in
  Array.iter digest_curve f.ladder_curves;
  Array.iter
    (fun ((s : Incr.stats), c) ->
      List.iter (digest_int h)
        [ s.applied; s.noops; s.ignored; s.sources_affected; s.batches_reevaluated; s.batches_total ];
      digest_curve c)
    f.after

let run h =
  let opts = h.opts in
  if opts.trace then begin
    Broker_obs.Control.set_enabled true;
    tracing := true;
    let env = span ~layer:"bench" "bench.setup" (setup opts) in
    let f = traced_pass h ~work:(fixed_work env) ~equal:equal_fixed in
    check_fixed h f;
    let applies =
      List.filter_map
        (fun s -> if String.equal s.name "core.incremental.apply" then Some (float_of_int (dur_ns s) /. 1e6) else None)
        !spans
    in
    metric h "core.incremental.apply_ms_p50" "ms" (median applies);
    metric h "core.incremental.apply_ms_p90" "ms" (percentile applies 0.9);
    let skipped = counter "incr.batches.skipped" and reeval = counter "incr.batches.reevaluated" in
    metric h "core.incremental.skip_ratio" "ratio" (per ~num:skipped ~den:(skipped +. reeval));
    let ev = "core.connectivity.eval_sources" in
    metric h "core.connectivity.curve_ms" "ms"
      (per ~num:(float_of_int (total_ns ev) /. 1e6) ~den:(float_of_int (count ev)));
    metric h "core.incremental.create_ms" "ms" (span_s "core.incremental.create" *. 1e3);
    finish_trace h
  end
  else begin
    let env = setup_reps h (setup opts) in
    let f = fixed_work env () in
    (* One timed region: every unit computes one ladder curve and
       re-converges one burst and then its inverse (about 30% / 70% of
       the time), so both figures average over the whole run. The
       inverse puts the tracker back on the base graph, so any burst can
       repeat. *)
    let curves_ok = ref true and bursts_ok = ref true in
    let curve_times = ref [] and burst_times = ref [] in
    for_seconds ~budget:opts.seconds (fun i ->
        let li = i mod Array.length ladder in
        let c = timed curve_times li (fun () -> curve env env.ladder_preds.(li)) in
        curves_ok := curve_eq c f.ladder_curves.(li) && !curves_ok;
        let b = i mod Array.length env.bursts in
        let _, c = timed burst_times b (fun () -> reconverge env env.bursts.(b)) in
        let _, c' = timed burst_times b (fun () -> reconverge env (inverse env.bursts.(b))) in
        let expect_ok = b >= Array.length f.after || curve_eq c (snd f.after.(b)) in
        bursts_ok := expect_ok && curve_eq c' f.base && !bursts_ok);
    check h "timed ladder curves equal the fixed curves" !curves_ok;
    check h "timed bursts reproduce the fixed curves and restore the base" !bursts_ok;
    check_fixed h f;
    (* The timed calls run on two domains, so a call's time mixes calls
       that had both cores with calls that waited for a core the host's
       other load held. The 10th percentile is the library's cost with
       both cores; the median also measures how often the host was busy,
       and is printed but not gated. *)
    let p10 xs = percentile xs 0.1 in
    let bursts = times !burst_times in
    let reconverge_ms = 1000.0 *. p10 bursts in
    info h "reconverge_ms_p10" "ms" reconverge_ms;
    info h "reconverge_ms_p50" "ms" (1000.0 *. median bursts);
    info h "reconverge_ms_p90" "ms" (1000.0 *. percentile bursts 0.9);
    info h "bursts" "count" (float_of_int (List.length bursts));
    info h "curve_ms_p50" "ms" (1000.0 *. median (times !curve_times));
    info h "curves" "count" (float_of_int (List.length !curve_times));
    let sources = float_of_int (Array.length ladder * Array.length env.sources) in
    metric h "throughput_per_s" "1/s" (sources /. sum_by_kind p10 !curve_times);
    metric h "latency_ms" "ms" reconverge_ms
  end
