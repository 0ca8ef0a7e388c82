module G = Broker_graph.Graph
module X = Broker_util.Xrandom
module Obs = Broker_obs

(* Event-loop probes: every counter below is driven by the simulated
   structure (event kinds, cache membership, breaker excursions), so all
   are deterministic for a fixed seed and diffable run-to-run. *)
let m_ev_depart = Obs.Metrics.counter "sim.events.depart"
let m_ev_fault = Obs.Metrics.counter "sim.events.fault"
let m_ev_retry = Obs.Metrics.counter "sim.events.retry"
let m_ev_topo = Obs.Metrics.counter "sim.events.topo_update"
let m_topo_applied = Obs.Metrics.counter "sim.topo.applied"
let m_topo_ignored = Obs.Metrics.counter "sim.topo.ignored"
let m_failovers = Obs.Metrics.counter "sim.failovers"
let m_drops = Obs.Metrics.counter "sim.dropped_midflight"
let m_retries_scheduled = Obs.Metrics.counter "sim.retries_scheduled"
let m_breaker_trips = Obs.Metrics.counter "sim.breaker_trips"
let g_queue_depth = Obs.Metrics.gauge "sim.queue.max_depth"
let t_sim = Obs.Trace.scope "simulator.run"

(* brokerstat timelines: windowed series keyed on the simulation clock,
   collected only when [run ?stats_window] asks for them. Counter series
   hold per-window event tallies; latency series additionally sketch
   their samples in Timeseries fixed-point micro-units of sim-time.
   All are deterministic for a fixed seed/scale — the window key is
   sim-time, never wall-clock. *)
let ts_admitted = Obs.Timeseries.series "sim.ts.admitted"
let ts_delivered = Obs.Timeseries.series "sim.ts.delivered"
let ts_rejected = Obs.Timeseries.series "sim.ts.rejected"
let ts_lookups = Obs.Timeseries.series "sim.ts.cache.lookups"
let ts_recomputes = Obs.Timeseries.series "sim.ts.cache.recomputes"
let ts_queue_wait = Obs.Timeseries.series "sim.ts.latency.queue_wait"
let ts_admission = Obs.Timeseries.series "sim.ts.latency.admission"
let ts_failover = Obs.Timeseries.series "sim.ts.latency.failover"
let ts_e2e = Obs.Timeseries.series "sim.ts.latency.e2e"

let timeline_series =
  [
    ts_admitted;
    ts_delivered;
    ts_rejected;
    ts_lookups;
    ts_recomputes;
    ts_queue_wait;
    ts_admission;
    ts_failover;
    ts_e2e;
  ]

let timeline_names = List.map Obs.Timeseries.name timeline_series

type config = {
  capacity_of : int -> float;
  price : float;
  employee_cost : float;
}

let uniform_capacity c =
  { capacity_of = (fun _ -> c); price = 1.0; employee_cost = 0.2 }

let degree_capacity g ~factor =
  {
    capacity_of = (fun v -> factor *. float_of_int (max 1 (G.degree g v)));
    price = 1.0;
    employee_cost = 0.2;
  }

type retry_policy = {
  max_attempts : int;
  base_delay : float;
  multiplier : float;
  jitter : float;
}

let no_retry = { max_attempts = 0; base_delay = 1.0; multiplier = 2.0; jitter = 0.0 }
let default_retry = { max_attempts = 3; base_delay = 1.0; multiplier = 2.0; jitter = 0.5 }

type breaker_policy = { high_water : float; trip_after : float; cooldown : float }

let default_breaker = { high_water = 0.9; trip_after = 5.0; cooldown = 25.0 }

type chaos = {
  faults : Faults.event array;
  failover : bool;
  retry : retry_policy;
  breaker : breaker_policy option;
  chaos_seed : int;
}

let default_chaos faults =
  { faults; failover = true; retry = default_retry; breaker = None; chaos_seed = 97 }

type topo_churn = {
  updates : Topo_stream.event array;  (* origin-time announce/withdraws *)
  propagation : Topo_stream.propagation;
}

type stats = {
  offered : int;
  admitted : int;
  rejected_no_path : int;
  rejected_capacity : int;
  rejected_shed : int;
  admission_rate : float;
  mean_hops : float;
  employee_hop_fraction : float;
  peak_in_flight : int;
  mean_broker_utilization : float;
  revenue : float;
  failed_over : int;
  dropped_midflight : int;
  retried_admitted : int;
  broker_downtime : float;
  revenue_lost : float;
  availability : float;
  topo_applied : int;
  topo_ignored : int;
  cache : Shard_cache.stats;
}

(* An admitted session's live reservation. [path_brokers] is mutated on
   failover; [active] flips off at departure or mid-flight drop so a stale
   departure event is a no-op. *)
type live = {
  id : int;
  src : int;
  dst : int;
  demand : float;
  arrived : float;  (* intended (open-loop) arrival, for e2e latency *)
  admitted_at : float;  (* admission instant, for time-to-failover *)
  depart : float;
  rev_rate : float;  (* net revenue per unit time, for drop refunds *)
  mutable path_brokers : int array;
  mutable active : bool;
}

type ev =
  | Depart of live
  | Fault of Faults.kind * int
  | Retry of Workload.session * int  (* next attempt number *)
  | Topo_update of Topo_stream.op  (* delivered announce/withdraw *)

type block_reason = No_path | Capacity | Shed

let validate ~n ~brokers ~faults ~updates config =
  if Float.is_nan config.price || config.price < 0.0 then
    invalid_arg "Simulator.run: price must be >= 0";
  if Float.is_nan config.employee_cost || config.employee_cost < 0.0 then
    invalid_arg "Simulator.run: employee_cost must be >= 0";
  Array.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Simulator.run: broker id out of range";
      if not (config.capacity_of b >= 0.0) then
        invalid_arg "Simulator.run: capacity_of must be >= 0")
    brokers;
  Array.iter
    (fun (e : Topo_stream.event) ->
      let u, v = Topo_stream.op_endpoints e.Topo_stream.op in
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Simulator.run: topo update endpoint out of range")
    updates;
  (* In-range fault events for non-brokers are ignored by [run]; an id
     outside the graph is a caller error. *)
  Array.iter
    (fun (e : Faults.event) ->
      if e.Faults.broker < 0 || e.Faults.broker >= n then
        invalid_arg "Simulator.run: fault broker id out of range")
    faults

let run ?chaos ?topo:topo_churn ?(cache = Shard_cache.Flush) ?stats_window topo
    ~brokers ~sessions config =
  let tr0 = Obs.Trace.enter () in
  let g = topo.Broker_topo.Topology.graph in
  let n = G.n g in
  validate ~n ~brokers
    ~faults:(match chaos with None -> [||] | Some c -> c.faults)
    ~updates:(match topo_churn with None -> [||] | Some tc -> tc.updates)
    config;
  (* Timeline collection is strictly opt-in: with [?stats_window] absent
     not a single series is touched, so the default path stays
     byte-identical (the timelines never feed back into admission). *)
  let tl_on =
    match stats_window with
    | None -> false
    | Some w ->
        if Float.is_nan w || w <= 0.0 then
          invalid_arg "Simulator.run: stats_window must be > 0";
        List.iter (fun s -> Obs.Timeseries.restart ~window:w s) timeline_series;
        true
  in
  let is_broker = Array.make n false in
  Array.iter (fun b -> is_broker.(b) <- true) brokers;
  let has_chaos = Option.is_some chaos in
  let failover_on, retry, breaker, fault_events, chaos_seed =
    match chaos with
    | None -> (false, no_retry, None, [||], 0)
    | Some c -> (c.failover, c.retry, c.breaker, c.faults, c.chaos_seed)
  in
  let jitter_rng = X.create (0x5EED lxor chaos_seed) in
  (* Broker liveness: a down-counter per vertex (correlated scenarios can
     crash an already-down broker); a down broker stops being a broker — it
     neither dominates edges nor carries reservations — but keeps forwarding
     as a plain AS, mirroring Broker_core.Resilience. [live.(v)] caches
     [is_broker.(v) && down.(v) = 0] for the path search and the hop
     accounting; it flips only on the 0<->1 transitions of [down.(v)]. *)
  let down = Array.make n 0 in
  let live = Array.copy is_broker in
  let down_since = Array.make n 0.0 in
  let total_down = ref 0 in
  let downtime = ref 0.0 in
  (* Per-broker capacity accounting with lazy time-integrated usage. *)
  let used = Hashtbl.create 1024 in
  let area = Hashtbl.create 1024 in
  let last_change = Hashtbl.create 1024 in
  let get tbl b = Option.value ~default:0.0 (Hashtbl.find_opt tbl b) in
  let touch b t =
    let lu = get last_change b in
    Hashtbl.replace area b (get area b +. (get used b *. (t -. lu)));
    Hashtbl.replace last_change b t
  in
  (* Admission circuit breaker: track how long a broker's utilization has
     been continuously at or above the high-water mark. *)
  let above_since = Array.make (if Option.is_none breaker then 0 else n) nan in
  let tripped_until =
    Array.make (if Option.is_none breaker then 0 else n) neg_infinity
  in
  let update_water b t =
    match breaker with
    | None -> ()
    | Some bp ->
        let cap = config.capacity_of b in
        if cap > 0.0 then
          if get used b /. cap >= bp.high_water then begin
            if Float.is_nan above_since.(b) then above_since.(b) <- t
          end
          else above_since.(b) <- nan
  in
  let adjust b t delta =
    touch b t;
    Hashtbl.replace used b (get used b +. delta);
    update_water b t
  in
  let shedding b t =
    match breaker with
    | None -> false
    | Some bp ->
        if t < tripped_until.(b) then true
        else if
          (not (Float.is_nan above_since.(b)))
          && t -. above_since.(b) >= bp.trip_after
        then begin
          Obs.Metrics.incr m_breaker_trips;
          tripped_until.(b) <- t +. bp.cooldown;
          (* A fresh sustained excursion is needed to re-trip after cooldown. *)
          above_since.(b) <- nan;
          true
        end
        else false
  in
  (* Hop-shortest dominated path per distinct pair, cached under the current
     liveness. The cache policy — flush-on-crash reverse-index eviction
     (the historical default) vs sharded assignment with graceful
     degradation — lives in {!Shard_cache}; the simulator only reports
     liveness transitions to it. *)
  let pcache =
    Shard_cache.create ~strategy:cache ~seed:(0x5A4D lxor chaos_seed) ~n
      ~shards:brokers ()
  in
  (* The routed topology is a delta overlay over the base CSR: updates
     mutate [tdelta] and refresh the immutable [tview] snapshot routing
     reads. Without topology churn [tview] stays the zero-copy base view,
     so the static path is untouched. *)
  let tdelta =
    match topo_churn with
    | None -> None
    | Some _ -> Some (Broker_graph.Delta.create g)
  in
  let tview = ref (Broker_graph.View.of_graph g) in
  let topo_applied = ref 0 in
  let topo_ignored = ref 0 in
  (* One search workspace for the whole run: a cache miss allocates only
     the path it returns. *)
  let dws = Broker_core.Dominating.workspace () in
  let path_for t src dst =
    if tl_on then Obs.Timeseries.add ts_lookups ~time:t 1;
    Shard_cache.find pcache
      ~compute:(fun () ->
        if tl_on then Obs.Timeseries.add ts_recomputes ~time:t 1;
        if Broker_core.Dominating.search dws !tview ~live src dst then
          Some (Broker_core.Dominating.path dws ~src ~dst)
        else None)
      src dst
  in
  let events : ev Event_queue.t = Event_queue.create () in
  (* Fault events enter the queue up front: at equal times they precede the
     departures/retries scheduled later (FIFO tie-break), which is the
     pessimistic order — a failure beats a same-instant departure. Events
     for vertices outside the broker set are ignored. *)
  Array.iter
    (fun (e : Faults.event) ->
      if is_broker.(e.Faults.broker) then
        Event_queue.add events ~time:e.Faults.time
          (Fault (e.Faults.kind, e.Faults.broker)))
    fault_events;
  (* Topology updates enter at their *delivery* time under the selected
     propagation model — centralized feed or hop-by-hop BGP-like crawl
     towards the nearest broker (hop counts on the pre-update graph).
     Enqueued after the faults, so at equal times a fault is served
     first (same pessimistic tie-break). *)
  (match topo_churn with
  | None -> ()
  | Some tc ->
      Array.iter
        (fun (e : Topo_stream.event) ->
          Event_queue.add events ~time:e.Topo_stream.time
            (Topo_update e.Topo_stream.op))
        (Topo_stream.schedule g ~brokers tc.propagation tc.updates));
  let in_flight_tbl : (int, live) Hashtbl.t = Hashtbl.create 256 in
  let offered = ref 0 in
  let admitted = ref 0 in
  let rejected_no_path = ref 0 in
  let rejected_capacity = ref 0 in
  let rejected_shed = ref 0 in
  let hops_total = ref 0 in
  let employee_hops_total = ref 0 in
  let in_flight = ref 0 in
  let peak_in_flight = ref 0 in
  let revenue = ref 0.0 in
  let failed_over = ref 0 in
  let dropped_midflight = ref 0 in
  let retried_admitted = ref 0 in
  let revenue_lost = ref 0.0 in
  let last_arrival = ref neg_infinity in
  (* Single-pass broker filter over a path (no list round-trip). *)
  let filter_live_brokers path =
    let count = ref 0 in
    Array.iter (fun v -> if live.(v) then incr count) path;
    let out = Array.make !count 0 in
    let j = ref 0 in
    Array.iter
      (fun v ->
        if live.(v) then begin
          out.(!j) <- v;
          incr j
        end)
      path;
    out
  in
  let fits path_brokers demand =
    Array.for_all
      (fun b -> get used b +. demand <= config.capacity_of b +. 1e-9)
      path_brokers
  in
  let blocked (s : Workload.session) t ~attempt ~reason =
    let retryable =
      has_chaos
      && attempt < retry.max_attempts
      && (match reason with
         (* A structural no-path can never be retried away; one caused by an
            outage can. *)
         | No_path -> !total_down > 0
         | Capacity | Shed -> true)
    in
    if retryable then begin
      Obs.Metrics.incr m_retries_scheduled;
      let jitter = 1.0 +. (retry.jitter *. X.float jitter_rng 1.0) in
      let delay =
        retry.base_delay *. (retry.multiplier ** float_of_int attempt) *. jitter
      in
      Event_queue.add events ~time:(t +. delay) (Retry (s, attempt + 1))
    end
    else begin
      (match reason with
      | No_path -> incr rejected_no_path
      | Capacity -> incr rejected_capacity
      | Shed -> incr rejected_shed);
      if tl_on then begin
        Obs.Timeseries.add ts_rejected ~time:t 1;
        (* Admission latency covers every finally-decided session —
           open-loop discipline: measured from the intended arrival,
           through however many backoff retries it took to conclude. *)
        Obs.Timeseries.observe ts_admission ~time:t
          (Obs.Timeseries.to_fp (t -. s.Workload.arrival))
      end
    end
  in
  let admit_session (s : Workload.session) t ~attempt =
    match path_for t s.Workload.src s.Workload.dst with
    | None -> blocked s t ~attempt ~reason:No_path
    | Some path ->
        let path_brokers = filter_live_brokers path in
        if has_chaos && Array.exists (fun b -> shedding b t) path_brokers then
          blocked s t ~attempt ~reason:Shed
        else if not (fits path_brokers s.Workload.demand) then
          blocked s t ~attempt ~reason:Capacity
        else begin
          incr admitted;
          if attempt > 0 then incr retried_admitted;
          incr in_flight;
          if !in_flight > !peak_in_flight then peak_in_flight := !in_flight;
          Array.iter (fun b -> adjust b t s.Workload.demand) path_brokers;
          let hops = Array.length path - 1 in
          hops_total := !hops_total + hops;
          (* Employees: intermediate non-(live-)broker vertices. *)
          let employees = ref 0 in
          for i = 1 to Array.length path - 2 do
            if not live.(path.(i)) then incr employees
          done;
          employee_hops_total := !employee_hops_total + (2 * !employees);
          let dt = s.Workload.duration *. s.Workload.demand in
          let net =
            (2.0 *. config.price *. dt)
            -. (config.employee_cost *. float_of_int (2 * !employees) *. dt)
          in
          revenue := !revenue +. net;
          if tl_on then begin
            Obs.Timeseries.add ts_admitted ~time:t 1;
            let wait = Obs.Timeseries.to_fp (t -. s.Workload.arrival) in
            Obs.Timeseries.observe ts_queue_wait ~time:t wait;
            Obs.Timeseries.observe ts_admission ~time:t wait
          end;
          let l =
            {
              id = s.Workload.id;
              src = s.Workload.src;
              dst = s.Workload.dst;
              demand = s.Workload.demand;
              arrived = s.Workload.arrival;
              admitted_at = t;
              depart = t +. s.Workload.duration;
              rev_rate =
                (if s.Workload.duration > 0.0 then net /. s.Workload.duration
                 else 0.0);
              path_brokers;
              active = true;
            }
          in
          if has_chaos then Hashtbl.replace in_flight_tbl l.id l;
          Event_queue.add events ~time:l.depart (Depart l)
        end
  in
  let drop l t =
    Obs.Metrics.incr m_drops;
    l.active <- false;
    Hashtbl.remove in_flight_tbl l.id;
    decr in_flight;
    incr dropped_midflight;
    let lost = l.rev_rate *. (l.depart -. t) in
    revenue := !revenue -. lost;
    revenue_lost := !revenue_lost +. lost
  in
  let on_crash b t =
    down.(b) <- down.(b) + 1;
    if down.(b) = 1 then begin
      live.(b) <- false;
      incr total_down;
      down_since.(b) <- t;
      Shard_cache.crash pcache b;
      (* In-flight sessions riding b, in session-id order (deterministic). *)
      let affected =
        Hashtbl.fold
          (fun _ l acc ->
            if l.active && Array.exists (fun pb -> pb = b) l.path_brokers then
              l :: acc
            else acc)
          in_flight_tbl []
      in
      let affected = List.sort (fun a b -> Int.compare a.id b.id) affected in
      List.iter
        (fun l ->
          (* Release the whole old reservation, then try an alternate
             B-dominated path that avoids every down broker. *)
          Array.iter (fun pb -> adjust pb t (-.l.demand)) l.path_brokers;
          let rerouted =
            failover_on
            &&
            match path_for t l.src l.dst with
            | None -> false
            | Some path ->
                let pbs = filter_live_brokers path in
                if fits pbs l.demand then begin
                  Array.iter (fun pb -> adjust pb t l.demand) pbs;
                  l.path_brokers <- pbs;
                  true
                end
                else false
          in
          if rerouted then begin
            incr failed_over;
            Obs.Metrics.incr m_failovers;
            (* Time-to-failover: how long the session had been in
               flight when the crash forced it onto an alternate
               path. *)
            if tl_on then
              Obs.Timeseries.observe ts_failover ~time:t
                (Obs.Timeseries.to_fp (t -. l.admitted_at))
          end
          else drop l t)
        affected
    end
  in
  let on_recover b t =
    if down.(b) > 0 then begin
      down.(b) <- down.(b) - 1;
      if down.(b) = 0 then begin
        live.(b) <- true;
        decr total_down;
        downtime := !downtime +. (t -. down_since.(b));
        Shard_cache.recover pcache b
      end
    end
  in
  let handle ev t =
    match ev with
    | Depart l ->
        Obs.Metrics.incr m_ev_depart;
        if l.active then begin
          Array.iter (fun pb -> adjust pb t (-.l.demand)) l.path_brokers;
          l.active <- false;
          if has_chaos then Hashtbl.remove in_flight_tbl l.id;
          decr in_flight;
          if tl_on then begin
            Obs.Timeseries.add ts_delivered ~time:t 1;
            (* End-to-end completion from the intended arrival: queue
               wait (retries) plus the session's service time. *)
            Obs.Timeseries.observe ts_e2e ~time:t
              (Obs.Timeseries.to_fp (t -. l.arrived))
          end
        end
    | Fault (Faults.Crash, b) ->
        Obs.Metrics.incr m_ev_fault;
        on_crash b t
    | Fault (Faults.Recover, b) ->
        Obs.Metrics.incr m_ev_fault;
        on_recover b t
    | Retry (s, attempt) ->
        Obs.Metrics.incr m_ev_retry;
        admit_session s t ~attempt
    | Topo_update op ->
        Obs.Metrics.incr m_ev_topo;
        let d =
          match tdelta with
          | Some d -> d
          | None -> assert false (* only enqueued when topo_churn is set *)
        in
        let changed =
          match op with
          | Topo_stream.Announce (u, v) -> Broker_graph.Delta.add_edge d u v
          | Topo_stream.Withdraw (u, v) -> Broker_graph.Delta.remove_edge d u v
        in
        if changed then begin
          incr topo_applied;
          Obs.Metrics.incr m_topo_applied;
          tview := Broker_graph.Delta.view d;
          (* Any cached path may now be wrong (or newly beatable):
             everything goes. Subsequent lookups recompute against the
             fresh view. *)
          Shard_cache.invalidate_all pcache
        end
        else begin
          incr topo_ignored;
          Obs.Metrics.incr m_topo_ignored
        end
  in
  let process_until t =
    let continue = ref true in
    while !continue do
      match Event_queue.peek_time events with
      | Some et when et <= t -> begin
          match Event_queue.pop events with
          | Some (et, ev) -> handle ev et
          | None -> assert false
        end
      | Some _ | None -> continue := false
    done
  in
  Array.iter
    (fun (s : Workload.session) ->
      if s.Workload.arrival < !last_arrival then
        invalid_arg "Simulator.run: sessions not sorted by arrival";
      last_arrival := s.Workload.arrival;
      incr offered;
      process_until s.Workload.arrival;
      admit_session s s.Workload.arrival ~attempt:0)
    sessions;
  (* Drain remaining events (departures, retries, faults) to close the
     utilization and downtime integrals. *)
  let horizon = ref (Float.max !last_arrival 0.0) in
  let continue = ref true in
  while !continue do
    match Event_queue.pop events with
    | Some (t, ev) ->
        horizon := Float.max !horizon t;
        handle ev t
    | None -> continue := false
  done;
  Obs.Metrics.gauge_max g_queue_depth (Event_queue.max_length events);
  Event_queue.clear events;
  (* Close the timelines: the trailing still-open windows become
     Perfetto counter samples when the trace ring is armed. *)
  if tl_on then List.iter Obs.Timeseries.flush timeline_series;
  let horizon = !horizon in
  Array.iter
    (fun b ->
      if down.(b) > 0 then begin
        downtime := !downtime +. (horizon -. down_since.(b));
        down.(b) <- 0
      end)
    brokers;
  let mean_utilization =
    let touched = Hashtbl.fold (fun b _ acc -> b :: acc) last_change [] in
    let sum = ref 0.0 and count = ref 0 in
    List.iter
      (fun b ->
        touch b horizon;
        let cap = config.capacity_of b in
        if cap > 0.0 && horizon > 0.0 then begin
          sum := !sum +. (get area b /. (cap *. horizon));
          incr count
        end)
      touched;
    if !count = 0 then 0.0 else !sum /. float_of_int !count
  in
  (* Downtime accrues once per distinct vertex, so a broker listed twice
     must not double the denominator. *)
  let n_brokers =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 is_broker
  in
  let availability =
    if n_brokers = 0 || horizon <= 0.0 then 1.0
    else
      Float.max 0.0 (1.0 -. (!downtime /. (float_of_int n_brokers *. horizon)))
  in
  {
    offered = !offered;
    admitted = !admitted;
    rejected_no_path = !rejected_no_path;
    rejected_capacity = !rejected_capacity;
    rejected_shed = !rejected_shed;
    admission_rate =
      (if !offered = 0 then 0.0
       else float_of_int !admitted /. float_of_int !offered);
    mean_hops =
      (if !admitted = 0 then 0.0
       else float_of_int !hops_total /. float_of_int !admitted);
    employee_hop_fraction =
      (if !hops_total = 0 then 0.0
       else float_of_int !employee_hops_total /. float_of_int !hops_total);
    peak_in_flight = !peak_in_flight;
    mean_broker_utilization = mean_utilization;
    revenue = !revenue;
    failed_over = !failed_over;
    dropped_midflight = !dropped_midflight;
    retried_admitted = !retried_admitted;
    broker_downtime = !downtime;
    revenue_lost = !revenue_lost;
    availability;
    topo_applied = !topo_applied;
    topo_ignored = !topo_ignored;
    cache = Shard_cache.stats pcache;
  }
  |> fun stats ->
  Obs.Trace.leave t_sim tr0;
  stats

let delivered_rate s =
  if s.offered = 0 then 0.0
  else float_of_int (s.admitted - s.dropped_midflight) /. float_of_int s.offered

let stats_equal a b =
  a.offered = b.offered && a.admitted = b.admitted
  && a.rejected_no_path = b.rejected_no_path
  && a.rejected_capacity = b.rejected_capacity
  && a.rejected_shed = b.rejected_shed
  && Float.equal a.admission_rate b.admission_rate
  && Float.equal a.mean_hops b.mean_hops
  && Float.equal a.employee_hop_fraction b.employee_hop_fraction
  && a.peak_in_flight = b.peak_in_flight
  && Float.equal a.mean_broker_utilization b.mean_broker_utilization
  && Float.equal a.revenue b.revenue
  && a.failed_over = b.failed_over
  && a.dropped_midflight = b.dropped_midflight
  && a.retried_admitted = b.retried_admitted
  && Float.equal a.broker_downtime b.broker_downtime
  && Float.equal a.revenue_lost b.revenue_lost
  && Float.equal a.availability b.availability
  && a.topo_applied = b.topo_applied
  && a.topo_ignored = b.topo_ignored
  && Shard_cache.stats_equal a.cache b.cache
