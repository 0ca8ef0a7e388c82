(* Entry point: one workload, one seed, one run. See README.md for the
   workloads, the metrics and what each layer metric should move. *)

open Harness

let workloads =
  [
    ("valley_free", Wl_valley_free.run);
    ("sim_steady", Wl_sim.run Wl_sim.Steady);
    ("sim_churn", Wl_sim.run Wl_sim.Churn);
    ("reconverge", Wl_reconverge.run);
  ]

(* Printed on every workload, in this order; BENCHMARK.json lists the
   same names and units. *)
let end_to_end =
  [ ("setup_s", "s"); ("throughput_per_s", "1/s"); ("latency_ms", "ms"); ("peak_rss_mb", "MB") ]

(* A layer a workload bypasses reads 0. *)
let per_layer =
  [
    ("topology.generate_s", "s"); ("topology.generate_mwords", "Mwords");
    ("core.maxsg.order_s", "s"); ("maxsg.lazy_hits", "count"); ("maxsg.lazy_misses", "count");
    ("core.directional.ms_per_source", "ms"); ("core.directional.minor_words_per_source", "words");
    ("routing.bgp.ms_per_dest", "ms"); ("routing.bgp.minor_words_per_dest", "words");
    ("util.parallel.busy_ratio", "ratio");
    ("core.dominating.us_per_path", "us"); ("core.dominating.words_per_path", "words");
    ("sim.simulator.major_words_per_session", "words");
    ("sim.cache.hit_ratio", "ratio"); ("sim.shard_cache.lookup_ns", "ns");
    ("sim.cache.invalidated_keys", "count"); ("sim.cache.recomputed", "count");
    ("topo.delta.views_built", "count");
    ("sim.events.depart", "count"); ("sim.events.fault", "count"); ("sim.events.retry", "count");
    ("sim.events.topo_update", "count"); ("sim.failovers", "count"); ("sim.queue.max_depth", "count");
    ("sim.setup.workload_s", "s"); ("sim.setup.faults_s", "s"); ("sim.setup.topo_stream_s", "s");
    ("core.incremental.apply_ms_p50", "ms"); ("core.incremental.apply_ms_p90", "ms");
    ("core.incremental.skip_ratio", "ratio"); ("incr.sources.affected", "count");
    ("core.connectivity.curve_ms", "ms"); ("msbfs.sweeps", "count");
    ("msbfs.settled_pairs", "count"); ("msbfs.active_words", "count");
    ("projected.builds", "count"); ("core.incremental.create_ms", "ms");
  ]
  @ List.map (fun l -> ("self_s." ^ l, "s")) layers
  @ [ ("obs.trace_overhead", "ratio") ]

let usage =
  "bench --workload NAME --seed N --seconds S --trace 0|1 [--scale F] [--perturb]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scale = ref 1.0 and perturb = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of valley_free, sim_steady, sim_churn, reconverge");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed region");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting the per-layer metrics");
      ("--scale", Arg.Set_float scale, " multiply every topology scale (self-test: tiny runs)");
      ("--perturb", Arg.Set perturb, " corrupt one oracle value; the checks must count it");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds <= 0.0 || !scale <= 0.0 || !scale > 1.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if !trace = 1 && not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let opts =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      scale = !scale;
      perturb = !perturb;
    }
  in
  Printf.printf "workload %s seed %d seconds %g trace %d scale %g domains %d\n%!" opts.workload
    opts.seed opts.seconds !trace opts.scale (Broker_util.Parallel.domain_count ());
  let h = create opts in
  run h;
  if not opts.trace then begin
    let rss = peak_rss_mb () in
    metric h "peak_rss_mb" "MB" rss;
    info h "peak_rss_mb" "MB" rss
  end;
  let wanted = if opts.trace then per_layer else end_to_end in
  let recorded = h.metrics in
  h.metrics <-
    List.rev_map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> String.equal n name) recorded with
        | Some (_, v, u) ->
            if not (String.equal u unit) then failwith (Printf.sprintf "%s: unit %s, want %s" name u unit);
            (name, v, unit)
        | None when opts.trace -> (name, 0.0, unit)
        | None -> failwith ("missing end-to-end metric " ^ name))
      wanted;
  print_result h
