(* Shared machinery of the benchmark: run options, output checks, the
   output digest, set-up repetition, time-bounded loops, spans around the
   calls into each library layer, and the final report.

   Spans are recorded here, in the benchmark, around public calls into
   lib/ — never inside the library — and kept in memory until the run
   ends. Each span carries its layer (a lib/ directory name), its parent
   and a GC word delta, so self time per layer and allocation per call
   fall out of one record. *)

module Clock = Broker_obs.Clock

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** multiplies every workload's topology scale *)
  perturb : bool;  (** corrupt one oracle value: the checks must catch it *)
}

(* Traces and counter snapshots of traced runs. *)
let out_dir = "perfbench/out"

(* The topology stands in for the paper's one measured AS graph, so it is
   generated from the repository's default master seed at every workload
   seed; [--seed] draws what a user varies: sources, destinations,
   sessions, faults and update bursts. *)
let topology_seed = 42

let topo_params scale =
  if scale >= 1.0 then { Broker_topo.Internet.default with seed = topology_seed }
  else { (Broker_topo.Internet.scaled scale) with seed = topology_seed }

(* Independent input streams of one workload seed, one per [tag]. *)
let rng seed tag = Broker_util.Xrandom.create ((seed * 1_000_003) + tag)

(* ---- spans ---- *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  layer : string;
  name : string;
  t0 : int;
  t1 : int;
  minor_words : float;
  major_words : float;
}

let layers = [ "topology"; "graph"; "core"; "routing"; "sim"; "util"; "obs" ]
let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span ~layer name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let g0 = Gc.quick_stat () in
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      let g1 = Gc.quick_stat () in
      stack := List.tl !stack;
      spans :=
        {
          id;
          parent;
          layer;
          name;
          t0;
          t1;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
        }
        :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

let dur_ns s = s.t1 - s.t0
let spans_named name = List.filter (fun s -> String.equal s.name name) !spans

let total_ns name =
  List.fold_left (fun acc s -> acc + dur_ns s) 0 (spans_named name)

let count name = List.length (spans_named name)

let words name field =
  List.fold_left (fun acc s -> acc +. field s) 0.0 (spans_named name)

(* Self time: a span's duration minus the part its direct children cover
   (children never overlap each other: one caller, one call outstanding). *)
let self_ns_by_layer () =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent) in
        Hashtbl.replace child_ns s.parent (prev + dur_ns s))
    !spans;
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self =
        dur_ns s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)
      in
      let prev = Option.value ~default:0 (Hashtbl.find_opt by_layer s.layer) in
      Hashtbl.replace by_layer s.layer (prev + self))
    !spans;
  by_layer

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON, loadable in Perfetto: one complete ("X")
   event per span, timestamps in microseconds from the first span. *)
let write_perfetto path =
  let all = List.rev !spans in
  let base = List.fold_left (fun m s -> min m s.t0) max_int all in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"minor_words\":%.0f,\"major_words\":%.0f}}"
        (json_string s.name) (json_string s.layer)
        (float_of_int (s.t0 - base) /. 1e3)
        (float_of_int (dur_ns s) /. 1e3)
        s.id s.parent s.minor_words s.major_words)
    all;
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}\n";
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b)

(* ---- checks and digest ---- *)

type t = {
  opts : opts;
  mutable attempted : int;
  mutable failed : int;
  digest : Buffer.t;
  mutable metrics : (string * float * string) list;  (** reversed *)
  mutable info : (string * float * string) list;  (** reversed *)
}

let create opts =
  { opts; attempted = 0; failed = 0; digest = Buffer.create 4096; metrics = []; info = [] }

let check h what ok =
  h.attempted <- h.attempted + 1;
  if not ok then begin
    h.failed <- h.failed + 1;
    if h.failed <= 20 then Printf.printf "CHECK FAILED: %s\n%!" what
  end

let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let floats_eq a b = Array.length a = Array.length b && Array.for_all2 float_eq a b
let digest_add h s = Buffer.add_string h.digest s; Buffer.add_char h.digest ';'
let digest_float h x = digest_add h (Printf.sprintf "%h" x)
let digest_int h x = digest_add h (string_of_int x)
let digest_hex h = Digest.to_hex (Digest.string (Buffer.contents h.digest))

(* ---- metrics ---- *)

(* [metric] goes into the JSON result line; [info] is printed by name and
   unit above it (the workload-specific names of the end-to-end metrics). *)
let metric h name unit value = h.metrics <- (name, value, unit) :: h.metrics
let info h name unit value = h.info <- (name, value, unit) :: h.info

(* ---- timing ---- *)

let seconds_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, seconds_since t0)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p =
  match List.sort Float.compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) rank))

(* Build the workload's inputs several times and report the median set-up
   time: set-up is short next to the run, so one sample would be mostly
   noise. Garbage from the previous build is collected outside the timed
   interval. The last build is the one the run uses. *)
let setup_reps h build =
  let rec go samples total =
    Gc.full_major ();
    let env, dt = time build in
    let samples = dt :: samples and total = total +. dt in
    let reps = List.length samples in
    if reps >= 3 && (total >= 2.0 || reps >= 40) then (env, samples)
    else go samples total
  in
  let env, samples = go [] 0.0 in
  metric h "setup_s" "s" (median samples);
  info h "setup_s" "s" (median samples);
  env

(* Call [f i] for i = 0, 1, ... until [budget] seconds have passed. *)
let for_seconds ~budget f =
  let start = Clock.now_ns () in
  let i = ref 0 in
  while !i = 0 || seconds_since start < budget do
    f !i;
    incr i
  done

(* Run [f], pushing its wall seconds, tagged with [key], onto [acc]. *)
let timed acc key f =
  let r, dt = time f in
  acc := (key, dt) :: !acc;
  r

(* Time of one pass over a mixed set of calls: [stat] (a median or a low
   percentile) of each kind of call's times (kinds are the keys), summed
   over kinds. *)
let sum_by_kind stat samples =
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (k, t) -> Hashtbl.replace by_key k (t :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    samples;
  Hashtbl.fold (fun _ ts acc -> acc +. stat ts) by_key 0.0

let times samples = List.map snd samples

(* Peak resident set of this process, in MB (VmHWM, Linux). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
        | Some line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else go ()
      in
      go ())

(* ---- traced runs ---- *)

let counter name =
  let snap = Broker_obs.Metrics.snapshot () in
  match Broker_obs.Metrics.find snap name with
  | Some { Broker_obs.Metrics.value = Counter v | Gauge_max v; _ } -> float_of_int v
  | Some { value = Histogram _; _ } | None -> 0.0

(* A traced run does the workload's fixed work three times: a warm-up,
   once untraced, then with spans and the library's counters on. The
   ratio of the last two wall times is the tracing overhead; their
   outputs must be identical. *)
let traced_pass h ~work ~equal =
  Broker_obs.Control.set_enabled false;
  tracing := false;
  ignore (work ());
  Gc.full_major ();
  let plain, wall_plain = time work in
  Gc.full_major ();
  Broker_obs.Control.set_enabled true;
  tracing := true;
  let worker_ns = counter "parallel.worker_ns" in
  let traced, wall_traced =
    time (fun () -> span ~layer:"bench" "bench.fixed_work" work)
  in
  check h "traced outputs equal untraced outputs" (equal plain traced);
  metric h "obs.trace_overhead" "ratio" (wall_traced /. wall_plain);
  metric h "util.parallel.busy_ratio" "ratio"
    ((counter "parallel.worker_ns" -. worker_ns) /. 1e9
    /. (float_of_int (Broker_util.Parallel.domain_count ()) *. wall_traced));
  traced

(* Counter snapshot: the deterministic entries must replay bit-for-bit
   from the seed, so their digest is printed and the full list written
   next to the trace. *)
let counters_digest h =
  let det = Broker_obs.Metrics.deterministic (Broker_obs.Metrics.snapshot ()) in
  let b = Buffer.create 1024 in
  List.iter
    (fun (e : Broker_obs.Metrics.entry) ->
      match e.value with
      | Counter v | Gauge_max v -> Printf.bprintf b "%s %d\n" e.name v
      | Histogram a ->
          Printf.bprintf b "%s [%s]\n" e.name
            (String.concat " " (Array.to_list (Array.map string_of_int a))))
    det;
  let path =
    Filename.concat out_dir
      (Printf.sprintf "%s-seed%d-counters.txt" h.opts.workload h.opts.seed)
  in
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc b);
  Digest.to_hex (Digest.string (Buffer.contents b))

let per ~num ~den = if den = 0.0 then 0.0 else num /. den

(* Library counters the per-layer report carries (Broker_obs names). *)
let reported_counters =
  [
    "maxsg.lazy_hits"; "maxsg.lazy_misses"; "sim.cache.invalidated_keys"; "sim.cache.recomputed";
    "topo.delta.views_built"; "sim.events.depart"; "sim.events.fault"; "sim.events.retry";
    "sim.events.topo_update"; "sim.failovers"; "sim.queue.max_depth"; "incr.sources.affected";
    "msbfs.sweeps"; "msbfs.settled_pairs"; "msbfs.active_words"; "projected.builds";
  ]

let span_s name = float_of_int (total_ns name) /. 1e9

(* Close a traced run: set-up spans, counters, self time per layer (as
   metrics and as a table ranked by self time), the Perfetto trace and
   the deterministic counter snapshot. *)
let finish_trace h =
  Broker_obs.Control.set_enabled false;
  tracing := false;
  metric h "topology.generate_s" "s" (span_s "topology.generate");
  metric h "topology.generate_mwords" "Mwords"
    (words "topology.generate" (fun s -> s.minor_words) /. 1e6);
  metric h "core.maxsg.order_s" "s" (span_s "core.maxsg.order");
  List.iter (fun c -> metric h c "count" (counter c)) reported_counters;
  let self = self_ns_by_layer () in
  let get l = float_of_int (Option.value ~default:0 (Hashtbl.find_opt self l)) /. 1e9 in
  List.iter (fun l -> metric h ("self_s." ^ l) "s" (get l)) layers;
  let wall =
    List.fold_left (fun acc s -> if s.parent < 0 then acc +. (float_of_int (dur_ns s) /. 1e9) else acc) 0.0 !spans
  in
  let ranked =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) (List.map (fun l -> (l, get l)) ("bench" :: layers))
  in
  Printf.printf "\n## Layer self time - %s (seed %d)\n\n" h.opts.workload h.opts.seed;
  Printf.printf "| Rank | Layer | Self time (s) | Share of traced wall |\n";
  Printf.printf "| ---- | ----- | ------------- | -------------------- |\n";
  List.iteri
    (fun i (l, s) -> Printf.printf "| %d | %s | %.4f | %.1f%% |\n" (i + 1) l s (100.0 *. per ~num:s ~den:wall))
    ranked;
  print_newline ();
  let trace_path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace.json" h.opts.workload h.opts.seed)
  in
  write_perfetto trace_path;
  Printf.printf "perfetto_trace %s\n" trace_path;
  Printf.printf "counters %s\n" (counters_digest h)

let print_result h =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %.6g %s\n" name v unit)
    (List.rev h.info);
  Printf.printf "fail_ratio %.6g ratio (%d failed of %d checks)\n"
    (per ~num:(float_of_int h.failed) ~den:(float_of_int h.attempted))
    h.failed h.attempted;
  Printf.printf "digest %s\n" (digest_hex h);
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v
          (json_string unit))
      (List.rev h.metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (h.failed = 0) (max 1 h.attempted) h.failed (String.concat ", " metrics)
