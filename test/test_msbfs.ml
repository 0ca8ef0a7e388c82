(* The bit-parallel multi-source BFS kernel: per-lane equivalence with
   the scalar workspace engine, batched connectivity curves bitwise equal
   to the frozen reference oracle across batch-boundary source counts,
   batched gain probes equal to scalar Coverage.gain, determinism across
   REPRO_DOMAINS, and argument validation. *)

open Helpers
module G = Broker_graph.Graph
module Bfs = Broker_graph.Bfs
module Msbfs = Broker_graph.Msbfs
module View = Broker_graph.View
module Conn = Broker_core.Connectivity

let q ?(count = 60) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* A graph, a random broker set, and a seed for drawing sources. *)
let graph_brokers_arb =
  QCheck.make
    ~print:(fun (g, brokers, seed) ->
      Printf.sprintf "<graph n=%d m=%d brokers=%d seed=%d>" (G.n g) (G.m g)
        (Array.length brokers) seed)
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 80 >>= fun m ->
      int_range 0 8 >>= fun k ->
      int_range 0 1_000_000 >|= fun seed ->
      let rng = Broker_util.Xrandom.create seed in
      let g = random_graph rng ~n ~m in
      let brokers = Array.init k (fun _ -> Broker_util.Xrandom.int rng n) in
      (g, brokers, seed))

(* Sources drawn with replacement: exercises duplicate sources (distinct
   lanes) and lets a 40-vertex graph host a 192-source batch sequence. *)
let draw_sources rng ~n ~count =
  Array.init count (fun _ -> Broker_util.Xrandom.int rng n)

let lanes_is_word_width () =
  check_int "lanes = Bitset.bits_per_word" Broker_util.Bitset.bits_per_word
    Msbfs.lanes;
  check_int "63-bit native ints" 63 Msbfs.lanes

(* --- per-lane semantics vs the scalar engine -------------------------- *)

let lanes_match_scalar =
  (* One workspace reused across cases: stresses the epoch/tick-stamp
     reuse invariants exactly like the scalar engine's suite does. *)
  let ws = Msbfs.workspace () in
  let sws = Bfs.workspace () in
  q "each lane settles the scalar BFS levels" graph_brokers_arb
    (fun (g, _, seed) ->
      let n = G.n g in
      let rng = Broker_util.Xrandom.create (seed + 1) in
      let len = 1 + Broker_util.Xrandom.int rng (min Msbfs.lanes (4 * n)) in
      let sources = draw_sources rng ~n ~count:len in
      (* Stale bytes in the rows must be overwritten by the run. *)
      let depths = Array.init len (fun _ -> Bytes.make n '\007') in
      Msbfs.run_view ws (View.of_graph g) ~depths sources ~lo:0 ~len;
      let dist = Array.make n 0 in
      let ok = ref (Msbfs.batch_lanes ws = len) in
      let max_level = ref 0 in
      let reached = ref 0 in
      let level = Array.make (n + 1) 0 in
      for b = 0 to len - 1 do
        Bfs.run sws g sources.(b);
        Bfs.distances_into sws dist;
        if Bfs.max_level sws > !max_level then max_level := Bfs.max_level sws;
        for v = 0 to n - 1 do
          (* bit b of v's settled word <-> lane b's scalar BFS reaches v *)
          let bit = Msbfs.settled_bits ws v land (1 lsl b) <> 0 in
          if bit <> (dist.(v) >= 0) then ok := false;
          let byte = if dist.(v) >= 0 then Char.chr dist.(v) else Msbfs.unreached in
          if Bytes.get depths.(b) v <> byte then ok := false;
          if dist.(v) >= 1 then begin
            incr reached;
            level.(dist.(v)) <- level.(dist.(v)) + 1
          end
        done
      done;
      if Msbfs.max_level ws <> !max_level then ok := false;
      if Msbfs.reached_pairs ws <> !reached then ok := false;
      if Msbfs.level_pairs ws 0 <> len then ok := false;
      for d = 1 to !max_level do
        if Msbfs.level_pairs ws d <> level.(d) then ok := false
      done;
      !ok)

let max_depth_matches_bounded =
  let ws = Msbfs.workspace () in
  q ~count:40 "max_depth truncates like the scalar bounded BFS"
    graph_brokers_arb
    (fun (g, _, seed) ->
      let n = G.n g in
      let rng = Broker_util.Xrandom.create (seed + 2) in
      let len = min Msbfs.lanes (1 + Broker_util.Xrandom.int rng 8) in
      let sources = draw_sources rng ~n ~count:len in
      let ok = ref true in
      List.iter
        (fun md ->
          Msbfs.run ws g ~max_depth:md sources ~lo:0 ~len;
          for b = 0 to len - 1 do
            let dist = Bfs.distances_bounded g ~max_depth:md sources.(b) in
            for v = 0 to n - 1 do
              let bit = Msbfs.settled_bits ws v land (1 lsl b) <> 0 in
              if bit <> (dist.(v) >= 0) then ok := false
            done
          done)
        [ 0; 1; 2 ];
      !ok)

let depth_rows_stop_at_a_byte () =
  (* A 300-path from vertex 0 settles depths 0 .. 299; rows hold 0 .. 254
     and read unreached beyond, at offset [lo] of the row array. *)
  let g = path_graph 300 in
  let ws = Msbfs.workspace () in
  let depths = Array.init 2 (fun _ -> Bytes.create 300) in
  Msbfs.run_view ws (View.of_graph g) ~depths [| 7; 0 |] ~lo:1 ~len:1;
  check_int "max level" 299 (Msbfs.max_level ws);
  let ok = ref true in
  for v = 0 to 299 do
    let want = if v <= Msbfs.max_recorded_depth then Char.chr v else Msbfs.unreached in
    if Bytes.get depths.(1) v <> want then ok := false
  done;
  check_bool "row of lane 0 at index lo" true !ok

(* --- one workspace reused across everything ---------------------------- *)

module Delta = Broker_graph.Delta

(* Everything a run leaves to query, read out of a workspace: level
   pairs, settled words of the first [upto] vertex ids (ids at or past
   the graph read 0, or are outside the workspace), per-lane counts of
   even vertices, and the depth rows when the run recorded them. *)
let snapshot ws ~n ~upto ~len depths =
  let levels =
    List.init (Msbfs.max_level ws + 1) (Msbfs.level_pairs ws)
  in
  let bits =
    List.init upto (fun v ->
        match Msbfs.settled_bits ws v with
        | b -> if v >= n && b <> 0 then -1 else b
        | exception Invalid_argument _ -> if v < n then -2 else 0)
  in
  let counts = Array.make len 0 in
  Msbfs.lane_counts_into ws ~keep:(fun v -> v land 1 = 0) counts;
  let rows =
    Option.map (Array.map (fun r -> Bytes.sub_string r 0 n)) depths
  in
  (Msbfs.max_level ws, Msbfs.reached_pairs ws, levels, bits, counts, rows)

(* The scalar BFS on the compacted graph: settled words, level pairs,
   per-lane counts of even vertices and depth rows the run must match. *)
let scalar_expect g sources ~len ~max_depth =
  let n = G.n g in
  let bits = Array.make n 0 and counts = Array.make len 0 in
  let levels = Array.make (n + 1) 0 in
  let rows = Array.init len (fun _ -> Bytes.make n Msbfs.unreached) in
  for b = 0 to len - 1 do
    let dist =
      match max_depth with
      | Some md -> Bfs.distances_bounded g ~max_depth:md sources.(b)
      | None -> Bfs.distances g sources.(b)
    in
    Array.iteri
      (fun v d ->
        if d >= 0 then begin
          bits.(v) <- bits.(v) lor (1 lsl b);
          levels.(d) <- levels.(d) + 1;
          if v land 1 = 0 then counts.(b) <- counts.(b) + 1;
          Bytes.set rows.(b) v (Char.chr d)
        end)
      dist
  done;
  (bits, levels, counts, rows)

let matches_scalar ws g sources ~len ~max_depth depths =
  let n = G.n g in
  let bits, levels, counts, rows = scalar_expect g sources ~len ~max_depth in
  let got = Array.make len 0 in
  Msbfs.lane_counts_into ws ~keep:(fun v -> v land 1 = 0) got;
  let ok = ref (got = counts) in
  for v = 0 to n - 1 do
    if Msbfs.settled_bits ws v <> bits.(v) then ok := false
  done;
  for d = 0 to n do
    let want = levels.(d) in
    let have = if d <= Msbfs.max_level ws then Msbfs.level_pairs ws d else 0 in
    if have <> want then ok := false
  done;
  (match depths with
  | Some r ->
      for b = 0 to len - 1 do
        if Bytes.sub r.(b) 0 n <> rows.(b) then ok := false
      done
  | None -> ());
  !ok

let reused_workspace_arb =
  QCheck.make
    ~print:(fun (g, seed) ->
      Printf.sprintf "<graph n=%d m=%d seed=%d>" (G.n g) (G.m g) seed)
    QCheck.Gen.(
      int_range 2 90 >>= fun n ->
      int_range 0 200 >>= fun m ->
      int_range 0 1_000_000 >|= fun seed ->
      (random_graph (Broker_util.Xrandom.create seed) ~n ~m, seed))

let reused_workspace_matches_fresh =
  (* One workspace across every case: graph sizes go up and down between
     cases, runs cut off at max_depth come before full runs, base and
     overlay views alternate, and depth rows are on or off at random. *)
  let ws = Msbfs.workspace () in
  let upto = 96 in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
    (QCheck.Test.make ~count:120
       ~name:"reused workspace = fresh workspace = scalar BFS"
       reused_workspace_arb (fun (g, seed) ->
         let n = G.n g in
         let rng = Broker_util.Xrandom.create (seed + 7) in
         let d = Delta.create g in
         for _ = 1 to Broker_util.Xrandom.int rng 10 do
           let u = Broker_util.Xrandom.int rng n
           and v = Broker_util.Xrandom.int rng n in
           if u <> v then
             if Broker_util.Xrandom.int rng 2 = 0 then ignore (Delta.add_edge d u v)
             else ignore (Delta.remove_edge d u v)
         done;
         let views =
           [ (View.of_graph g, g); (Delta.view d, Delta.compact g d) ]
         in
         let run_both vw gv ~max_depth =
           let len = 1 + Broker_util.Xrandom.int rng Msbfs.lanes in
           let sources = draw_sources rng ~n ~count:len in
           let rows () =
             if Broker_util.Xrandom.int rng 2 = 0 then None
             else Some (Array.init len (fun _ -> Bytes.make n '\007'))
           in
           let depths = rows () in
           let fresh_depths = Option.map (Array.map Bytes.copy) depths in
           Msbfs.run_view ws vw ?max_depth ?depths sources ~lo:0 ~len;
           let fresh = Msbfs.workspace () in
           Msbfs.run_view fresh vw ?max_depth ?depths:fresh_depths sources
             ~lo:0 ~len;
           snapshot ws ~n ~upto ~len depths
           = snapshot fresh ~n ~upto ~len fresh_depths
           && matches_scalar ws gv sources ~len ~max_depth depths
         in
         List.for_all
           (fun (vw, gv) ->
             let md = Broker_util.Xrandom.int rng 3 in
             run_both vw gv ~max_depth:(Some md)
             && run_both vw gv ~max_depth:None)
           views))

(* --- batched connectivity = reference oracle, bitwise ----------------- *)

let curves_equal (a : Conn.curve) (b : Conn.curve) =
  a.Conn.l_max = b.Conn.l_max
  && a.Conn.per_hop = b.Conn.per_hop
  && a.Conn.saturated = b.Conn.saturated

(* Source counts straddling the 63-lane word boundary: 1 (degenerate
   batch), 63 (one full word), 64/65 (full word + ragged tail), 192
   (three words + tail). *)
let boundary_counts = [ 1; 63; 64; 65; 192 ]

let eval_matches_reference_at_boundaries =
  q ~count:30 "batched eval = reference across batch-boundary source counts"
    graph_brokers_arb
    (fun (g, brokers, seed) ->
      let n = G.n g in
      let is_broker = Conn.of_brokers ~n brokers in
      let rng = Broker_util.Xrandom.create (seed + 3) in
      List.for_all
        (fun count ->
          let sources = draw_sources rng ~n ~count in
          List.for_all
            (fun l_max ->
              let batched = Conn.eval_sources ~l_max g ~is_broker sources in
              let scalar =
                Conn.eval_sources_scalar ~l_max g ~is_broker sources
              in
              let oracle =
                Conn.eval_sources_reference ~l_max g ~is_broker sources
              in
              curves_equal batched oracle && curves_equal batched scalar)
            [ 1; 2; 10 ])
        boundary_counts)

(* --- batched gain probes = scalar Coverage.gain ----------------------- *)

let gains_match_scalar =
  q "Coverage.gains_into = Coverage.gain per candidate" graph_brokers_arb
    (fun (g, brokers, seed) ->
      let n = G.n g in
      let cov = Broker_core.Coverage.create g in
      Array.iter (Broker_core.Coverage.add cov) brokers;
      let rng = Broker_util.Xrandom.create (seed + 4) in
      let len = 1 + Broker_util.Xrandom.int rng (min Msbfs.lanes (2 * n)) in
      let cands = draw_sources rng ~n ~count:(len + 3) in
      let out = Array.make Msbfs.lanes (-7) in
      Broker_core.Coverage.gains_into cov cands ~lo:2 ~len out;
      let ok = ref true in
      for b = 0 to len - 1 do
        if out.(b) <> Broker_core.Coverage.gain cov cands.(2 + b) then
          ok := false
      done;
      (* entries beyond the batch stay untouched *)
      for b = len to Msbfs.lanes - 1 do
        if out.(b) <> -7 then ok := false
      done;
      !ok)

(* The greedy selectors ride the batched probes: their selections must be
   what the scalar probes produced before (CELF and naive agree on
   submodular coverage with deterministic tie-breaks). *)
let celf_matches_naive () =
  let t = small_internet ~seed:3 ~scale:0.008 () in
  let g = t.Broker_topo.Topology.graph in
  let c = Broker_core.Greedy_mcb.celf g ~k:20 in
  let nv = Broker_core.Greedy_mcb.naive g ~k:20 in
  check_bool "celf = naive selections" true (c = nv)

(* --- determinism across REPRO_DOMAINS --------------------------------- *)

let with_domains v f =
  let saved = Sys.getenv_opt "REPRO_DOMAINS" in
  Unix.putenv "REPRO_DOMAINS" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "REPRO_DOMAINS" (Option.value ~default:"" saved))
    f

let deterministic_across_domains () =
  let t = small_internet ~seed:11 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let brokers = Broker_core.Maxsg.run g ~k:16 in
  let is_broker = Conn.of_brokers ~n brokers in
  let sources =
    draw_sources (Broker_util.Xrandom.create 23) ~n ~count:192
  in
  let run () = Conn.eval_sources ~l_max:10 g ~is_broker sources in
  let c1 = with_domains "1" run in
  let c4 = with_domains "4" run in
  check_bool "REPRO_DOMAINS=1 = REPRO_DOMAINS=4" true (curves_equal c1 c4);
  let scalar =
    with_domains "4" (fun () ->
        Conn.eval_sources_scalar ~l_max:10 g ~is_broker sources)
  in
  check_bool "batched = scalar under domains" true (curves_equal c1 scalar)

(* Two domains evaluate different broker sets at once: each call projects
   into its own domain's scratch and borrows its own pooled workspaces,
   so the curves equal sequential calls and the reference oracle. *)
let concurrent_evals_agree () =
  let t = small_internet ~seed:5 ~scale:0.01 () in
  let g = t.Broker_topo.Topology.graph in
  let n = G.n g in
  let order = Broker_core.Maxsg.run g ~k:40 in
  let sets =
    Array.map
      (fun k -> Conn.of_brokers ~n (Array.sub order 0 (min k (Array.length order))))
      [| 5; 10; 20; 40; 0; 30 |]
  in
  let sources = draw_sources (Broker_util.Xrandom.create 29) ~n ~count:130 in
  let eval is_broker = Conn.eval_sources ~l_max:10 g ~is_broker sources in
  let concurrent =
    with_domains "2" (fun () -> Broker_util.Parallel.map_array ~domains:2 eval sets)
  in
  let sequential = with_domains "1" (fun () -> Array.map eval sets) in
  Array.iteri
    (fun i is_broker ->
      check_bool
        (Printf.sprintf "set %d: concurrent = sequential" i)
        true
        (curves_equal concurrent.(i) sequential.(i));
      check_bool
        (Printf.sprintf "set %d: concurrent = reference" i)
        true
        (curves_equal concurrent.(i)
           (Conn.eval_sources_reference ~l_max:10 g ~is_broker sources)))
    sets

(* --- validation ------------------------------------------------------- *)

let view_of_csr_validates () =
  let g = path_graph 4 in
  let off = G.csr_off g and adj = G.csr_adj g in
  let arcs = G.arcs g in
  let short = "View.of_csr: buffers shorter than the graph" in
  let span = "View.of_csr: offsets do not span the arc count" in
  Alcotest.check_raises "offsets too short" (Invalid_argument short) (fun () ->
      ignore (View.of_csr ~n:5 ~arcs ~off ~adj));
  Alcotest.check_raises "adjacency too short" (Invalid_argument short)
    (fun () -> ignore (View.of_csr ~n:4 ~arcs:(arcs + 1) ~off ~adj));
  Alcotest.check_raises "arc count below the segments" (Invalid_argument span)
    (fun () -> ignore (View.of_csr ~n:4 ~arcs:0 ~off ~adj));
  let padded = Array.append adj [| 0; 0 |] in
  Alcotest.check_raises "arc count past the segments" (Invalid_argument span)
    (fun () -> ignore (View.of_csr ~n:4 ~arcs:(arcs + 2) ~off ~adj:padded));
  let vw = View.of_csr ~n:4 ~arcs ~off ~adj:padded in
  check_int "longer buffer accepted" arcs (View.arcs vw)

let run_validates_arguments () =
  let ws = Msbfs.workspace () in
  let g = path_graph 4 in
  let srcs = [| 0; 1; 2; 3 |] in
  Alcotest.check_raises "len = 0"
    (Invalid_argument "Msbfs: batch size out of range") (fun () ->
      Msbfs.run ws g srcs ~lo:0 ~len:0);
  Alcotest.check_raises "len > lanes"
    (Invalid_argument "Msbfs: batch size out of range") (fun () ->
      Msbfs.run ws g srcs ~lo:0 ~len:(Msbfs.lanes + 1));
  Alcotest.check_raises "range escapes sources"
    (Invalid_argument "Msbfs: source range out of bounds") (fun () ->
      Msbfs.run ws g srcs ~lo:2 ~len:3);
  Alcotest.check_raises "negative lo"
    (Invalid_argument "Msbfs: source range out of bounds") (fun () ->
      Msbfs.run ws g srcs ~lo:(-1) ~len:2);
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Msbfs: source out of range") (fun () ->
      Msbfs.run ws g [| 0; 99 |] ~lo:0 ~len:2);
  let vw = View.of_graph g in
  Alcotest.check_raises "depth rows shorter than the batch"
    (Invalid_argument "Msbfs: depth rows shorter than the batch") (fun () ->
      Msbfs.run_view ws vw ~depths:[| Bytes.create 4 |] srcs ~lo:0 ~len:2);
  Alcotest.check_raises "depth row shorter than the graph"
    (Invalid_argument "Msbfs: depth row shorter than the graph") (fun () ->
      Msbfs.run_view ws vw ~depths:[| Bytes.create 3 |] srcs ~lo:0 ~len:1);
  (* Validation happens before any mutation: the workspace still answers
     for the last good run. *)
  Msbfs.run ws g srcs ~lo:0 ~len:2;
  Alcotest.check_raises "level out of range"
    (Invalid_argument "Msbfs.level_pairs: level out of range") (fun () ->
      ignore (Msbfs.level_pairs ws (Msbfs.max_level ws + 1)));
  Alcotest.check_raises "vertex out of range"
    (Invalid_argument "Msbfs.settled_bits: vertex out of range") (fun () ->
      ignore (Msbfs.settled_bits ws 99));
  Alcotest.check_raises "short out array"
    (Invalid_argument "Msbfs.lane_counts_into: output shorter than the batch")
    (fun () -> Msbfs.lane_counts_into ws ~keep:(fun _ -> true) (Array.make 1 0))

(* Every evaluator and the shared tally fold reject a negative hop bound
   with one named error, instead of an empty curve (-1) or a bare
   Array.make failure (-2); a zero bound is a valid, empty curve. *)
let negative_l_max_rejected () =
  let g = path_graph 5 in
  let is_broker v = v = 2 in
  let sources = [| 0; 4 |] in
  let err = Invalid_argument "Connectivity: l_max must be >= 0" in
  List.iter
    (fun l_max ->
      let raises name f =
        Alcotest.check_raises (Printf.sprintf "%s l_max=%d" name l_max) err
          (fun () -> ignore (f ()))
      in
      raises "eval_sources" (fun () -> Conn.eval_sources ~l_max g ~is_broker sources);
      raises "eval_sources_scalar" (fun () ->
          Conn.eval_sources_scalar ~l_max g ~is_broker sources);
      raises "eval_sources_reference" (fun () ->
          Conn.eval_sources_reference ~l_max g ~is_broker sources);
      raises "exact" (fun () -> Conn.exact ~l_max g ~is_broker);
      raises "sampled" (fun () ->
          Conn.sampled ~l_max ~rng:(Broker_util.Xrandom.create 1) ~sources:2 g
            ~is_broker);
      raises "curve_of_counts" (fun () ->
          Conn.curve_of_counts ~l_max ~hist:[| 0; 0 |] ~reached:0 ~total:1))
    [ -1; -2 ];
  let c = Conn.eval_sources ~l_max:0 g ~is_broker sources in
  check_int "l_max 0: per_hop has one entry" 1 (Array.length c.Conn.per_hop);
  check_bool "l_max 0: same saturation as l_max 10" true
    (c.Conn.saturated = (Conn.eval_sources ~l_max:10 g ~is_broker sources).Conn.saturated)

let suite =
  [
    ( "msbfs.lanes",
      [
        Alcotest.test_case "word width" `Quick lanes_is_word_width;
        lanes_match_scalar;
        max_depth_matches_bounded;
        reused_workspace_matches_fresh;
        Alcotest.test_case "depth rows stop at a byte" `Quick
          depth_rows_stop_at_a_byte;
      ] );
    ( "msbfs.connectivity",
      [
        eval_matches_reference_at_boundaries;
        Alcotest.test_case "deterministic across REPRO_DOMAINS" `Quick
          deterministic_across_domains;
        Alcotest.test_case "concurrent evals = sequential" `Quick
          concurrent_evals_agree;
      ] );
    ( "msbfs.gains",
      [
        gains_match_scalar;
        Alcotest.test_case "celf selections unchanged" `Quick celf_matches_naive;
      ] );
    ( "msbfs.validation",
      [
        Alcotest.test_case "argument validation" `Quick run_validates_arguments;
        Alcotest.test_case "View.of_csr validation" `Quick view_of_csr_validates;
        Alcotest.test_case "negative l_max rejected" `Quick
          negative_l_max_rejected;
      ] );
  ]
