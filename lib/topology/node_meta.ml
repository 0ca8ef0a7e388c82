type kind = Tier1 | Transit | Access | Content | Enterprise | Ixp

let kind_to_string = function
  | Tier1 -> "Tier1"
  | Transit -> "Transit"
  | Access -> "Access"
  | Content -> "Content"
  | Enterprise -> "Enterprise"
  | Ixp -> "IXP"

let kind_equal (a : kind) b = a = b
let is_as = function Ixp -> false | Tier1 | Transit | Access | Content | Enterprise -> true
let all_kinds = [ Tier1; Transit; Access; Content; Enterprise; Ixp ]

type relation = Customer_provider | Peer | Ixp_member

let arc_none = '\000'
let arc_up = '\001'
let arc_down = '\002'
let arc_peer = '\003'
let arc_ixp = '\004'

module G = Broker_graph.Graph

let m_label_builds = Broker_obs.Metrics.counter "topo.arc_relations.builds"

(* Serialises label builds so each (graph, stamp) is labelled exactly once
   even when several domains ask at the same time — the build counter
   must not depend on REPRO_DOMAINS. *)
let label_lock = Mutex.create ()

module Relations = struct
  (* Keyed by the canonical (min, max) pair; the payload records which
     orientation is the customer for C2P links. *)
  type entry = C2p_low_customer | C2p_high_customer | Peer_e | Ixp_e

  type t = {
    tbl : (int * int, entry) Hashtbl.t;
    mutable stamp : int;  (** bumped by every [add_*] *)
    labels : (G.t * int * Bytes.t) option Atomic.t;
        (** the last [arc_labels] result, with the graph and stamp it was
            built for *)
  }

  let create () =
    { tbl = Hashtbl.create 1024; stamp = 0; labels = Atomic.make None }

  let key u v = if u < v then (u, v) else (v, u)

  let set t k entry =
    Hashtbl.replace t.tbl k entry;
    t.stamp <- t.stamp + 1

  let add_c2p t ~customer ~provider =
    if customer = provider then invalid_arg "Relations.add_c2p: self edge";
    let entry =
      if customer < provider then C2p_low_customer else C2p_high_customer
    in
    set t (key customer provider) entry

  let add_peer t u v =
    if u = v then invalid_arg "Relations.add_peer: self edge";
    set t (key u v) Peer_e

  let add_ixp_member t ~as_node ~ixp =
    if as_node = ixp then invalid_arg "Relations.add_ixp_member: self edge";
    set t (key as_node ixp) Ixp_e

  let find t u v =
    match Hashtbl.find_opt t.tbl (key u v) with
    | None -> None
    | Some (C2p_low_customer | C2p_high_customer) -> Some Customer_provider
    | Some Peer_e -> Some Peer
    | Some Ixp_e -> Some Ixp_member

  let customer_of t u v =
    match Hashtbl.find_opt t.tbl (key u v) with
    | Some C2p_low_customer -> u < v
    | Some C2p_high_customer -> u > v
    | Some (Peer_e | Ixp_e) | None -> false

  let provider_of t u v = customer_of t v u

  let peers t u v =
    match Hashtbl.find_opt t.tbl (key u v) with
    | Some (Peer_e | Ixp_e) -> true
    | Some (C2p_low_customer | C2p_high_customer) | None -> false

  let cardinal t = Hashtbl.length t.tbl
  let stamp t = t.stamp

  (* One pass over the table: each recorded edge labels its two arcs;
     relations of edges absent from [g] are skipped. *)
  let build_labels t g =
    let labels = Bytes.make (G.arcs g) arc_none in
    Hashtbl.iter
      (fun (lo, hi) entry ->
        let fwd = G.arc_index g lo hi in
        if fwd >= 0 then begin
          let rev = G.arc_index g hi lo in
          let set_pair a b =
            Bytes.set labels fwd a;
            Bytes.set labels rev b
          in
          match entry with
          | C2p_low_customer -> set_pair arc_up arc_down
          | C2p_high_customer -> set_pair arc_down arc_up
          | Peer_e -> set_pair arc_peer arc_peer
          | Ixp_e -> set_pair arc_ixp arc_ixp
        end)
      t.tbl;
    labels

  let cached t g =
    match Atomic.get t.labels with
    | Some (g', stamp, labels) when g' == g && stamp = t.stamp -> Some labels
    | Some _ | None -> None

  let arc_labels t g =
    match cached t g with
    | Some labels -> labels
    | None ->
        Mutex.protect label_lock (fun () ->
            match cached t g with
            | Some labels -> labels
            | None ->
                let labels = build_labels t g in
                Atomic.set t.labels (Some (g, t.stamp, labels));
                Broker_obs.Metrics.incr m_label_builds;
                labels)
end
