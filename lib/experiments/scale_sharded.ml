(* Shard-partitioned many-flow churn: the Scale scenario rebuilt as
   [cells] independent dumbbell legs around one shared bottleneck cell,
   with each leg (its hosts, access links and churn slots) pinned to an
   OCaml domain by [Sim.Sharded_engine].

   Topology (per cell c; B is the bottleneck cell, always on shard 0):

     sources ==access== L_c  --hand-off-->  Bi ==bottleneck== Bo
     sinks   ==access== R_c  <--hand-off--  (and the mirror Bri/Bro
                                             pair for the ACK path)

   Every cell<->B crossing is a [Net.Shard_egress] boundary: an egress
   link (full cross bandwidth, zero propagation) whose delivery flattens
   the packet and re-materialises it [cross_delay_s] later in the peer
   network. Cells co-located with B use the [Local] form, remote cells
   the [Remote] (channel) form; both compute arrival as [now +. delay]
   with the same float arithmetic, so the simulated timeline does not
   depend on which cells share a domain. With [domains = 1] every
   boundary is local and the run is the plain serial engine — the
   differential baseline the sharded tests compare against.

   Partition-independence of the workload: all per-slot RNG streams are
   derived once at the root in global slot order
   ([Workload.Flow_churn.slot_rngs]) and sliced contiguously across
   cells, and each cell allocates flow ids in its own range — so cell
   membership, domain count and cell count never perturb what a given
   global slot sends. The only cross-cell coupling is queueing at the
   shared bottleneck, which is a deterministic function of arrival
   times.

   Why merged traces are byte-identical across domain counts: within a
   cell, all probe events are emitted by that cell's engine in its
   deterministic (time, rank) order; hand-off arrivals into a cell are
   scheduled at identical times under every domain count (same floats);
   and the per-cell latency skew ([cell_delay] below) keeps different
   cells' packets from ever reaching the shared bottleneck at equal
   float times, so queue order there never depends on engine insertion
   order. Each cell's event sequence — and therefore each per-cell
   digest — is invariant; the merge concatenates per-cell digests in
   cell order. Pinned by test/test_sharded.ml and the
   scale-smoke-sharded CI stage. *)

type result = {
  flows : int;
  cells : int;
  domains : int;
  duration : float;
  transfers_started : int;
  transfers_completed : int;
  segments_completed : int;
  goodput_mbps : float;
  events_executed : int;
  timer_arms : int;
  timer_cancels : int;
  timer_fires : int;
  messages : int;  (* cross-shard ring messages delivered *)
  windows : int;  (* conductor synchronization windows *)
  crossings : int;  (* packets through all cell<->B boundaries *)
  pending_at_end : int;
  cell_digests : string array;  (* per-cell probe-trace digests; [||] unless recorded *)
  merged_digest : string option;
  sharded : Sim.Sharded_engine.t;
  networks : Net.Network.t array;  (* one per shard *)
  workloads : Workload.Flow_churn.t array;  (* one per cell *)
  probes : Tcp.Probe.t array;  (* one per cell when probing; [||] otherwise *)
}

let default_cells = 8

let cross_delay_s = 0.010

(* Equal-time events on one engine execute in insertion order, and
   insertion order at the bottleneck shard is exactly what a domain
   count changes (local [schedule_after] during execution vs ring drain
   at window boundaries). Cross-cell ties at the shared bottleneck are
   common — ack-clocking quantizes send times to the serialization
   delay — and whichever packet enqueues first shifts the other by a
   full quantum. So ties must not exist: each cell's boundary latency
   carries a distinct nanosecond-scale skew, making cross-cell arrival
   times at the shared links distinct floats regardless of who computed
   them. Six orders of magnitude below the serialization quantum, the
   skew is physically irrelevant; as a tie-breaker it is total. *)
let cell_delay c = cross_delay_s +. (float_of_int (c + 1) *. 1e-9)

(* Same knobs as [Scale]: ~1 Mb/s of bottleneck per slot, deep-enough
   queues that loss is pressure rather than collapse. The legacy 20 ms
   bottleneck propagation is split onto the two crossings (10 ms each
   side), so the end-to-end RTT matches the single-dumbbell scenario. *)
let run ?(seed = 0) ?(sender = ("TCP-PR", (module Core.Tcp_pr : Tcp.Sender.S)))
    ?(config = Scale.default_config) ?(duration = 5.)
    ?(cells = default_cells) ?(record = false) ?probe_hook ~domains ~flows ()
    =
  if flows < 1 then invalid_arg "Scale_sharded.run: flows must be >= 1";
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Scale_sharded.run: duration must be finite and positive";
  if domains < 1 then invalid_arg "Scale_sharded.run: domains must be >= 1";
  if cells < 1 then invalid_arg "Scale_sharded.run: cells must be >= 1";
  let _, sender_module = sender in
  let cells = min cells flows in
  let timer_granularity =
    if config.Tcp.Config.timer_granularity > 0. then
      config.Tcp.Config.timer_granularity
    else 1e-3
  in
  let sharded = Sim.Sharded_engine.create ~domains ~timer_granularity () in
  let networks =
    Array.init domains (fun s ->
        Net.Network.create (Sim.Sharded_engine.engine sharded s))
  in
  let engine0 = Sim.Sharded_engine.engine sharded 0 in
  let bnet = networks.(0) in
  (* Bottleneck cell: data enters at Bi, exits at Bo; ACKs mirror
     through Bri/Bro. *)
  let bi = Net.Network.add_node bnet in
  let bo = Net.Network.add_node bnet in
  let bri = Net.Network.add_node bnet in
  let bro = Net.Network.add_node bnet in
  let bottleneck_bandwidth_bps =
    Float.max 10e6 (float_of_int flows *. 1e6)
  in
  let cross_bandwidth_bps = bottleneck_bandwidth_bps in
  let queue_capacity = max 64 (flows / 2) in
  let cross_queue_capacity = 2 * queue_capacity in
  let pairs_per_cell n_c = min n_c (max 1 (32 / cells)) in
  let cell_flows =
    Array.init cells (fun c ->
        (flows / cells) + (if c < flows mod cells then 1 else 0))
  in
  let total_pairs =
    Array.fold_left (fun acc n_c -> acc + pairs_per_cell n_c) 0 cell_flows
  in
  let access_bandwidth_bps =
    Float.max 100e6
      (4. *. bottleneck_bandwidth_bps /. float_of_int total_pairs)
  in
  ignore
    (Net.Network.add_link bnet ~src:bi ~dst:bo
       ~bandwidth_bps:bottleneck_bandwidth_bps ~delay_s:0.
       ~capacity:queue_capacity ());
  ignore
    (Net.Network.add_link bnet ~src:bri ~dst:bro
       ~bandwidth_bps:bottleneck_bandwidth_bps ~delay_s:0.
       ~capacity:queue_capacity ());
  (* Per-slot streams and flow-id ranges are global, so the traffic a
     slot generates is independent of the cell partition. *)
  let root_rng = Sim.Rng.create seed in
  let all_rngs = Workload.Flow_churn.slot_rngs root_rng ~flows in
  let flow_stride = 1 lsl 32 in
  let ring_capacity = max 16384 (2 * flows) in
  let probing = record || probe_hook <> None in
  let probes = if probing then Array.init cells (fun _ -> Tcp.Probe.create ()) else [||] in
  let buffers = if record then Array.init cells (fun _ -> Buffer.create 4096) else [||] in
  if record then
    Array.iteri
      (fun c probe ->
        let buf = buffers.(c) in
        Sim.Trace.on probe (fun event ->
            Buffer.add_string buf (Tcp.Probe.to_line event);
            Buffer.add_char buf '\n'))
      probes;
  (match probe_hook with
  | Some hook -> Array.iteri (fun c probe -> hook ~cell:c probe) probes
  | None -> ());
  let egresses = ref [] in
  let workloads =
    Array.init cells (fun c ->
        let n_c = cell_flows.(c) in
        let shard = c mod domains in
        let net = networks.(shard) in
        let pairs = pairs_per_cell n_c in
        let l = Net.Network.add_node net in
        let r = Net.Network.add_node net in
        let sources = Array.init pairs (fun _ -> Net.Network.add_node net) in
        let sinks = Array.init pairs (fun _ -> Net.Network.add_node net) in
        Array.iter
          (fun host ->
            ignore
              (Net.Network.add_duplex net ~src:host ~dst:l
                 ~bandwidth_bps:access_bandwidth_bps ~delay_s:0.001
                 ~capacity:cross_queue_capacity ()))
          sources;
        Array.iter
          (fun host ->
            ignore
              (Net.Network.add_duplex net ~src:r ~dst:host
                 ~bandwidth_bps:access_bandwidth_bps ~delay_s:0.001
                 ~capacity:cross_queue_capacity ()))
          sinks;
        (* Egress stubs: the link into a stub is the boundary; the stub
           node itself never sees a packet. *)
        let ef = Net.Network.add_node net in
        let er = Net.Network.add_node net in
        let ebf = Net.Network.add_node bnet in
        let ebr = Net.Network.add_node bnet in
        let cross_link net' ~src ~dst =
          Net.Network.add_link net' ~src ~dst
            ~bandwidth_bps:cross_bandwidth_bps ~delay_s:0.
            ~capacity:cross_queue_capacity ()
        in
        let link_in_f = cross_link net ~src:l ~dst:ef in
        let link_in_r = cross_link net ~src:r ~dst:er in
        let link_out_f = cross_link bnet ~src:bo ~dst:ebf in
        let link_out_r = cross_link bnet ~src:bro ~dst:ebr in
        let delay = cell_delay c in
        let via_to_b, via_from_b =
          if shard = 0 then
            ( Net.Shard_egress.Local (engine0, delay),
              Net.Shard_egress.Local (engine0, delay) )
          else
            ( Net.Shard_egress.Remote
                ( sharded,
                  Sim.Sharded_engine.channel sharded ~src:shard ~dst:0
                    ~latency:delay ~capacity:ring_capacity () ),
              Net.Shard_egress.Remote
                ( sharded,
                  Sim.Sharded_engine.channel sharded ~src:0 ~dst:shard
                    ~latency:delay ~capacity:ring_capacity () ) )
        in
        (* ACKs share direction with their crossing, not their data, so
           the reverse path needs its own channel pair. *)
        let via_to_b_r, via_from_b_r =
          if shard = 0 then (via_to_b, via_from_b)
          else
            ( Net.Shard_egress.Remote
                ( sharded,
                  Sim.Sharded_engine.channel sharded ~src:shard ~dst:0
                    ~latency:delay ~capacity:ring_capacity () ),
              Net.Shard_egress.Remote
                ( sharded,
                  Sim.Sharded_engine.channel sharded ~src:0 ~dst:shard
                    ~latency:delay ~capacity:ring_capacity () ) )
        in
        let id = Net.Node.id in
        let b_route_f = [| id bo; id ebf |] in
        let b_route_r = [| id bro; id ebr |] in
        let data_routes =
          Array.init pairs (fun p -> [| id l; id ef; id sinks.(p) |])
        in
        let ack_routes =
          Array.init pairs (fun p -> [| id r; id er; id sources.(p) |])
        in
        let tail_data = Array.init pairs (fun p -> [| id sinks.(p) |]) in
        let tail_ack = Array.init pairs (fun p -> [| id sources.(p) |]) in
        let pair_of = Hashtbl.create (2 * pairs) in
        Array.iteri (fun p host -> Hashtbl.replace pair_of (id host) p) sources;
        Array.iteri (fun p host -> Hashtbl.replace pair_of (id host) p) sinks;
        let wire ~via ~link ~src_network ~dst_network ~entry ~reroute =
          egresses :=
            Net.Shard_egress.wire ~via ~link ~src_network ~dst_network ~entry
              ~reroute
            :: !egresses
        in
        (* Data: cell -> B (constant reroute into the bottleneck). *)
        wire ~via:via_to_b ~link:link_in_f ~src_network:net ~dst_network:bnet
          ~entry:bi
          ~reroute:(fun _packet -> (b_route_f, id ebf));
        (* Data: B -> cell (the carried [src] recovers the pair). *)
        wire ~via:via_from_b ~link:link_out_f ~src_network:bnet
          ~dst_network:net ~entry:r
          ~reroute:(fun packet ->
            let p = Hashtbl.find pair_of packet.Net.Packet.src in
            (tail_data.(p), id sinks.(p)));
        (* ACKs: cell -> B. *)
        wire ~via:via_to_b_r ~link:link_in_r ~src_network:net
          ~dst_network:bnet ~entry:bri
          ~reroute:(fun _packet -> (b_route_r, id ebr));
        (* ACKs: B -> cell. *)
        wire ~via:via_from_b_r ~link:link_out_r ~src_network:bnet
          ~dst_network:net ~entry:l
          ~reroute:(fun packet ->
            let p = Hashtbl.find pair_of packet.Net.Packet.src in
            (tail_ack.(p), id sources.(p)));
        let endpoints =
          { Workload.Flow_churn.network = net;
            sources;
            sinks;
            route_data = (fun pair -> data_routes.(pair));
            route_ack = (fun pair -> ack_routes.(pair)) }
        in
        let slot_base =
          let base = ref 0 in
          for c' = 0 to c - 1 do
            base := !base + cell_flows.(c')
          done;
          !base
        in
        let churn = Scale.default_churn ~flows:n_c ~duration in
        Workload.Flow_churn.spawn_endpoints endpoints ~sender:sender_module
          ~config ~churn
          ~rngs:(Array.sub all_rngs slot_base n_c)
          ~flow_base:(c * flow_stride)
          ?probe:(if probing then Some probes.(c) else None)
          ())
  in
  Sim.Sharded_engine.run sharded ~until:duration;
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workloads in
  let segments = sum Workload.Flow_churn.segments_completed in
  let cell_digests =
    if record then
      Array.map
        (fun buf ->
          let d = Digest.to_hex (Digest.string (Buffer.contents buf)) in
          Buffer.clear buf;
          d)
        buffers
    else [||]
  in
  let merged_digest =
    if record then
      Some
        (Digest.to_hex
           (Digest.string (String.concat "\n" (Array.to_list cell_digests))))
    else None
  in
  { flows;
    cells;
    domains;
    duration;
    transfers_started = sum Workload.Flow_churn.transfers_started;
    transfers_completed = sum Workload.Flow_churn.transfers_completed;
    segments_completed = segments;
    goodput_mbps =
      float_of_int (segments * config.Tcp.Config.mss) *. 8. /. duration /. 1e6;
    events_executed = Sim.Sharded_engine.events_executed sharded;
    timer_arms = Sim.Sharded_engine.timer_arms sharded;
    timer_cancels = Sim.Sharded_engine.timer_cancels sharded;
    timer_fires = Sim.Sharded_engine.timer_fires sharded;
    messages = Sim.Sharded_engine.messages_delivered sharded;
    windows = Sim.Sharded_engine.windows sharded;
    crossings =
      List.fold_left
        (fun acc e -> acc + Net.Shard_egress.crossings e)
        0 !egresses;
    pending_at_end = Sim.Sharded_engine.pending sharded;
    cell_digests;
    merged_digest;
    sharded;
    networks;
    workloads;
    probes }

let timer_ops r = r.timer_arms + r.timer_cancels + r.timer_fires

let pp ppf r =
  Fmt.pf ppf
    "flows=%d cells=%d domains=%d sim=%.1fs transfers=%d/%d goodput=%.1f \
     Mb/s events=%d timer_ops=%d messages=%d windows=%d crossings=%d \
     pending=%d"
    r.flows r.cells r.domains r.duration r.transfers_completed
    r.transfers_started r.goodput_mbps r.events_executed (timer_ops r)
    r.messages r.windows r.crossings r.pending_at_end
