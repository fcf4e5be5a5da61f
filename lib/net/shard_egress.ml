(* Cross-shard (or cross-network) boundary for pooled packets.

   A wired link's delivery callback is replaced: instead of handing the
   packet to the downstream node, the boundary flattens the packet into
   plain immutable values, releases the record into the *source*
   network's pool, and sends a closure one hand-off latency downstream.
   On arrival the closure acquires a record from the *destination*
   network's pool, restores the carried identity (uid, flow, src, size,
   hop count, payload) under a destination-side route and
   address, and delivers it to the entry node.

   This is the ownership contract the pool tests pin: a packet never
   crosses a domain boundary as a mutable record. The source pool gets
   its record back at egress time (its [outstanding] drops immediately;
   a message still in flight holds only copied scalars and the shared
   immutable payload/route), and the destination pool's counters see an
   ordinary acquire/release cycle.

   The [via] split exists for bit-identical timing: a same-shard
   boundary uses [Engine.schedule_after ~delay:latency] on the shard's
   own engine, a cross-shard boundary uses [Sharded_engine.send], and
   both compute the arrival as [now +. latency] — the same float — so
   which cells share a domain never perturbs simulated time. *)

type via =
  | Local of Sim.Engine.t * float
  | Remote of Sim.Sharded_engine.t * Sim.Sharded_engine.channel

type t = {
  mutable crossings : int;
  wire_latency : float;
}

let latency = function
  | Local (_, l) -> l
  | Remote (_, ch) -> Sim.Sharded_engine.channel_latency ch

let wire ~via ~link ~src_network ~dst_network ~entry ~reroute =
  (match via with
  | Local (_, l) when not (l > 0.) ->
    invalid_arg "Shard_egress.wire: latency must be > 0"
  | _ -> ());
  let t = { crossings = 0; wire_latency = latency via } in
  Link.set_deliver link (fun packet ->
      let route, dst = reroute packet in
      let uid = packet.Packet.uid in
      let flow = packet.Packet.flow in
      let src = packet.Packet.src in
      let size = packet.Packet.size in
      let hops = packet.Packet.hops in
      let payload = packet.Packet.payload in
      Network.release_packet src_network packet;
      t.crossings <- t.crossings + 1;
      let arrive () =
        let p =
          Packet_pool.acquire (Network.pool dst_network) ~uid ~flow ~src ~dst
            ~size ~route payload
        in
        p.Packet.hops <- hops;
        Node.receive entry p
      in
      match via with
      | Local (engine, l) -> Sim.Engine.schedule_after engine ~delay:l arrive
      | Remote (sharded, ch) -> Sim.Sharded_engine.send sharded ch arrive);
  t

let crossings t = t.crossings

let wire_latency t = t.wire_latency
