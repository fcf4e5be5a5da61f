(* Free list of packet records, stored as an array stack so that
   acquire/release allocate nothing themselves. All fields are
   overwritten by [Packet.reinit] at acquire; [release] installs the
   [Recycled] payload sentinel so double releases and use-after-release
   are detectable.

   The population counters live in Obs metrics so a collector can lift
   them into a registry without translation: [created] is a counter,
   [outstanding] and [in_pool] are gauges (whose peaks come for free).
   Both record by mutating int fields — the acquire/release paths stay
   allocation-free. *)

type t = {
  mutable items : Packet.t array;
  mutable size : int;  (* packets currently on the free list *)
  created : Obs.Metrics.Counter.t;  (* fresh records ever allocated *)
  outstanding : Obs.Metrics.Gauge.t;  (* acquired and not yet released *)
  in_pool : Obs.Metrics.Gauge.t;  (* mirrors [size] *)
}

let empty_route = [||]

(* Placeholder filling unused array slots; never handed out. *)
let dummy () =
  Packet.create ~uid:(-1) ~flow:(-1) ~src:0 ~dst:0 ~size:1 ~route:[| 0 |]
    Packet.Recycled

let create () =
  { items = Array.make 64 (dummy ());
    size = 0;
    created = Obs.Metrics.Counter.create ();
    outstanding = Obs.Metrics.Gauge.create ();
    in_pool = Obs.Metrics.Gauge.create () }

let acquire t ~uid ~flow ~src ~dst ~size ~route payload =
  Obs.Metrics.Gauge.add t.outstanding 1;
  if t.size > 0 then begin
    t.size <- t.size - 1;
    Obs.Metrics.Gauge.add t.in_pool (-1);
    let packet = t.items.(t.size) in
    Packet.reinit packet ~uid ~flow ~src ~dst ~size ~route payload;
    packet
  end
  else begin
    Obs.Metrics.Counter.incr t.created;
    Packet.create ~uid ~flow ~src ~dst ~size ~route payload
  end

let release t packet =
  (match packet.Packet.payload with
  | Packet.Recycled ->
    invalid_arg "Packet_pool.release: packet already recycled"
  | _ -> ());
  packet.Packet.payload <- Packet.Recycled;
  packet.Packet.route <- empty_route;
  packet.Packet.next_hop <- 0;
  Obs.Metrics.Gauge.add t.outstanding (-1);
  if t.size = Array.length t.items then begin
    let bigger = Array.make (2 * t.size) packet in
    Array.blit t.items 0 bigger 0 t.size;
    t.items <- bigger
  end;
  t.items.(t.size) <- packet;
  t.size <- t.size + 1;
  Obs.Metrics.Gauge.add t.in_pool 1

let in_pool t = t.size

let created t = Obs.Metrics.Counter.get t.created

let outstanding t = Obs.Metrics.Gauge.get t.outstanding

let peak_outstanding t = Obs.Metrics.Gauge.peak t.outstanding

let created_counter t = t.created

let outstanding_gauge t = t.outstanding

let in_pool_gauge t = t.in_pool
