type config = {
  flows : int;
  mean_think_s : float;
  min_segments : int;
  max_segments : int;
  size_alpha : float;
  ramp_s : float;
}

let default_config =
  { flows = 100;
    mean_think_s = 0.5;
    min_segments = 4;
    max_segments = 512;
    size_alpha = 1.3;
    ramp_s = 1.0 }

let validate c =
  if c.flows < 1 then invalid_arg "Flow_churn: flows must be >= 1";
  if c.mean_think_s < 0. then invalid_arg "Flow_churn: negative think time";
  if c.min_segments < 1 then invalid_arg "Flow_churn: min_segments must be >= 1";
  if c.max_segments < c.min_segments then
    invalid_arg "Flow_churn: max_segments < min_segments";
  if c.size_alpha <= 0. then invalid_arg "Flow_churn: size_alpha must be > 0";
  if c.ramp_s < 0. then invalid_arg "Flow_churn: negative ramp"

(* Where the slots' traffic lives: any set of source/sink pairs on one
   network with per-pair routes. The dumbbell is the classic shape, but
   a sharded scale scenario runs one churn instance per cell, each over
   its own slice of a partitioned topology. *)
type endpoints = {
  network : Net.Network.t;
  sources : Net.Node.t array;
  sinks : Net.Node.t array;
  route_data : int -> int array;
  route_ack : int -> int array;
}

let endpoints_of_dumbbell d =
  { network = d.Topo.Dumbbell.network;
    sources = d.Topo.Dumbbell.sources;
    sinks = d.Topo.Dumbbell.sinks;
    route_data = (fun pair -> Topo.Dumbbell.route_forward d ~pair);
    route_ack = (fun pair -> Topo.Dumbbell.route_reverse d ~pair) }

type t = {
  ep : endpoints;
  engine : Sim.Engine.t;
  sender : (module Tcp.Sender.S);
  base_config : Tcp.Config.t;
  churn : config;
  (* One independent stream per slot: a slot's think times and transfer
     sizes depend only on its own draws, so changing the slot count (or
     any other consumer of randomness) never perturbs the sequence a
     given slot sees. *)
  slot_rngs : Sim.Rng.t array;
  (* The connection each slot owns, built at the slot's first transfer
     and recycled for the later ones. *)
  conns : Tcp.Connection.t option array;
  probe : Tcp.Probe.t option;
  mutable next_flow : int;
  mutable started : int;
  mutable completed : int;
  mutable segments_completed : int;
  mutable connections_built : int;
  transfer_segments : Obs.Metrics.Histogram.t;
  transfer_ms : Obs.Metrics.Histogram.t;
}

(* Bounded Pareto via inverse CDF: heavy-tailed transfer sizes (most
   transfers are mice, the byte count is dominated by elephants), the
   standard web/file-transfer size model. *)
let bounded_pareto rng ~alpha ~lo ~hi =
  if lo = hi then lo
  else begin
    let l = float_of_int lo and h = float_of_int hi in
    let u = Sim.Rng.float rng in
    let ratio = (l /. h) ** alpha in
    let x = l /. ((1. -. (u *. (1. -. ratio))) ** (1. /. alpha)) in
    let n = int_of_float x in
    if n < lo then lo else if n > hi then hi else n
  end

(* Each slot runs a closed loop forever: think (exponential), transfer
   (bounded-Pareto size), repeat. Every transfer runs under a globally
   fresh flow id, on the connection the slot owns: once a transfer
   finishes, both endpoints detach its flow id, so any of its packets
   still in flight strand harmlessly, and the next transfer recycles
   the connection in place (see {!Tcp.Connection.recycle}). Recycling
   needs a quiescent connection — finished, no timer armed, no flush or
   ACK pending. A connection still busy when its slot wakes (say, an
   application-drain timer winding down a host-stack receive buffer) is
   left to finish on its own, and the slot builds a new one. *)
let rec start_transfer t slot =
  let rng = t.slot_rngs.(slot) in
  let pairs = Array.length t.ep.sources in
  let pair = slot mod pairs in
  let flow = t.next_flow in
  t.next_flow <- flow + 1;
  t.started <- t.started + 1;
  let segments =
    bounded_pareto rng ~alpha:t.churn.size_alpha ~lo:t.churn.min_segments
      ~hi:t.churn.max_segments
  in
  let config =
    { t.base_config with Tcp.Config.total_segments = Some segments }
  in
  let src = t.ep.sources.(pair) in
  let dst = t.ep.sinks.(pair) in
  let born = Sim.Engine.now t.engine in
  let on_finish () =
    t.completed <- t.completed + 1;
    t.segments_completed <- t.segments_completed + segments;
    Obs.Metrics.Histogram.record t.transfer_segments segments;
    let elapsed_ms =
      int_of_float ((Sim.Engine.now t.engine -. born) *. 1e3)
    in
    Obs.Metrics.Histogram.record t.transfer_ms elapsed_ms;
    Net.Node.detach src ~flow;
    Net.Node.detach dst ~flow;
    think_then_restart t slot
  in
  let c =
    match t.conns.(slot) with
    | Some c when Tcp.Connection.quiescent c ->
      Tcp.Connection.recycle c ~flow ~config ~on_finish;
      c
    | Some _ | None ->
      t.connections_built <- t.connections_built + 1;
      let c =
        Tcp.Connection.create ~on_finish ?probe:t.probe t.ep.network ~flow
          ~src ~dst ~sender:t.sender ~config
          ~route_data:(fun () -> t.ep.route_data pair)
          ~route_ack:(fun () -> t.ep.route_ack pair)
          ()
      in
      t.conns.(slot) <- Some c;
      c
  in
  Tcp.Connection.start c ~at:born

and think_then_restart t slot =
  let delay =
    if t.churn.mean_think_s = 0. then 0.
    else Sim.Rng.exponential t.slot_rngs.(slot) ~mean:t.churn.mean_think_s
  in
  Sim.Engine.schedule_after t.engine ~delay (fun () -> start_transfer t slot)

let spawn_endpoints ep ~sender ~config ~churn ~rngs ?(flow_base = 0) ?probe () =
  validate churn;
  if Array.length ep.sources = 0 then
    invalid_arg "Flow_churn: endpoints need at least one pair";
  if Array.length ep.sources <> Array.length ep.sinks then
    invalid_arg "Flow_churn: sources/sinks length mismatch";
  if Array.length rngs <> churn.flows then
    invalid_arg "Flow_churn: need exactly one rng per slot";
  let engine = Net.Network.engine ep.network in
  let t =
    { ep;
      engine;
      sender;
      base_config = config;
      churn;
      slot_rngs = rngs;
      conns = Array.make churn.flows None;
      probe;
      next_flow = flow_base;
      started = 0;
      completed = 0;
      segments_completed = 0;
      connections_built = 0;
      transfer_segments = Obs.Metrics.Histogram.create ();
      transfer_ms = Obs.Metrics.Histogram.create () }
  in
  (* Stagger the initial arrivals uniformly across the ramp so the
     population builds up as a Poisson-like stream rather than a
     thundering herd at t=0. *)
  for slot = 0 to churn.flows - 1 do
    let at =
      if churn.ramp_s = 0. then 0.
      else Sim.Rng.float_range t.slot_rngs.(slot) ~lo:0. ~hi:churn.ramp_s
    in
    Sim.Engine.schedule_at engine ~time:at (fun () -> start_transfer t slot)
  done;
  t

(* [slot_rngs rng ~flows] is the canonical per-slot stream derivation:
   sequential splits of [rng] labelled by *global* slot index. Splits
   advance the parent state, so the derivation must happen once, in
   slot order, at the root — a partitioned workload hands each cell its
   slice of the result rather than re-splitting per cell, which is what
   keeps slot streams identical under any partitioning. *)
let slot_rngs rng ~flows =
  Array.init flows (fun slot ->
      Sim.Rng.split rng (Printf.sprintf "churn-slot-%d" slot))

let spawn dumbbell ~sender ~config ~churn ~rng () =
  validate churn;
  let rngs = slot_rngs rng ~flows:churn.flows in
  spawn_endpoints (endpoints_of_dumbbell dumbbell) ~sender ~config ~churn ~rngs ()

let transfers_started t = t.started

let transfers_completed t = t.completed

let segments_completed t = t.segments_completed

let bytes_completed t = t.segments_completed * t.base_config.Tcp.Config.mss

let active t = t.started - t.completed

let flows t = t.churn.flows

let connections_built t = t.connections_built

let transfer_segments t = t.transfer_segments

let transfer_ms t = t.transfer_ms
