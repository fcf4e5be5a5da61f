(* The benchmark's workloads, built from the libraries' public
   functions so the benchmark can time set-up apart from the run, drive
   [Engine.run] in slices and put its wrappers around the sender and
   route closures.

   Each build function mirrors one experiment entry point exactly — same
   topology, seeds, RNG split order and flow ids — and [reference]
   re-runs that entry point for a short prefix and renders the same
   observables, so every run proves the benchmark simulates the
   library's scenario and not a private variant of it. *)

(* How a build is instrumented: identity for the timed end-to-end run,
   {!Timing} wrappers and a {!Replay} recorder for the traced run. *)
type wrap = {
  sender : Experiments.Variants.t -> (module Tcp.Sender.S);
  route : (unit -> int array) -> unit -> int array;
  replay : Replay.t option;
}

let plain = { sender = snd; route = (fun f -> f); replay = None }

let traced replay = { sender = Timing.sender; route = Timing.route; replay = Some replay }

let probe w = Option.map Replay.probe w.replay

type t = {
  engines : Sim.Engine.t array;
  networks : Net.Network.t array;
  config : Tcp.Config.t;
  segments : unit -> int;
      (* segments delivered in order so far (churn: of completed
         transfers) *)
  churn : Workload.Flow_churn.t option;
  connections : Tcp.Connection.t list;
  observe : unit -> string;
      (* what [reference] renders, read from this build at
         [reference_s] *)
}

type spec = {
  name : string;
  reference_s : float;  (* prefix re-run through the library entry point *)
  warmup_s : float;  (* measured phase starts here *)
  slice_s : float;
      (* [Engine.run] slice width: 40-60 ms of host time, so the
         {!Calib} probes between slices follow the host's speed closely *)
  check_slices : int;
      (* slices in the measured span [warmup_s, check_s], at whose end
         the digest is taken *)
  setup_batch : int;
      (* builds timed for [setup_s] before each repetition after the
         first *)
  replay_keep : int -> bool;  (* flows whose arrivals the traced run records *)
  build : seed:int -> wrap -> t;
  reference : seed:int -> string;
}

(* The [until] of slice [i] (slice 0 ends at [warmup_s]); computed the
   same way in every run so traced and untraced runs stop at the same
   simulated instants. *)
let slice_end spec i = spec.warmup_s +. (float_of_int i *. spec.slice_s)

let advance t ~until = Array.iter (fun e -> Sim.Engine.run e ~until) t.engines

let delivered connections () =
  List.fold_left (fun acc c -> acc + Tcp.Connection.received_segments c) 0 connections

(* Independent single-engine instances run side by side as one
   workload: advanced together, counted and digested together. *)
let combine config (parts : t list) =
  let connections = List.concat_map (fun p -> p.connections) parts in
  { engines = Array.concat (List.map (fun p -> p.engines) parts);
    networks = Array.concat (List.map (fun p -> p.networks) parts);
    config;
    segments = delivered connections;
    churn = None;
    connections;
    observe = (fun () -> String.concat " " (List.map (fun p -> p.observe ()) parts)) }

(* ---- churn-10k: Experiments.Scale ---- *)

let churn_flows = 10_000

let churn_config = Experiments.Scale.default_config

(* Ramp 1 s: the population is at its 10k slots before warmup ends. *)
let churn_churn = Experiments.Scale.default_churn ~flows:churn_flows ~duration:4.

let build_churn ~seed w =
  let config = churn_config and flows = churn_flows in
  let timer_granularity =
    if config.Tcp.Config.timer_granularity > 0. then
      config.Tcp.Config.timer_granularity
    else 1e-3
  in
  let engine = Sim.Engine.create ~use_wheel:true ~timer_granularity () in
  let pairs = min flows 32 in
  let bottleneck_bandwidth_bps = Float.max 10e6 (float_of_int flows *. 1e6) in
  let access_bandwidth_bps =
    Float.max 100e6 (4. *. bottleneck_bandwidth_bps /. float_of_int pairs)
  in
  let queue_capacity = max 64 (flows / 2) in
  let dumbbell =
    Topo.Dumbbell.create engine ~pairs ~bottleneck_bandwidth_bps
      ~bottleneck_delay_s:0.020 ~access_bandwidth_bps ~access_delay_s:0.001
      ~queue_capacity ~access_queue_capacity:(2 * queue_capacity) ()
  in
  let rng = Sim.Rng.create seed in
  let rngs = Workload.Flow_churn.slot_rngs rng ~flows in
  let churn =
    Workload.Flow_churn.spawn_endpoints
      (Workload.Flow_churn.endpoints_of_dumbbell dumbbell)
      ~sender:(w.sender Experiments.Variants.tcp_pr)
      ~config ~churn:churn_churn ~rngs ?probe:(probe w) ()
  in
  let network = dumbbell.Topo.Dumbbell.network in
  { engines = [| engine |];
    networks = [| network |];
    config;
    segments = (fun () -> Workload.Flow_churn.segments_completed churn);
    churn = Some churn;
    connections = [];
    observe =
      (fun () ->
        Printf.sprintf "events=%d arms=%d cancels=%d fires=%d started=%d \
                        completed=%d segments=%d"
          (Sim.Engine.events_executed engine)
          (Sim.Engine.timer_arms engine)
          (Sim.Engine.timer_cancels engine)
          (Sim.Engine.timer_fires engine)
          (Workload.Flow_churn.transfers_started churn)
          (Workload.Flow_churn.transfers_completed churn)
          (Workload.Flow_churn.segments_completed churn)) }

let churn_reference_s = 0.5

let reference_churn ~seed =
  let r =
    Experiments.Scale.run ~seed ~churn:churn_churn ~duration:churn_reference_s
      ~flows:churn_flows ()
  in
  Printf.sprintf "events=%d arms=%d cancels=%d fires=%d started=%d \
                  completed=%d segments=%d"
    r.Experiments.Scale.events_executed r.timer_arms r.timer_cancels
    r.timer_fires r.transfers_started r.transfers_completed
    r.segments_completed

(* ---- lattice-reorder: Runner.multipath_throughput, the six Fig. 6
   schemes at epsilon = 0 with 10 ms links, one flow each, under
   [lattice_seeds] route-sampling seeds derived from the benchmark
   seed. Whether a scheme settles into a fast or a slow regime depends
   on its seed, so one seed per scheme makes the work per simulated
   second swing by a third between seeds; averaging over several keeps
   the workload the same size for every benchmark seed. ---- *)

let lattice_delay_s = 0.010

let lattice_seeds = 16

let lattice_runs ~seed =
  List.concat_map
    (fun j -> List.map (fun v -> ((seed * lattice_seeds) + j, v)) Experiments.Variants.fig6)
    (List.init lattice_seeds Fun.id)

let lattice_reference_s = 1.0

let build_lattice ~seed w =
  let config = Tcp.Config.default in
  let one (seed, variant) =
    let engine = Sim.Engine.create () in
    let lattice =
      Topo.Multipath_lattice.create engine ~delay_s:lattice_delay_s ()
    in
    let network = lattice.Topo.Multipath_lattice.network in
    let rng = Sim.Rng.create seed in
    let forward =
      Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng "fwd")
        ~epsilon:0. lattice
    in
    let reverse =
      Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng "rev")
        ~epsilon:0. lattice
    in
    let connection =
      Tcp.Connection.create ?probe:(probe w) network ~flow:0
        ~src:lattice.Topo.Multipath_lattice.source
        ~dst:lattice.Topo.Multipath_lattice.destination
        ~sender:(w.sender variant) ~config
        ~route_data:
          (w.route (fun () ->
               Multipath.Epsilon_routing.route forward
                 lattice.Topo.Multipath_lattice.forward_routes))
        ~route_ack:
          (w.route (fun () ->
               Multipath.Epsilon_routing.route reverse
                 lattice.Topo.Multipath_lattice.reverse_routes))
        ()
    in
    Tcp.Connection.start connection ~at:0.;
    { engines = [| engine |];
      networks = [| network |];
      config;
      segments = delivered [ connection ];
      churn = None;
      connections = [ connection ];
      observe =
        (fun () ->
          Printf.sprintf "%h"
            (Stats.Throughput.of_window ~bytes_at_start:0
               ~bytes_at_end:(Tcp.Connection.received_bytes connection)
               ~seconds:lattice_reference_s)) }
  in
  combine config (List.map one (lattice_runs ~seed))

let reference_lattice ~seed =
  String.concat " "
    (List.map
       (fun (seed, (_, sender)) ->
         Printf.sprintf "%h"
           (Experiments.Runner.multipath_throughput ~seed
              ~delay_s:lattice_delay_s ~warmup:0. ~duration:lattice_reference_s
              ~epsilon:0. ~sender ()))
       (lattice_runs ~seed))

(* ---- parking-lot-loss: Runner.parking_lot_fairness as Fig. 3 runs
   it at bandwidth scale 0.25: eight TCP-PR and eight TCP-SACK main
   flows, one TCP-SACK cross flow per pair ---- *)

let parking_scale = 0.25

let parking_per_protocol = 8

let parking_reference_s = 5.

(* Four lots on seeds derived from the benchmark seed: one lot's heap is
   ~1.5 MB and its peak varies by several percent with the seed. *)
let parking_seeds = 4

let parking_runs ~seed = List.init parking_seeds (fun j -> (seed * parking_seeds) + j)

let parking_specs =
  [ Experiments.Variants.tcp_pr, parking_per_protocol;
    Experiments.Variants.tcp_sack, parking_per_protocol ]

(* [Workload.Ftp.spawn], with the probe it does not take. *)
let spawn_ftp network ?probe ~sender ~count ~first_flow ~src ~dst ~route_data
    ~route_ack ~config ~start_rng ~start_window () =
  let config = { config with Tcp.Config.total_segments = None } in
  List.init count (fun index ->
      let connection =
        Tcp.Connection.create ?probe network ~flow:(first_flow + index) ~src
          ~dst ~sender ~config ~route_data ~route_ack ()
      in
      let jitter = Sim.Rng.float_range start_rng ~lo:0. ~hi:start_window in
      Tcp.Connection.start connection ~at:jitter;
      connection)

let parking_lot ~seed w =
  let config = Tcp.Config.default in
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine ~bandwidth_scale:parking_scale () in
  let network = lot.Topo.Parking_lot.network in
  let rng = Sim.Rng.create seed in
  let probe = probe w in
  let start_rng = Sim.Rng.split rng "starts" in
  let next_flow = ref 0 in
  let main =
    List.concat_map
      (fun (variant, count) ->
        let flows =
          spawn_ftp network ?probe ~sender:(w.sender variant) ~count
            ~first_flow:!next_flow ~src:lot.Topo.Parking_lot.source
            ~dst:lot.Topo.Parking_lot.destination
            ~route_data:(fun () -> Topo.Parking_lot.route_forward lot)
            ~route_ack:(fun () -> Topo.Parking_lot.route_reverse lot)
            ~config ~start_rng ~start_window:5. ()
        in
        next_flow := !next_flow + count;
        flows)
      parking_specs
  in
  (* [Workload.Cross_traffic.spawn], with a wrappable sender. *)
  let cross_rng = Sim.Rng.split rng "cross-starts" in
  let cross =
    List.concat_map
      (fun (pair : Topo.Parking_lot.cross_pair) ->
        spawn_ftp network ?probe
          ~sender:(w.sender Experiments.Variants.tcp_sack)
          ~count:1 ~first_flow:(!next_flow + pair.Topo.Parking_lot.index)
          ~src:pair.Topo.Parking_lot.cross_source
          ~dst:pair.Topo.Parking_lot.cross_sink
          ~route_data:(fun () -> pair.Topo.Parking_lot.forward_route)
          ~route_ack:(fun () -> pair.Topo.Parking_lot.reverse_route)
          ~config ~start_rng:cross_rng ~start_window:5. ())
      lot.Topo.Parking_lot.cross_pairs
  in
  let connections = main @ cross in
  { engines = [| engine |];
    networks = [| network |];
    config;
    segments = delivered connections;
    churn = None;
    connections;
    observe =
      (fun () ->
        String.concat " "
          (List.map
             (fun c ->
               Printf.sprintf "%h"
                 (float_of_int (Tcp.Connection.received_bytes c)
                 *. 8. /. parking_reference_s /. 1e6))
             main)) }

let reference_parking_lot seed =
  let specs =
    List.map
      (fun ((label, sender), count) -> { Experiments.Runner.label; sender; count })
      parking_specs
  in
  let r =
    Experiments.Runner.parking_lot_fairness ~seed ~bandwidth_scale:parking_scale
      ~warmup:0. ~window:parking_reference_s ~specs ()
  in
  String.concat " "
    (List.map (fun mbps -> Printf.sprintf "%h" mbps)
       (Experiments.Runner.all_throughputs r))

let build_parking ~seed w =
  combine Tcp.Config.default
    (List.map (fun seed -> parking_lot ~seed w) (parking_runs ~seed))

let reference_parking ~seed =
  String.concat " " (List.map reference_parking_lot (parking_runs ~seed))

let specs =
  [ { name = "churn-10k";
      reference_s = churn_reference_s;
      warmup_s = 1.5;
      slice_s = 0.025;
      check_slices = 60;
      setup_batch = 10;
      replay_keep = (fun flow -> flow mod 64 = 0);
      build = build_churn;
      reference = reference_churn };
    { name = "lattice-reorder";
      reference_s = lattice_reference_s;
      warmup_s = 2.;
      slice_s = 0.125;
      check_slices = 32;
      setup_batch = 20;
      replay_keep = (fun _ -> true);
      build = build_lattice;
      reference = reference_lattice };
    { name = "parking-lot-loss";
      reference_s = parking_reference_s;
      warmup_s = 10.;
      slice_s = 2.5;
      check_slices = 24;
      setup_batch = 40;
      replay_keep = (fun _ -> true);
      build = build_parking;
      reference = reference_parking } ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* ---- simulated-result digest ---- *)

let hist_line buf name h =
  Printf.bprintf buf "%s" name;
  Array.iter (fun c -> Printf.bprintf buf " %d" c) (Obs.Metrics.Histogram.buckets h);
  Buffer.add_char buf '\n'

(* MD5 over events, timer operations, every link's transmit and drop
   counts, delivered segments and transfers, and per-flow goodput. *)
let digest t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i e ->
      Printf.bprintf buf "engine %d t=%h events=%d arms=%d cancels=%d fires=%d\n"
        i (Sim.Engine.now e) (Sim.Engine.events_executed e)
        (Sim.Engine.timer_arms e) (Sim.Engine.timer_cancels e)
        (Sim.Engine.timer_fires e))
    t.engines;
  Array.iteri
    (fun i n ->
      List.iter
        (fun l ->
          Printf.bprintf buf "link %d/%d tx=%d bytes=%d qdrop=%d loss=%d\n" i
            (Net.Link.id l) (Net.Link.transmitted_packets l)
            (Net.Link.transmitted_bytes l) (Net.Link.queue_drops l)
            (Net.Link.injected_losses l))
        (Net.Network.links n))
    t.networks;
  Printf.bprintf buf "segments %d\n" (t.segments ());
  (match t.churn with
  | Some c ->
    Printf.bprintf buf "transfers %d %d\n"
      (Workload.Flow_churn.transfers_started c)
      (Workload.Flow_churn.transfers_completed c);
    hist_line buf "sizes" (Workload.Flow_churn.transfer_segments c);
    hist_line buf "fct_ms" (Workload.Flow_churn.transfer_ms c)
  | None -> ());
  List.iteri
    (fun i c ->
      Printf.bprintf buf "flow %d rx=%d sent=%d dups=%d\n" i
        (Tcp.Connection.received_bytes c)
        (Tcp.Connection.data_packets_sent c)
        (Tcp.Connection.receiver_duplicates c))
    t.connections;
  Digest.to_hex (Digest.string (Buffer.contents buf))
