(* Tests for the workload generators: Ftp bulk-flow batches (spawn
   validation, unbounded backlog, start jitter, throughput accounting)
   and Parking-lot cross traffic (per-pair fan-out and labels). *)

let sack = snd Experiments.Variants.tcp_sack

(* Two nodes joined by a clean 10 Mb/s duplex link. *)
let duplex_pair () =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let src = Net.Network.add_node network in
  let dst = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src ~dst ~bandwidth_bps:10e6 ~delay_s:0.01
       ~capacity:100 ());
  ignore
    (Net.Network.add_link network ~src:dst ~dst:src ~bandwidth_bps:10e6
       ~delay_s:0.01 ~capacity:100 ());
  (engine, network, src, dst)

let spawn_ftp ?(count = 1) ?(start_window = 0.) ?(config = Tcp.Config.default)
    network ~src ~dst =
  Workload.Ftp.spawn network ~sender:sack ~label:"bulk" ~count ~first_flow:0
    ~src ~dst
    ~route_data:(fun () -> [| Net.Node.id dst |])
    ~route_ack:(fun () -> [| Net.Node.id src |])
    ~config
    ~start_rng:(Sim.Rng.create 11)
    ~start_window ()

let test_spawn_count_and_labels () =
  let _engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:3 network ~src ~dst in
  Alcotest.(check int) "three flows" 3 (List.length flows);
  List.iter
    (fun f -> Alcotest.(check string) "label" "bulk" f.Workload.Ftp.label)
    flows

let test_spawn_zero_count () =
  let _engine, network, src, dst = duplex_pair () in
  Alcotest.(check int) "no flows" 0
    (List.length (spawn_ftp ~count:0 network ~src ~dst))

let test_spawn_validation () =
  let _engine, network, src, dst = duplex_pair () in
  Alcotest.check_raises "negative count"
    (Invalid_argument "Ftp.spawn: negative count") (fun () ->
      ignore (spawn_ftp ~count:(-1) network ~src ~dst));
  Alcotest.check_raises "negative window"
    (Invalid_argument "Ftp.spawn: negative start window") (fun () ->
      ignore (spawn_ftp ~start_window:(-1.) network ~src ~dst))

(* Ftp forces [total_segments = None]: a flow spawned from a bounded
   config keeps transferring past the bound. *)
let test_spawn_unbounded_backlog () =
  let engine, network, src, dst = duplex_pair () in
  let config =
    { Tcp.Config.default with Tcp.Config.total_segments = Some 5 }
  in
  let flows = spawn_ftp ~config network ~src ~dst in
  Sim.Engine.run engine ~until:5.;
  let flow = List.hd flows in
  let segments = Tcp.Connection.received_segments flow.Workload.Ftp.connection in
  if segments <= 5 then
    Alcotest.failf "backlog still bounded: only %d segments delivered" segments

(* start_window = 0 starts every flow immediately: all of them have
   delivered data well before the window a jittered start would use. *)
let test_spawn_immediate_start () =
  let engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:4 ~start_window:0. network ~src ~dst in
  Sim.Engine.run engine ~until:1.;
  List.iter
    (fun f ->
      Alcotest.(check bool) "flow has started" true
        (Tcp.Connection.received_bytes f.Workload.Ftp.connection > 0))
    flows

let test_throughput_accounting () =
  let engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:2 network ~src ~dst in
  Sim.Engine.run engine ~until:2.;
  let start_bytes = Workload.Ftp.snapshot_bytes flows in
  Sim.Engine.run engine ~until:6.;
  let reported =
    Workload.Ftp.throughputs flows ~window_start_bytes:start_bytes ~seconds:4.
  in
  Alcotest.(check int) "one rate per flow" 2 (List.length reported);
  List.iteri
    (fun i (label, mbps) ->
      let f = List.nth flows i in
      Alcotest.(check string) "labels preserved" f.Workload.Ftp.label label;
      let end_bytes =
        Tcp.Connection.received_bytes f.Workload.Ftp.connection
      in
      let start = List.nth start_bytes i in
      let expected = float_of_int (end_bytes - start) *. 8. /. 4. /. 1e6 in
      Alcotest.(check (float 1e-9)) "rate matches byte delta" expected mbps;
      Alcotest.(check bool) "flow made progress" true (mbps > 0.))
    reported

let test_throughput_mismatch () =
  let _engine, network, src, dst = duplex_pair () in
  let flows = spawn_ftp ~count:2 network ~src ~dst in
  Alcotest.check_raises "snapshot mismatch"
    (Invalid_argument "Ftp.throughputs: snapshot length mismatch") (fun () ->
      ignore (Workload.Ftp.throughputs flows ~window_start_bytes:[ 0 ] ~seconds:1.))

(* ------------------------------------------------------------------ *)
(* Cross traffic                                                       *)
(* ------------------------------------------------------------------ *)

let test_cross_traffic_fan_out () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let flows_per_pair = 2 in
  let flows =
    Workload.Cross_traffic.spawn lot ~flows_per_pair ~first_flow:10
      ~config:Tcp.Config.default
      ~start_rng:(Sim.Rng.create 3)
      ~start_window:0. ()
  in
  let pairs = List.length lot.Topo.Parking_lot.cross_pairs in
  Alcotest.(check int) "paper matrix has six pairs" 6 pairs;
  Alcotest.(check int) "flows_per_pair flows per pair"
    (pairs * flows_per_pair) (List.length flows);
  let label_counts = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let l = f.Workload.Ftp.label in
      Hashtbl.replace label_counts l
        (1 + Option.value ~default:0 (Hashtbl.find_opt label_counts l)))
    flows;
  List.iter
    (fun (pair : Topo.Parking_lot.cross_pair) ->
      let label = Printf.sprintf "cross-%d" pair.Topo.Parking_lot.index in
      Alcotest.(check (option int))
        (label ^ " count") (Some flows_per_pair)
        (Hashtbl.find_opt label_counts label))
    lot.Topo.Parking_lot.cross_pairs

let test_cross_traffic_delivers () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let flows =
    Workload.Cross_traffic.spawn lot ~flows_per_pair:1 ~first_flow:0
      ~config:Tcp.Config.default
      ~start_rng:(Sim.Rng.create 3)
      ~start_window:0. ()
  in
  Sim.Engine.run engine ~until:5.;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (f.Workload.Ftp.label ^ " delivers")
        true
        (Tcp.Connection.received_bytes f.Workload.Ftp.connection > 0))
    flows

(* ------------------------------------------------------------------ *)
(* Flow churn                                                          *)
(* ------------------------------------------------------------------ *)

let churn_run ?(seed = 3) () =
  Experiments.Scale.run ~seed ~duration:1.5 ~flows:50 ()

let churn_fingerprint (r : Experiments.Scale.result) =
  ( r.Experiments.Scale.transfers_started,
    r.Experiments.Scale.transfers_completed,
    r.Experiments.Scale.segments_completed,
    r.Experiments.Scale.events_executed,
    Experiments.Scale.timer_ops r )

let test_churn_deterministic () =
  Alcotest.(check bool)
    "same seed reproduces the run exactly" true
    (churn_fingerprint (churn_run ()) = churn_fingerprint (churn_run ()))

let test_churn_seed_changes_run () =
  Alcotest.(check bool)
    "different seed gives a different run" true
    (churn_fingerprint (churn_run ~seed:3 ())
    <> churn_fingerprint (churn_run ~seed:4 ()))

let test_churn_population_invariants () =
  let r = churn_run () in
  let w = r.Experiments.Scale.workload in
  Alcotest.(check int) "slot count" 50 (Workload.Flow_churn.flows w);
  Alcotest.(check bool) "work happened" true
    (Workload.Flow_churn.transfers_started w > 0);
  (* Closed loop: each slot runs at most one transfer at a time. *)
  Alcotest.(check bool) "active bounded by slots" true
    (Workload.Flow_churn.active w <= 50);
  Alcotest.(check int) "started = completed + active"
    (Workload.Flow_churn.transfers_started w)
    (Workload.Flow_churn.transfers_completed w + Workload.Flow_churn.active w);
  Alcotest.(check int) "bytes follow segments"
    (Workload.Flow_churn.segments_completed w
    * Experiments.Scale.default_config.Tcp.Config.mss)
    (Workload.Flow_churn.bytes_completed w)

(* A scale run's duration must be finite and positive. NaN fails every
   comparison, so a plain [duration <= 0.] test lets it through to an
   assert deep in the RNG; infinity would run forever. *)
let test_scale_rejects_bad_duration () =
  let rejected name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  List.iter
    (fun duration ->
      let d = Printf.sprintf "%g" duration in
      rejected ("Scale.run, duration " ^ d) (fun () ->
          Experiments.Scale.run ~duration ~flows:10 ());
      rejected ("Scale_sharded.run, duration " ^ d) (fun () ->
          Experiments.Scale_sharded.run ~duration ~domains:1 ~flows:10 ()))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -1. ]

let test_churn_validation () =
  let engine = Sim.Engine.create () in
  let dumbbell = Topo.Dumbbell.create engine () in
  let bad churn =
    Workload.Flow_churn.spawn dumbbell
      ~sender:(snd Experiments.Variants.tcp_pr)
      ~config:Tcp.Config.default ~churn
      ~rng:(Sim.Rng.create 0)
      ()
  in
  let base = Workload.Flow_churn.default_config in
  List.iter
    (fun (label, churn) ->
      Alcotest.(check bool) label true
        (try
           ignore (bad churn);
           false
         with Invalid_argument _ -> true))
    [ ("zero flows", { base with Workload.Flow_churn.flows = 0 });
      ("negative think", { base with Workload.Flow_churn.mean_think_s = -1. });
      ( "inverted sizes",
        { base with Workload.Flow_churn.min_segments = 8; max_segments = 4 } )
    ]

(* Per-variant churn pins: (started, completed, segments, events, timer
   arms, cancels, fires) of [Scale.run ~seed:3 ~flows:200 ~duration:2.],
   recorded when every transfer still built a fresh connection. Slots
   now recycle their connection between transfers; these pin that the
   simulated run did not move, for every variant, in three regimes:
   the default churn; a lossy one (a 40-segment initial window
   overflows the bottleneck queue, so recovery state is dirty when a
   connection is recycled); and a host-stack one with a slow
   application reader and no think time, where connections are often
   still draining when their slot wakes, so the fallback to a fresh
   connection is taken too. *)
let churn_pin_scenarios =
  let default = Experiments.Scale.default_churn ~flows:200 ~duration:2. in
  let sack_family counts =
    List.map
      (fun label -> (label, counts))
      [ "TCP-SACK"; "TD-FR"; "DSACK-NM"; "Inc by 1"; "Inc by N"; "EWMA";
        "Eifel"; "TCP-DOOR" ]
  in
  let newreno_family counts =
    List.map (fun label -> (label, counts)) [ "Tahoe"; "Reno"; "NewReno" ]
  in
  [ ( "default",
      Experiments.Scale.default_config,
      default,
      sack_family (638, 494, 5143, 60229, 6904, 5889, 767)
      @ newreno_family (638, 494, 5143, 60229, 6904, 5889, 767)
      @ [ ("TCP-PR", (645, 499, 5457, 61441, 7022, 5992, 771));
          ("RACK", (642, 499, 5034, 60433, 8794, 7622, 885)) ] );
    ( "lossy",
      { Experiments.Scale.default_config with Tcp.Config.initial_cwnd = 40. },
      { default with
        Workload.Flow_churn.mean_think_s = 0.02;
        max_segments = 512 },
      sack_family (1916, 1738, 21860, 227430, 25246, 23644, 1348)
      @ [ ("Tahoe", (2361, 2196, 27164, 280180, 30844, 28803, 1769));
          ("Reno", (2372, 2204, 27549, 280378, 30813, 28767, 1769));
          ("NewReno", (2367, 2196, 27404, 278442, 30578, 28540, 1758));
          ("TCP-PR", (2689, 2524, 30916, 318263, 35026, 33620, 1155));
          ("RACK", (2201, 2019, 25452, 259780, 34899, 31084, 3527)) ] );
    ( "host-stack",
      { Experiments.Scale.default_config with
        Tcp.Config.initial_cwnd = 2.;
        rcv_buf_segments = Some 16;
        rcv_app_rate = Some 100. },
      { default with Workload.Flow_churn.mean_think_s = 0.; max_segments = 64 },
      sack_family (1660, 1460, 13273, 159887, 31093, 14841, 15859)
      @ newreno_family (1660, 1460, 13273, 159887, 31093, 14841, 15859)
      @ [ ("TCP-PR", (2029, 1829, 16680, 196552, 38305, 19087, 18848));
          ("RACK", (1916, 1716, 15168, 201887, 38962, 18231, 20317)) ] ) ]

let churn_pin_run ~config ~churn variant =
  Experiments.Scale.run ~seed:3 ~sender:variant ~config ~churn ~flows:200
    ~duration:2. ()

let test_churn_variant_pins () =
  List.iter
    (fun (scenario, config, churn, pins) ->
      Alcotest.(check int)
        (scenario ^ ": one pin per variant")
        (List.length Experiments.Variants.all)
        (List.length pins);
      List.iter
        (fun ((label, _) as variant) ->
          let r = churn_pin_run ~config ~churn variant in
          let got =
            ( r.Experiments.Scale.transfers_started,
              r.transfers_completed,
              r.segments_completed,
              r.events_executed,
              r.timer_arms,
              r.timer_cancels,
              r.timer_fires )
          in
          Alcotest.(check (pair int (pair int (pair int (pair int (pair int (pair int int)))))))
            (scenario ^ " " ^ label)
            (let a, b, c, d, e, f, g = List.assoc label pins in
             (a, (b, (c, (d, (e, (f, g)))))))
            (let a, b, c, d, e, f, g = got in
             (a, (b, (c, (d, (e, (f, g))))))))
        Experiments.Variants.all)
    churn_pin_scenarios

(* The recycling fast path must actually be taken: under the default
   churn every slot builds its connection once and recycles it for
   every later transfer, for every variant. A quiescence check that
   always failed would pass the pins above through the fallback and
   show here. The host-stack regime must take the fallback too, or the
   pins would not cover it. *)
let test_churn_fast_path () =
  let _, config, churn, _ = List.hd churn_pin_scenarios in
  let churn =
    Experiments.Scale.default_churn ~flows:churn.Workload.Flow_churn.flows
      ~duration:2.
  in
  List.iter
    (fun ((label, _) as variant) ->
      let w = (churn_pin_run ~config ~churn variant).Experiments.Scale.workload in
      Alcotest.(check int)
        (label ^ ": one connection per slot")
        (min (Workload.Flow_churn.flows w)
           (Workload.Flow_churn.transfers_started w))
        (Workload.Flow_churn.connections_built w))
    Experiments.Variants.all;
  let _, config, churn, _ = List.nth churn_pin_scenarios 2 in
  let w =
    (churn_pin_run ~config ~churn Experiments.Variants.tcp_pr)
      .Experiments.Scale.workload
  in
  Alcotest.(check bool)
    "host-stack churn falls back to fresh connections" true
    (Workload.Flow_churn.connections_built w > Workload.Flow_churn.flows w)

(* --- Adversary controller (closed-loop reordering dial) ------------ *)

let test_adversary_validation () =
  Alcotest.check_raises "target 0"
    (Invalid_argument "Adversary.create: target must be in (0, 1)") (fun () ->
      ignore (Workload.Adversary.create ~target:0. ()));
  Alcotest.check_raises "target 1"
    (Invalid_argument "Adversary.create: target must be in (0, 1)") (fun () ->
      ignore (Workload.Adversary.create ~target:1. ()));
  Alcotest.check_raises "inverted bounds"
    (Invalid_argument "Adversary.create: need 0 <= eps_min < eps_max")
    (fun () ->
      ignore (Workload.Adversary.create ~eps_min:2. ~eps_max:1. ~target:0.05 ()));
  let t = Workload.Adversary.create ~target:0.05 () in
  Alcotest.check_raises "NaN density"
    (Invalid_argument "Adversary.observe: density must be finite and >= 0")
    (fun () -> Workload.Adversary.observe t ~density:Float.nan);
  Alcotest.check_raises "negative density"
    (Invalid_argument "Adversary.observe: density must be finite and >= 0")
    (fun () -> Workload.Adversary.observe t ~density:(-0.1))

let test_adversary_log_step () =
  let t = Workload.Adversary.create ~eps_min:1. ~target:0.05 () in
  Alcotest.(check (float 0.)) "first dial is eps_min" 1.
    (Workload.Adversary.epsilon t);
  Alcotest.(check bool) "no density before first epoch" true
    (Float.is_nan (Workload.Adversary.last_density t));
  (* Measured 4x hot: the dial should step up by exactly ln 4. *)
  Workload.Adversary.observe t ~density:0.2;
  Alcotest.(check (float 1e-12)) "proportional step in log space"
    (1. +. Float.log (0.2 /. 0.05))
    (Workload.Adversary.epsilon t);
  Alcotest.(check int) "epoch counted" 1 (Workload.Adversary.epochs t);
  Alcotest.(check (float 0.)) "density remembered" 0.2
    (Workload.Adversary.last_density t);
  (* A too-cold proposal clamps at eps_min, never below. *)
  Workload.Adversary.observe t ~density:1e-9;
  Alcotest.(check (float 0.)) "clamped at eps_min" 1.
    (Workload.Adversary.epsilon t);
  (* A zero-density epoch has no log: halve back toward eps_min. *)
  let cold = Workload.Adversary.create ~eps_min:1. ~target:0.05 () in
  Workload.Adversary.observe cold ~density:0.4;
  let before = Workload.Adversary.epsilon cold in
  Workload.Adversary.observe cold ~density:0.;
  Alcotest.(check (float 1e-12)) "zero density halves toward eps_min"
    ((1. +. before) /. 2.)
    (Workload.Adversary.epsilon cold);
  (* A huge measured density clamps at eps_max. *)
  let hot = Workload.Adversary.create ~eps_max:2. ~target:1e-6 () in
  Workload.Adversary.observe hot ~density:0.9;
  Alcotest.(check (float 0.)) "clamped at eps_max" 2.
    (Workload.Adversary.epsilon hot)

let test_adversary_converged () =
  let t = Workload.Adversary.create ~target:0.05 () in
  Alcotest.(check bool) "not converged before any epoch" false
    (Workload.Adversary.converged t);
  Workload.Adversary.observe t ~density:0.054;
  Alcotest.(check bool) "within default 10%" true
    (Workload.Adversary.converged t);
  Alcotest.(check bool) "outside a tighter band" false
    (Workload.Adversary.converged ~tolerance:0.05 t);
  Workload.Adversary.observe t ~density:0.06;
  Alcotest.(check bool) "outside default 10%" false
    (Workload.Adversary.converged t)

(* Against an ideal exponential plant density(eps) = c * exp(-eps), the
   log-space step lands on the fixed point in one epoch and stays
   there; a noisy plant stays mean-reverting (each dial is exactly the
   noise-free dial plus that epoch's log-space noise, so the error
   never compounds). *)
let test_adversary_fixed_point () =
  let target = 0.05 in
  let plant eps = 0.8 *. Float.exp (-.eps) in
  let t = Workload.Adversary.create ~target () in
  Workload.Adversary.observe t ~density:(plant (Workload.Adversary.epsilon t));
  for _ = 1 to 5 do
    let d = plant (Workload.Adversary.epsilon t) in
    Workload.Adversary.observe t ~density:d;
    Alcotest.(check (float 1e-9)) "on the fixed point" target
      (Workload.Adversary.last_density t)
  done;
  Alcotest.(check bool) "converged" true (Workload.Adversary.converged t);
  (* Multiplicative epoch noise: the dial error equals that epoch's
     log-noise alone, bounded by ln(max noise factor). *)
  let noisy = Workload.Adversary.create ~target () in
  let fixed = Float.log (0.8 /. target) in
  let factors = [ 1.3; 0.7; 1.15; 0.85; 1.0; 1.25 ] in
  List.iteri
    (fun i f ->
      Workload.Adversary.observe noisy
        ~density:(f *. plant (Workload.Adversary.epsilon noisy));
      if i > 0 then
        Alcotest.(check bool) "dial error bounded by the epoch's log-noise"
          true
          (Float.abs (Workload.Adversary.epsilon noisy -. fixed)
          <= Float.log (1. /. 0.7) +. 1e-9))
    factors

let () =
  Alcotest.run "workload"
    [ ( "ftp",
        [ Alcotest.test_case "count and labels" `Quick
            test_spawn_count_and_labels;
          Alcotest.test_case "zero count" `Quick test_spawn_zero_count;
          Alcotest.test_case "validation" `Quick test_spawn_validation;
          Alcotest.test_case "unbounded backlog" `Quick
            test_spawn_unbounded_backlog;
          Alcotest.test_case "immediate start" `Quick
            test_spawn_immediate_start;
          Alcotest.test_case "throughput accounting" `Quick
            test_throughput_accounting;
          Alcotest.test_case "throughput mismatch" `Quick
            test_throughput_mismatch ] );
      ( "cross-traffic",
        [ Alcotest.test_case "fan-out and labels" `Quick
            test_cross_traffic_fan_out;
          Alcotest.test_case "delivers" `Quick test_cross_traffic_delivers ] );
      ( "flow-churn",
        [ Alcotest.test_case "deterministic" `Quick test_churn_deterministic;
          Alcotest.test_case "seed changes run" `Quick
            test_churn_seed_changes_run;
          Alcotest.test_case "population invariants" `Quick
            test_churn_population_invariants;
          Alcotest.test_case "validation" `Quick test_churn_validation;
          Alcotest.test_case "scale rejects bad duration" `Quick
            test_scale_rejects_bad_duration;
          Alcotest.test_case "per-variant pins" `Quick test_churn_variant_pins;
          Alcotest.test_case "slots recycle their connection" `Quick
            test_churn_fast_path ] );
      ( "adversary",
        [ Alcotest.test_case "validation" `Quick test_adversary_validation;
          Alcotest.test_case "log-space step and clamps" `Quick
            test_adversary_log_step;
          Alcotest.test_case "converged" `Quick test_adversary_converged;
          Alcotest.test_case "exponential-plant fixed point" `Quick
            test_adversary_fixed_point ] )
    ]
