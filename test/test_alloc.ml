(* Allocation pins: GC-delta bytes per simulated packet, per ACK and
   per engine event on the shared measurement scenarios of
   bench/alloc_suite.ml and bench/engine_suite.ml (the same code
   `bench/main.exe alloc` and `engine` print), minor words per churn
   transfer, and the zero-allocation RTO cycle.

   Allocation counts are exact for a given compiler: every scenario
   reads the same bytes run after run (the pins were measured with
   OCaml 5.1.1). So each reading is held to a two-sided pin, not a
   ceiling. More than the tolerance above its pin is a regression: a
   box back on the heap-sift or RNG path, a closure per packet or per
   event, a [Some] on the receiver path. More than the tolerance below
   is a gain, and fails too until the pin is moved deliberately, so
   the slack cannot be spent again unnoticed by a later change.

   To re-pin after an intended change (or a compiler upgrade), run
   `dune exec bench/main.exe -- alloc` and `-- engine` and copy the
   printed quotients into the tables below; the churn figure is in
   the failure message. *)

let check_pin ~what ~unit ~tolerance ~pin reading =
  if reading > pin +. tolerance then
    Alcotest.failf "%s: %.1f %s is more than %g above its pin %.1f" what
      reading unit tolerance pin
  else if reading < pin -. tolerance then
    Alcotest.failf
      "%s: %.1f %s is more than %g below its pin %.1f; re-pin deliberately \
       so the gain is kept"
      what reading unit tolerance pin

let pin_of ~what pins name =
  match List.assoc_opt name pins with
  | Some pin -> pin
  | None -> Alcotest.failf "%s: %s has no pin" what name

(* --- bytes per simulated packet --------------------------------------- *)

let packet_pins =
  [ ("dumbbell", 84.3);
    ("lattice", 115.2);
    ("jitter-chain", 132.6);
    ("hoststack", 87.4);
    ("analytics", 115.2) ]

let measure_packets name scenario =
  let m = Alloc_suite.measure name scenario in
  Alcotest.(check bool) "measured phase moved packets" true
    (m.Alloc_suite.packets > 1000);
  m

let test_packet_pin (name, scenario) () =
  let m = measure_packets name scenario in
  check_pin ~what:name ~unit:"B/packet" ~tolerance:1.
    ~pin:(pin_of ~what:"bytes-per-packet" packet_pins name)
    m.Alloc_suite.bytes_per_packet

(* The reordering analytics ride the data path at zero cost: the
   lattice with the sketch detector tapping every arrival allocates
   exactly what the bare lattice does, and the sketch must actually
   have seen the reordering it was billed for. *)
let test_analytics_free () =
  let bare = measure_packets "lattice" Alloc_suite.lattice_scenario in
  let sketch = Obs.Reorder_sketch.create () in
  let tapped =
    measure_packets "analytics" (Alloc_suite.lattice_scenario ~sketch)
  in
  Alcotest.(check bool) "sketch saw the measured flows" true
    (Obs.Reorder_sketch.detected sketch > 100);
  Alcotest.(check int) "same packets" bare.Alloc_suite.packets
    tapped.Alloc_suite.packets;
  Alcotest.(check (float 0.)) "same allocated bytes"
    bare.Alloc_suite.allocated_bytes tapped.Alloc_suite.allocated_bytes

(* --- bytes per ACK ------------------------------------------------------

   Isolated [on_ack] churn per variant ([Alloc_suite.measure_acks]).
   The eleven NewReno-family variants share one quotient; TCP-PR and
   RACK each have their own. *)

let ack_pins =
  [ ("TCP-SACK", 196.7);
    ("Tahoe", 196.7);
    ("Reno", 196.7);
    ("NewReno", 196.7);
    ("TCP-PR", 281.8);
    ("TD-FR", 196.7);
    ("DSACK-NM", 196.7);
    ("Inc by 1", 196.7);
    ("Inc by N", 196.7);
    ("EWMA", 196.7);
    ("Eifel", 196.7);
    ("TCP-DOOR", 196.7);
    ("RACK", 192.3) ]

let test_ack_pin ((name, _) as variant) () =
  let m = Alloc_suite.measure_acks variant in
  check_pin ~what:name ~unit:"B/ack" ~tolerance:1.
    ~pin:(pin_of ~what:"bytes-per-ack" ack_pins name)
    m.Alloc_suite.bytes_per_ack

(* --- bytes per engine event ---------------------------------------------

   Raw scheduler churn ([Engine_suite]). The one-shot heap scenarios
   pay per scheduled event for the [Closure] wrapper and the float
   seconds API they go through; the timer wheel, driven through the
   nanosecond API, allocates nothing, so a single word on its arm/fire
   path fails the pin. *)

let engine_pins =
  [ ("closure-churn", Engine_suite.closure_churn, 24.0);
    ("pipeline-churn", Engine_suite.pipeline_churn, 34.7);
    ("timer-churn-wheel", Engine_suite.timer_churn, 0.) ]

let test_engine_pin (name, run, pin) () =
  let m = run () in
  Alcotest.(check bool) "measured phase ran events" true
    (m.Engine_suite.events > 100_000);
  check_pin ~what:name ~unit:"B/event" ~tolerance:1. ~pin
    m.Engine_suite.bytes_per_event

(* --- RTO fire/re-arm cycle -------------------------------------------

   A full retransmission-timer cycle — wheel pop, handler, back-off,
   ns re-arm — is the loop a stalled connection spins in; it must not
   allocate a single minor-heap word. [Rto.current_ns] keeps the float
   inside the call, [arm_timer_ns] keeps the deadline an int, and the
   timer cell is reused, so a non-zero delta here means a box crept
   back onto the path. *)
let test_rto_cycle_zero_alloc () =
  let engine = Sim.Engine.create () in
  let config =
    { Tcp.Config.default with
      Tcp.Config.initial_rto = 0.4;
      min_rto = 0.2;
      max_rto = 16. }
  in
  let rto = Tcp.Rto.create config in
  let fires = ref 0 in
  let cell = ref None in
  let handler () =
    incr fires;
    Tcp.Rto.backoff rto;
    if !fires mod 8 = 0 then Tcp.Rto.reset_backoff rto;
    match !cell with
    | Some tm -> Sim.Engine.arm_timer_ns engine tm ~delay:(Tcp.Rto.current_ns rto)
    | None -> ()
  in
  let tm = Sim.Engine.make_timer engine (Sim.Engine.Closure handler) in
  cell := Some tm;
  Sim.Engine.arm_timer_ns engine tm ~delay:(Tcp.Rto.current_ns rto);
  (* Warm up: first fires grow wheel slots and promote the cell. *)
  Sim.Engine.run engine ~until:200.;
  Gc.full_major ();
  let fires0 = !fires in
  let words0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:5000.;
  let delta = Gc.minor_words () -. words0 in
  Alcotest.(check bool)
    "measured phase fired the timer" true (!fires - fires0 > 50);
  if delta > 0. then
    Alcotest.failf "RTO fire/re-arm cycle allocated %.0f minor words over %d fires"
      delta (!fires - fires0)

(* --- minor words per churn transfer ------------------------------------

   Closed-loop churn ([Experiments.Scale]'s dumbbell and default churn,
   200 TCP-PR slots): every slot owns one connection and recycles it
   per transfer, so after the ramp a transfer allocates only its
   configuration record, its packets' ACK records and event blocks —
   not a sender, receiver and histograms (~950 words when every
   transfer built a fresh connection). Measured over simulated seconds
   1-2, once every slot has its connection: 728 words per transfer with
   recycling, 1690 when every transfer built its connection. Pinned to
   within 1%. *)

let churn_words_pin = 728.

let churn_words_per_transfer () =
  let flows = 200 in
  let engine = Sim.Engine.create ~timer_granularity:1e-3 () in
  let dumbbell =
    Topo.Dumbbell.create engine ~pairs:32
      ~bottleneck_bandwidth_bps:(float_of_int flows *. 1e6)
      ~bottleneck_delay_s:0.020 ~access_bandwidth_bps:100e6
      ~access_delay_s:0.001 ~queue_capacity:100 ~access_queue_capacity:200 ()
  in
  let churn = Experiments.Scale.default_churn ~flows ~duration:2. in
  let w =
    Workload.Flow_churn.spawn dumbbell ~sender:(snd Experiments.Variants.tcp_pr)
      ~config:Experiments.Scale.default_config ~churn ~rng:(Sim.Rng.create 3)
      ()
  in
  Sim.Engine.run engine ~until:1.;
  Gc.full_major ();
  let completed0 = Workload.Flow_churn.transfers_completed w in
  let words0 = Gc.minor_words () in
  Sim.Engine.run engine ~until:2.;
  let words = Gc.minor_words () -. words0 in
  let transfers = Workload.Flow_churn.transfers_completed w - completed0 in
  Alcotest.(check bool) "measured phase completed transfers" true
    (transfers > 100);
  words /. float_of_int transfers

let test_churn_words_per_transfer () =
  check_pin ~what:"churn" ~unit:"minor words/transfer"
    ~tolerance:(0.01 *. churn_words_pin) ~pin:churn_words_pin
    (churn_words_per_transfer ())

let () =
  Alcotest.run "alloc"
    [ ( "bytes-per-packet",
        List.map
          (fun ((name, _) as scenario) ->
            Alcotest.test_case (name ^ ", wheel") `Quick
              (test_packet_pin scenario))
          Alloc_suite.scenarios
        @ [ Alcotest.test_case "analytics = lattice" `Quick
              test_analytics_free ] );
      ( "bytes-per-ack",
        List.map
          (fun ((name, _) as variant) ->
            Alcotest.test_case (name ^ " pin") `Quick (test_ack_pin variant))
          Experiments.Variants.all );
      ( "bytes-per-event",
        List.map
          (fun ((name, _, _) as scenario) ->
            Alcotest.test_case name `Quick (test_engine_pin scenario))
          engine_pins );
      ( "churn",
        [ Alcotest.test_case "minor words per transfer" `Quick
            test_churn_words_per_transfer ] );
      ( "rto-cycle",
        [ Alcotest.test_case "zero minor allocation" `Quick
            test_rto_cycle_zero_alloc ] ) ]
