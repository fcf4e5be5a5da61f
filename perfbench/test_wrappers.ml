(* The benchmark's wrappers must be invisible to the simulation: the
   timed sender functor and route-closure wrapper, and [Engine.run]
   driven in slices, must reproduce the unwrapped single-call run byte
   for byte. Compared through the full probe trace of every protocol
   step, for all thirteen sender variants on a short epsilon = 0
   lattice run (reordered data and ACKs), and through the benchmark's
   own digest on a traced parking-lot build. *)

open Perfbench

let duration = 2.

let lattice_trace ~wrapped ~sliced (variant : Experiments.Variants.t) =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine ~delay_s:0.010 () in
  let rng = Sim.Rng.create 7 in
  let sampler label =
    Multipath.Epsilon_routing.for_lattice (Sim.Rng.split rng label) ~epsilon:0.
      lattice
  in
  let forward = sampler "fwd" and reverse = sampler "rev" in
  let route f = if wrapped then Timing.route f else f in
  let probe = Tcp.Probe.create () in
  let lines = Buffer.create 65536 in
  Sim.Trace.on probe (fun ev ->
      Buffer.add_string lines (Tcp.Probe.to_line ev);
      Buffer.add_char lines '\n');
  let connection =
    Tcp.Connection.create ~probe lattice.Topo.Multipath_lattice.network ~flow:0
      ~src:lattice.Topo.Multipath_lattice.source
      ~dst:lattice.Topo.Multipath_lattice.destination
      ~sender:(if wrapped then Timing.sender variant else snd variant)
      ~config:Tcp.Config.default
      ~route_data:
        (route (fun () ->
             Multipath.Epsilon_routing.route forward
               lattice.Topo.Multipath_lattice.forward_routes))
      ~route_ack:
        (route (fun () ->
             Multipath.Epsilon_routing.route reverse
               lattice.Topo.Multipath_lattice.reverse_routes))
      ()
  in
  Tcp.Connection.start connection ~at:0.;
  if sliced then
    for i = 1 to 20 do
      Sim.Engine.run engine ~until:(float_of_int i *. duration /. 20.)
    done
  else Sim.Engine.run engine ~until:duration;
  Printf.sprintf "%s events=%d rx=%d"
    (Digest.to_hex (Digest.string (Buffer.contents lines)))
    (Sim.Engine.events_executed engine)
    (Tcp.Connection.received_segments connection)

let variant_case variant =
  Alcotest.test_case (fst variant) `Quick (fun () ->
      Timing.recording := true;
      let plain = lattice_trace ~wrapped:false ~sliced:false variant in
      Alcotest.(check string) "sliced run" plain
        (lattice_trace ~wrapped:false ~sliced:true variant);
      Alcotest.(check string) "wrapped sender and routes" plain
        (lattice_trace ~wrapped:true ~sliced:false variant);
      Timing.recording := false)

let parking_case =
  Alcotest.test_case "parking-lot digest, traced and sliced" `Quick (fun () ->
      let spec = Option.get (Scenario.find "parking-lot-loss") in
      let until = 20. in
      let plain = spec.build ~seed:3 Scenario.plain in
      Scenario.advance plain ~until;
      let traced =
        spec.build ~seed:3 (Scenario.traced (Replay.create ~keep:(fun _ -> true) ()))
      in
      Timing.recording := true;
      for i = 1 to 8 do
        Scenario.advance traced ~until:(float_of_int i *. until /. 8.)
      done;
      Timing.recording := false;
      Alcotest.(check string) "digest" (Scenario.digest plain)
        (Scenario.digest traced))

let () =
  Alcotest.run "perfbench"
    [ ("wrappers", List.map variant_case Experiments.Variants.all);
      ("scenario", [ parking_case ]) ]
