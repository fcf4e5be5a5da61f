(* Tests for the three topologies: structure, routes, and the paper's
   Fig. 1 parking-lot parameters. *)

let check_float = Alcotest.(check (float 1e-9))

(* Every consecutive pair along a route must be joined by a link. *)
let route_is_connected network ~from route =
  let rec walk current = function
    | [] -> true
    | next :: rest -> (
      match Net.Network.link_between network ~src:current ~dst:next with
      | Some _ -> walk next rest
      | None -> false)
  in
  walk from (Array.to_list route)

(* ------------------------------------------------------------------ *)
(* Dumbbell                                                            *)
(* ------------------------------------------------------------------ *)

let test_dumbbell_structure () =
  let engine = Sim.Engine.create () in
  let d = Topo.Dumbbell.create engine ~pairs:3 () in
  Alcotest.(check int) "3 sources" 3 (Array.length d.Topo.Dumbbell.sources);
  Alcotest.(check int) "3 sinks" 3 (Array.length d.Topo.Dumbbell.sinks);
  (* 2 routers + 6 hosts. *)
  Alcotest.(check int) "8 nodes" 8
    (Net.Network.node_count d.Topo.Dumbbell.network);
  check_float "bottleneck bandwidth" 15e6
    (Net.Link.bandwidth_bps d.Topo.Dumbbell.bottleneck_forward)

let test_dumbbell_routes_connected () =
  let engine = Sim.Engine.create () in
  let d = Topo.Dumbbell.create engine ~pairs:2 () in
  let network = d.Topo.Dumbbell.network in
  for pair = 0 to 1 do
    Alcotest.(check bool) "forward route valid" true
      (route_is_connected network
         ~from:(Net.Node.id d.Topo.Dumbbell.sources.(pair))
         (Topo.Dumbbell.route_forward d ~pair));
    Alcotest.(check bool) "reverse route valid" true
      (route_is_connected network
         ~from:(Net.Node.id d.Topo.Dumbbell.sinks.(pair))
         (Topo.Dumbbell.route_reverse d ~pair))
  done

let test_dumbbell_end_to_end () =
  let engine = Sim.Engine.create () in
  let d = Topo.Dumbbell.create engine () in
  let network = d.Topo.Dumbbell.network in
  let received = ref 0 in
  Net.Node.attach d.Topo.Dumbbell.sinks.(0) ~flow:0 (fun _ -> incr received);
  let packet =
    Net.Packet.create ~uid:0 ~flow:0
      ~src:(Net.Node.id d.Topo.Dumbbell.sources.(0))
      ~dst:(Net.Node.id d.Topo.Dumbbell.sinks.(0))
      ~size:1000
      ~route:(Topo.Dumbbell.route_forward d ~pair:0) (Net.Packet.Raw 0)
  in
  Net.Network.originate network ~from:d.Topo.Dumbbell.sources.(0) packet;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "delivered across bottleneck" 1 !received

(* ------------------------------------------------------------------ *)
(* Parking lot (Fig. 1)                                                *)
(* ------------------------------------------------------------------ *)

let test_parking_lot_bandwidths () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let network = lot.Topo.Parking_lot.network in
  let core i = Net.Node.id lot.Topo.Parking_lot.core.(i) in
  let bandwidth ~src ~dst =
    match Net.Network.link_between network ~src ~dst with
    | Some link -> Net.Link.bandwidth_bps link
    | None -> Alcotest.fail "missing link"
  in
  (* Core chain at 15 Mb/s. *)
  check_float "1->2" 15e6 (bandwidth ~src:(core 0) ~dst:(core 1));
  check_float "2->3" 15e6 (bandwidth ~src:(core 1) ~dst:(core 2));
  check_float "3->4" 15e6 (bandwidth ~src:(core 2) ~dst:(core 3));
  (* Cross-source access links: 5 / 1.66 / 2.5 Mb/s into nodes 1..3. *)
  let cross_pairs = lot.Topo.Parking_lot.cross_pairs in
  let sources =
    List.sort_uniq compare
      (List.map
         (fun p -> Net.Node.id p.Topo.Parking_lot.cross_source)
         cross_pairs)
  in
  (match sources with
  | [ cs1; cs2; cs3 ] ->
    check_float "CS1" 5e6 (bandwidth ~src:cs1 ~dst:(core 0));
    check_float "CS2" 1.66e6 (bandwidth ~src:cs2 ~dst:(core 1));
    check_float "CS3" 2.5e6 (bandwidth ~src:cs3 ~dst:(core 2))
  | _ -> Alcotest.fail "expected three cross sources");
  Alcotest.(check int) "six cross pairs" 6 (List.length cross_pairs)

let test_parking_lot_cross_matrix () =
  (* The paper's matrix: CS1->CD1, CS1->CD2, CS1->CD3, CS2->CD2,
     CS2->CD3, CS3->CD3 — i.e. source index <= sink index always, with
     CS1 appearing three times, CS2 twice, CS3 once. *)
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let by_source = Hashtbl.create 4 in
  List.iter
    (fun p ->
      let src = Net.Node.id p.Topo.Parking_lot.cross_source in
      Hashtbl.replace by_source src
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_source src)))
    lot.Topo.Parking_lot.cross_pairs;
  let counts = List.sort compare (Hashtbl.fold (fun _ v acc -> v :: acc) by_source []) in
  Alcotest.(check (list int)) "1 + 2 + 3 connections" [ 1; 2; 3 ] counts

let test_parking_lot_routes_connected () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine () in
  let network = lot.Topo.Parking_lot.network in
  Alcotest.(check bool) "main forward" true
    (route_is_connected network
       ~from:(Net.Node.id lot.Topo.Parking_lot.source)
       (Topo.Parking_lot.route_forward lot));
  Alcotest.(check bool) "main reverse" true
    (route_is_connected network
       ~from:(Net.Node.id lot.Topo.Parking_lot.destination)
       (Topo.Parking_lot.route_reverse lot));
  List.iter
    (fun p ->
      Alcotest.(check bool) "cross forward" true
        (route_is_connected network
           ~from:(Net.Node.id p.Topo.Parking_lot.cross_source)
           p.Topo.Parking_lot.forward_route);
      Alcotest.(check bool) "cross reverse" true
        (route_is_connected network
           ~from:(Net.Node.id p.Topo.Parking_lot.cross_sink)
           p.Topo.Parking_lot.reverse_route))
    lot.Topo.Parking_lot.cross_pairs

let test_parking_lot_bandwidth_scale () =
  let engine = Sim.Engine.create () in
  let lot = Topo.Parking_lot.create engine ~bandwidth_scale:0.5 () in
  let network = lot.Topo.Parking_lot.network in
  let core i = Net.Node.id lot.Topo.Parking_lot.core.(i) in
  match Net.Network.link_between network ~src:(core 0) ~dst:(core 1) with
  | Some link -> check_float "scaled" 7.5e6 (Net.Link.bandwidth_bps link)
  | None -> Alcotest.fail "missing link"

(* ------------------------------------------------------------------ *)
(* Multipath lattice (Fig. 5)                                          *)
(* ------------------------------------------------------------------ *)

let test_lattice_structure () =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine () in
  Alcotest.(check int) "three paths" 3
    (Topo.Multipath_lattice.path_count lattice);
  (* 3/4/5 hops need 2+3+4 intermediates plus source and sink. *)
  Alcotest.(check int) "node count" 11
    (Net.Network.node_count lattice.Topo.Multipath_lattice.network);
  Alcotest.(check (array (Alcotest.float 1e-9)))
    "path delays"
    [| 0.030; 0.040; 0.050 |]
    (Topo.Multipath_lattice.path_delays lattice)

let test_lattice_paths_disjoint () =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine () in
  let routes = lattice.Topo.Multipath_lattice.forward_routes in
  let intermediates route =
    List.filter
      (fun id -> id <> Net.Node.id lattice.Topo.Multipath_lattice.destination)
      (Array.to_list route)
  in
  let all = Array.to_list routes |> List.concat_map intermediates in
  let distinct = List.sort_uniq compare all in
  Alcotest.(check int) "node-disjoint" (List.length all) (List.length distinct)

let test_lattice_routes_deliver () =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine () in
  let network = lattice.Topo.Multipath_lattice.network in
  let received = ref [] in
  Net.Node.attach lattice.Topo.Multipath_lattice.destination ~flow:0 (fun p ->
      received := (p.Net.Packet.uid, Sim.Engine.now engine) :: !received);
  Array.iteri
    (fun index route ->
      let packet =
        Net.Packet.create ~uid:index ~flow:0
          ~src:(Net.Node.id lattice.Topo.Multipath_lattice.source)
          ~dst:(Net.Node.id lattice.Topo.Multipath_lattice.destination)
          ~size:1000 ~route (Net.Packet.Raw 0)
      in
      Net.Network.originate network ~from:lattice.Topo.Multipath_lattice.source
        packet)
    lattice.Topo.Multipath_lattice.forward_routes;
  Sim.Engine.run_to_completion engine;
  Alcotest.(check int) "all paths deliver" 3 (List.length !received);
  (* Longer paths deliver later: arrival order is path order. *)
  let order = List.rev_map fst !received in
  Alcotest.(check (list int)) "shorter first" [ 0; 1; 2 ] order

let test_lattice_reverse_routes () =
  let engine = Sim.Engine.create () in
  let lattice = Topo.Multipath_lattice.create engine () in
  let network = lattice.Topo.Multipath_lattice.network in
  Array.iter
    (fun route ->
      Alcotest.(check bool) "reverse connected" true
        (route_is_connected network
           ~from:(Net.Node.id lattice.Topo.Multipath_lattice.destination)
           route))
    lattice.Topo.Multipath_lattice.reverse_routes

let () =
  Alcotest.run "topo"
    [ ( "dumbbell",
        [ Alcotest.test_case "structure" `Quick test_dumbbell_structure;
          Alcotest.test_case "routes connected" `Quick
            test_dumbbell_routes_connected;
          Alcotest.test_case "end to end" `Quick test_dumbbell_end_to_end ] );
      ( "parking-lot",
        [ Alcotest.test_case "fig.1 bandwidths" `Quick
            test_parking_lot_bandwidths;
          Alcotest.test_case "cross matrix" `Quick test_parking_lot_cross_matrix;
          Alcotest.test_case "routes connected" `Quick
            test_parking_lot_routes_connected;
          Alcotest.test_case "bandwidth scale" `Quick
            test_parking_lot_bandwidth_scale ] );
      ( "multipath-lattice",
        [ Alcotest.test_case "structure" `Quick test_lattice_structure;
          Alcotest.test_case "paths disjoint" `Quick test_lattice_paths_disjoint;
          Alcotest.test_case "routes deliver" `Quick test_lattice_routes_deliver;
          Alcotest.test_case "reverse routes" `Quick test_lattice_reverse_routes ]
      ) ]
