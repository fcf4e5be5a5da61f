(* Benchmark harness.

   Part 1 regenerates every results figure of the paper (Figs. 2, 3, 4
   and 6 — the two tables in the paper are pseudo-code listings, not
   results) at bench-friendly scale, plus the design-choice ablations.
   `dune exec bin/tcp_pr_sim.exe -- <figN>` runs the full-scale
   versions.

   Part 2 runs bechamel micro-benchmarks of the hot paths: the event
   queue, the Newton ewrtt update, sender ACK processing, the
   receiver, and epsilon-routing sampling.

   Part 3 measures allocation per simulated packet and per ACK
   (Alloc_suite) — the numbers the zero-allocation packet path is
   judged on.

   Part 4 runs the many-flow scale suite (Scale_suite): 1k/5k/10k
   concurrent flows of closed-loop churn over the dumbbell, reporting
   events/sec and timer ops/sec.

   Part 5 runs the engine-only churn suite (Engine_suite): raw
   scheduler events/sec and bytes/event with no workload at all.

   Part 6 runs the sharded scale suite: the partitioned scenario at
   1/2/4 domains.

   Usage: main.exe [all|figures|micro|quick|alloc|scale|engine|sharded|gate]
                   [--jobs N]
     all      figures + extensions + ablations + micro + alloc + scale
              + engine + sharded (default)
     figures  Figs. 2/3/4/6 only
     micro    micro-benchmarks only
     alloc    allocation-per-packet and per-ACK scenarios only
     scale    many-flow scale suite only
     engine   engine-only churn suite only
     sharded  sharded scale suite only (domains 1/2/4 sweep)
     quick    Figs. 2/3/6 + micro + alloc + scale + engine + sharded
              (the `make bench-quick` target)
     gate     FAIL (exit 1) if, within one run on one machine,
                - events/sec at 10k flows falls below 0.4x events/sec
                  at 1k flows (the scale floor), or
                - the 4-domain sharded scale run falls below 1.8x the
                  1-domain events/sec or diverges from it in simulated
                  counts (skipped with a notice on machines with
                  fewer than 4 cores, where the shards cannot
                  actually run concurrently)
              (used by `make ci`)
   --jobs N (or BENCH_JOBS=N) runs figure grid points on N domains;
   the tables are identical to a sequential run.

   Every mode only prints. The allocation quotients of the alloc and
   engine suites are exact and pinned by test/test_alloc.ml under
   `dune runtest`; wall-clock numbers are comparable only within one
   machine and session (`make perf-ab` for the end-to-end benchmark). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Knobs                                                               *)
(* ------------------------------------------------------------------ *)

let jobs =
  let from_env =
    match Sys.getenv_opt "BENCH_JOBS" with
    | Some s -> int_of_string_opt s
    | None -> None
  in
  let from_argv =
    let result = ref None in
    Array.iteri
      (fun i arg ->
        if arg = "--jobs" && i + 1 < Array.length Sys.argv then
          result := int_of_string_opt Sys.argv.(i + 1))
      Sys.argv;
    !result
  in
  let requested =
    match (from_argv, from_env) with
    | Some n, _ -> n
    | None, Some n -> n
    | None, None -> Sim.Domain_pool.default_jobs ()
  in
  max 1 requested

let mode =
  let known =
    [ "all"; "figures"; "micro"; "quick"; "alloc"; "scale"; "engine";
      "sharded"; "gate" ]
  in
  let picked = ref "all" in
  Array.iteri
    (fun i arg -> if i > 0 && List.mem arg known then picked := arg)
    Sys.argv;
  !picked

let heading title = Printf.printf "\n===== %s =====\n%!" title

let timed name f =
  let t0 = Unix.gettimeofday () in
  f ();
  Printf.printf "\n(%s: %.1f s wall)\n%!" name (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Part 1: figure regeneration                                         *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  heading "Fig. 2 - fairness: k TCP-PR + k TCP-SACK flows (mean T ~ 1)";
  let run topology =
    Printf.printf "\n--- %s ---\n"
      (Experiments.Fig2_fairness.topology_name topology);
    Experiments.Fig2_fairness.series ~seed:1 ~warmup:20. ~window:30.
      ~counts:[ 1; 4; 16 ] ~jobs topology ()
    |> Experiments.Fig2_fairness.to_table
    |> Stats.Table.print
  in
  run Experiments.Fig2_fairness.Dumbbell;
  run Experiments.Fig2_fairness.Parking_lot

let fig3 () =
  heading "Fig. 3 - CoV of normalized throughput vs loss rate";
  let run topology =
    Printf.printf "\n--- %s ---\n"
      (Experiments.Fig2_fairness.topology_name topology);
    Experiments.Fig3_cov.series ~seed:1 ~warmup:20. ~window:30.
      ~flows_per_protocol:4 ~scales:[ 1.0; 0.5; 0.25 ] ~jobs topology ()
    |> Experiments.Fig3_cov.to_table |> Stats.Table.print
  in
  run Experiments.Fig2_fairness.Dumbbell;
  run Experiments.Fig2_fairness.Parking_lot

let fig4 () =
  heading "Fig. 4 - TCP-SACK mean normalized throughput vs (alpha, beta)";
  let run topology =
    Printf.printf "\n--- %s ---\n"
      (Experiments.Fig2_fairness.topology_name topology);
    Experiments.Fig4_param.grid ~seed:1 ~warmup:20. ~window:30.
      ~flows_per_protocol:4 ~alphas:[ 0.9; 0.995 ] ~betas:[ 1.; 3.; 10. ]
      ~jobs topology ()
    |> Experiments.Fig4_param.to_table |> Stats.Table.print
  in
  run Experiments.Fig2_fairness.Dumbbell;
  run Experiments.Fig2_fairness.Parking_lot

let fig6 () =
  heading "Fig. 6 - throughput under multi-path routing (Mb/s)";
  let delays = [ 0.010; 0.060 ] in
  let points =
    Experiments.Fig6_multipath.grid ~seed:1 ~warmup:20. ~duration:60.
      ~epsilons:[ 0.; 1.; 4.; 10.; 500. ] ~delays ~jobs ()
  in
  List.iter
    (fun delay_s ->
      Printf.printf "\n--- per-link delay %g ms ---\n" (delay_s *. 1000.);
      Experiments.Fig6_multipath.to_table ~delay_s points |> Stats.Table.print)
    delays

let extensions () =
  heading "Extensions - schemes beyond the paper's comparison";
  print_endline
    "Multi-path throughput (Mb/s), 10 ms links, for Eifel / TCP-DOOR / RACK:";
  let points =
    Experiments.Fig6_multipath.grid ~seed:1 ~warmup:20. ~duration:60.
      ~epsilons:[ 0.; 4.; 500. ] ~delays:[ 0.010 ]
      ~variants:(Experiments.Variants.tcp_pr :: Experiments.Variants.extensions)
      ~jobs ()
  in
  Experiments.Fig6_multipath.to_table ~delay_s:0.010 points |> Stats.Table.print;
  print_endline "\nDelay jitter (Mb/s; 2 x 20 ms path, per-packet uniform jitter):";
  Experiments.Jitter.sweep ~seed:1 ~duration:30. ~jobs ()
  |> Experiments.Jitter.to_table |> Stats.Table.print;
  print_endline "\nRoute flaps (1 s residence, 5 ms vs 40 ms paths):";
  List.iter
    (fun (label, r) ->
      Printf.printf "  %-9s %6.2f Mb/s  retx=%-5.0f spurious dups=%d\n" label
        r.Experiments.Route_flap.mbps r.Experiments.Route_flap.retransmits
        r.Experiments.Route_flap.spurious_duplicates)
    (Experiments.Route_flap.compare ~seed:1 ~duration:40. ~jobs ())

let ablations () =
  heading "Ablations - TCP-PR design choices";
  print_endline "Newton approximation error vs exact alpha^(1/cwnd):";
  List.iter
    (fun (n, cwnd, _, _, err) ->
      Printf.printf "  iterations=%d cwnd=%-6g rel.err=%.2e\n" n cwnd err)
    (Experiments.Ablations.newton_accuracy ~iterations:[ 1; 2 ]
       ~cwnds:[ 2.; 64.; 512. ] ());
  print_endline "\ncwnd-at-send snapshot halving (multi-path, eps=0):";
  List.iter
    (fun (snapshot, mbps) ->
      Printf.printf "  snapshot=%-5b %6.2f Mb/s\n" snapshot mbps)
    (Experiments.Ablations.snapshot_halving ~seed:1 ~duration:30. ~jobs ());
  print_endline "\nmemorize list (bursty 2% loss path):";
  List.iter
    (fun (memorize, mbps) ->
      Printf.printf "  memorize=%-5b %6.2f Mb/s\n" memorize mbps)
    (Experiments.Ablations.memorize_list ~seed:1 ~duration:30. ~jobs ());
  print_endline "\nbeta sensitivity (multi-path, eps=0):";
  List.iter
    (fun (beta, mbps) -> Printf.printf "  beta=%-4g %6.2f Mb/s\n" beta mbps)
    (Experiments.Ablations.beta_sweep ~seed:1 ~duration:30.
       ~betas:[ 1.5; 3.; 10. ] ~jobs ())

(* ------------------------------------------------------------------ *)
(* Part 2: micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bench_event_queue =
  Test.make ~name:"event_queue: 256 push + pop"
    (Staged.stage (fun () ->
         let q = Sim.Event_queue.create () in
         for i = 0 to 255 do
           Sim.Event_queue.push_seq q ~time:(i * 7919 mod 256) ~seq:i i
         done;
         while Sim.Event_queue.head q do
           ignore (Sim.Event_queue.pop_head q)
         done))

let bench_newton =
  Test.make ~name:"ewrtt: newton alpha^(1/cwnd), 2 iters"
    (Staged.stage (fun () ->
         ignore (Core.Ewrtt.newton ~alpha:0.995 ~cwnd:137. ~iterations:2)))

let bench_receiver =
  Test.make ~name:"receiver: 128 segments, 1-in-8 reordered"
    (Staged.stage (fun () ->
         let r = Tcp.Receiver.create Tcp.Config.default in
         for i = 0 to 127 do
           let seq = if i mod 8 = 0 && i + 1 < 128 then i + 1 else i in
           ignore (Tcp.Receiver.on_data r ~seq ())
         done))

let bench_pr_ack_processing =
  Test.make ~name:"tcp-pr: start + 64 acks"
    (Staged.stage (fun () ->
         let config =
           { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. }
         in
         let t = Core.Tcp_pr.create config in
         let buf = Tcp.Action_buffer.create () in
         Core.Tcp_pr.start t ~now:0. buf;
         for i = 0 to 63 do
           Tcp.Action_buffer.clear buf;
           let ack =
             { Tcp.Types.next = i + 1; sacks = []; dsack = None; for_seq = i; for_retx = false; serial = i; rwnd = Tcp.Types.rwnd_unbounded }
           in
           Core.Tcp_pr.on_ack t ~now:(0.01 *. float_of_int (i + 1)) ack buf
         done))

let bench_sack_ack_processing =
  Test.make ~name:"sack: start + 64 acks"
    (Staged.stage (fun () ->
         let config =
           { Tcp.Config.default with Tcp.Config.initial_cwnd = 8. }
         in
         let t = Tcp.Sack_core.create config in
         let buf = Tcp.Action_buffer.create () in
         Tcp.Sack_core.start t ~now:0. buf;
         for i = 0 to 63 do
           Tcp.Action_buffer.clear buf;
           let ack =
             { Tcp.Types.next = i + 1; sacks = []; dsack = None; for_seq = i; for_retx = false; serial = i; rwnd = Tcp.Types.rwnd_unbounded }
           in
           Tcp.Sack_core.on_ack t ~now:(0.01 *. float_of_int (i + 1)) ack buf
         done))

let bench_epsilon_sampling =
  let rng = Sim.Rng.create 1 in
  let routing =
    Multipath.Epsilon_routing.create rng ~epsilon:1. ~costs:[| 0.; 1.; 2. |]
  in
  Test.make ~name:"epsilon-routing: sample"
    (Staged.stage (fun () -> ignore (Multipath.Epsilon_routing.sample routing)))

let bench_end_to_end =
  Test.make ~name:"simulator: 200-segment TCP-PR transfer"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let network = Net.Network.create engine in
         let a = Net.Network.add_node network in
         let b = Net.Network.add_node network in
         ignore
           (Net.Network.add_duplex network ~src:a ~dst:b ~bandwidth_bps:10e6
              ~delay_s:0.005 ~capacity:50 ());
         let config =
           { Tcp.Config.default with Tcp.Config.total_segments = Some 200 }
         in
         let data_route = [| Net.Node.id b |] in
         let ack_route = [| Net.Node.id a |] in
         let c =
           Tcp.Connection.create network ~flow:0 ~src:a ~dst:b
             ~sender:(module Core.Tcp_pr) ~config
             ~route_data:(fun () -> data_route)
             ~route_ack:(fun () -> ack_route)
             ()
         in
         Tcp.Connection.start c ~at:0.;
         Sim.Engine.run engine ~until:10.))

(* The pooled packet path in isolation: acquire from the pool, forward
   through a two-link chain, recycle at the sink. Steady state should
   run entirely off the free list. *)
let bench_link_pipeline =
  let engine = Sim.Engine.create () in
  let network = Net.Network.create engine in
  let a = Net.Network.add_node network in
  let b = Net.Network.add_node network in
  let c = Net.Network.add_node network in
  ignore
    (Net.Network.add_link network ~src:a ~dst:b ~bandwidth_bps:100e6
       ~delay_s:0.001 ~capacity:512 ());
  ignore
    (Net.Network.add_link network ~src:b ~dst:c ~bandwidth_bps:100e6
       ~delay_s:0.001 ~capacity:512 ());
  Net.Node.attach c ~flow:0 (fun packet ->
      Net.Network.release_packet network packet);
  let route = [| Net.Node.id b; Net.Node.id c |] in
  Test.make ~name:"link pipeline: 256 pooled packets, 2 hops"
    (Staged.stage (fun () ->
         for _ = 1 to 256 do
           let packet =
             Net.Network.make_packet network ~flow:0 ~src:(Net.Node.id a)
               ~dst:(Net.Node.id c) ~size:1500 ~route
               (Net.Packet.Raw 0)
           in
           Net.Network.originate network ~from:a packet
         done;
         Sim.Engine.run_to_completion engine))

let microbenchmarks () =
  heading "Micro-benchmarks (bechamel, monotonic clock)";
  let tests =
    [ bench_event_queue;
      bench_newton;
      bench_receiver;
      bench_pr_ack_processing;
      bench_sack_ack_processing;
      bench_epsilon_sampling;
      bench_link_pipeline;
      bench_end_to_end ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let print_result test =
    let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
    let analysis = Analyze.all ols Instance.monotonic_clock results in
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some [ time_per_run ] ->
          Printf.printf "  %-45s %12.1f ns/run\n%!" name time_per_run
        | Some _ | None -> Printf.printf "  %-45s (no estimate)\n%!" name)
      analysis
  in
  List.iter print_result tests

(* ------------------------------------------------------------------ *)
(* Part 3: allocation per simulated packet                             *)
(* ------------------------------------------------------------------ *)

let alloc_suite () =
  heading "Allocation per simulated packet";
  List.iter Alloc_suite.pp_measurement (Alloc_suite.run_all ());
  heading "Allocation per ACK (isolated on_ack churn)";
  List.iter Alloc_suite.pp_ack_measurement (Alloc_suite.run_acks ())

(* ------------------------------------------------------------------ *)
(* Part 4: many-flow scale suite                                       *)
(* ------------------------------------------------------------------ *)

let scale_suite () =
  heading "Many-flow scale: closed-loop churn on the timing wheel";
  List.iter Scale_suite.pp_measurement (Scale_suite.run_all ())

(* ------------------------------------------------------------------ *)
(* Part 5: engine-only churn suite                                     *)
(* ------------------------------------------------------------------ *)

let engine_suite () =
  heading "Engine-only churn: raw scheduler events/sec";
  List.iter Engine_suite.pp_measurement (Engine_suite.run_all ())

(* ------------------------------------------------------------------ *)
(* Part 6: sharded scale suite                                         *)
(* ------------------------------------------------------------------ *)

let sharded_suite () =
  heading "Sharded scale: partitioned scenario across domain counts";
  Printf.printf "  recommended_domain_count=%d\n%!"
    (Domain.recommended_domain_count ());
  let measurements = Scale_suite.run_sharded () in
  List.iter Scale_suite.pp_sharded measurements;
  (match Scale_suite.sharded_divergences measurements with
  | [] ->
    print_endline "  simulated results identical at every domain count"
  | diverged ->
    Printf.printf "  WARNING: domain counts diverge at %s\n"
      (String.concat ", " diverged))

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Both stages compare two measurements taken in the same run, so the
   verdict depends on the code, not on which machine recorded a number
   last. *)
let gate () =
  heading "Bench gate: events/sec scaling floor at 10x flow count";
  let small, large, ok = Scale_suite.gate_check () in
  Scale_suite.pp_measurement small;
  Scale_suite.pp_measurement large;
  let ratio =
    large.Scale_suite.events_per_s
    /. Float.max small.Scale_suite.events_per_s 1e-9
  in
  Printf.printf "  events/sec at %d flows is %.2fx of %d flows (floor %.2f)  %s\n"
    large.Scale_suite.flows ratio small.Scale_suite.flows
    Scale_suite.gate_scaling_floor
    (if ok then "ok" else "REGRESSION");
  if not ok then begin
    Printf.printf
      "\nGate FAILED: per-event cost grows too fast with the timer\n\
       population — the timing wheel should keep scheduler cost flat.\n";
    exit 1
  end
  else
    Printf.printf "\nGate passed (scale floor %.2f).\n"
      Scale_suite.gate_scaling_floor;
  heading "Bench gate: sharded events/sec scaling floor at 4 domains";
  let cores = Domain.recommended_domain_count () in
  if cores < Scale_suite.sharded_gate_min_cores then
    Printf.printf
      "  only %d core(s) recommended (< %d): shards cannot run \
       concurrently here; skipping the parallel-speedup floor\n"
      cores Scale_suite.sharded_gate_min_cores
  else begin
    let base, wide, ok = Scale_suite.sharded_gate_check () in
    Scale_suite.pp_sharded base;
    Scale_suite.pp_sharded wide;
    let ratio =
      wide.Scale_suite.s_events_per_s
      /. Float.max base.Scale_suite.s_events_per_s 1e-9
    in
    Printf.printf
      "  events/sec at %d domains is %.2fx of 1 domain (floor %.2f)  %s\n"
      wide.Scale_suite.s_domains ratio Scale_suite.sharded_gate_floor
      (if ok then "ok" else "REGRESSION");
    if not ok then begin
      Printf.printf
        "\nGate FAILED: the sharded engine no longer buys %.1fx at %d\n\
         domains (or its simulated counts diverged from 1 domain).\n"
        Scale_suite.sharded_gate_floor Scale_suite.sharded_gate_domains;
      exit 1
    end
    else
      Printf.printf "\nGate passed (sharded floor %.2f).\n"
        Scale_suite.sharded_gate_floor
  end

let () =
  let t0 = Unix.gettimeofday () in
  Printf.printf "mode=%s jobs=%d\n%!" mode jobs;
  (match mode with
  | "gate" -> gate ()
  | "figures" ->
    timed "fig2" fig2;
    timed "fig3" fig3;
    timed "fig4" fig4;
    timed "fig6" fig6
  | "micro" -> microbenchmarks ()
  | "alloc" -> alloc_suite ()
  | "scale" -> scale_suite ()
  | "engine" -> engine_suite ()
  | "sharded" -> sharded_suite ()
  | "quick" ->
    timed "fig2" fig2;
    timed "fig3" fig3;
    timed "fig6" fig6;
    microbenchmarks ();
    alloc_suite ();
    scale_suite ();
    engine_suite ();
    sharded_suite ()
  | _ ->
    timed "fig2" fig2;
    timed "fig3" fig3;
    timed "fig4" fig4;
    timed "fig6" fig6;
    timed "extensions" extensions;
    timed "ablations" ablations;
    microbenchmarks ();
    alloc_suite ();
    scale_suite ();
    engine_suite ();
    sharded_suite ());
  if mode <> "gate" then
    Printf.printf "Total bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
