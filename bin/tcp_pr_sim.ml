(* Command-line driver regenerating every figure of the paper and the
   ablation studies. `tcp_pr_sim <figure> --help` lists the knobs. *)

open Cmdliner

let topology_conv =
  let parse = function
    | "dumbbell" -> Ok Experiments.Fig2_fairness.Dumbbell
    | "parking-lot" | "parking_lot" | "parkinglot" ->
      Ok Experiments.Fig2_fairness.Parking_lot
    | s -> Error (`Msg (Printf.sprintf "unknown topology %S" s))
  in
  let print ppf t =
    Format.pp_print_string ppf (Experiments.Fig2_fairness.topology_name t)
  in
  Arg.conv (parse, print)

let topologies_term =
  let doc = "Topology: dumbbell or parking-lot (repeatable)." in
  Arg.(
    value
    & opt_all topology_conv
        [ Experiments.Fig2_fairness.Dumbbell;
          Experiments.Fig2_fairness.Parking_lot ]
    & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

(* Converters that reject out-of-range numbers while parsing, so a bad
   value is reported as a usage error instead of an exception from
   inside a run. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= 1, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_seconds =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && x > 0. -> Ok x
    | _ ->
      Error
        (`Msg (Printf.sprintf "expected a finite number > 0, got %S" s))
  in
  Arg.conv (parse, fun ppf x -> Format.fprintf ppf "%g" x)

let seed_term =
  let doc = "Root random seed; every run is deterministic given the seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_term =
  let doc = "Shrink warmup/measurement windows and flow counts for a fast run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_term =
  let doc =
    "Run independent grid points on $(docv) domains. Output is \
     byte-identical to --jobs 1 for the same seed: each point builds its \
     own engine and results are collected in input order."
  in
  Arg.(
    value
    & opt int (Sim.Domain_pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let csv_term =
  let doc = "Emit tables as CSV instead of aligned text." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let render ~csv table =
  if csv then print_string (Stats.Table.to_csv table)
  else Stats.Table.print table

let windows ~quick = if quick then (20., 30.) else (40., 60.)

let section topology =
  Printf.printf "\n--- %s ---\n"
    (Experiments.Fig2_fairness.topology_name topology)

let fig2 seed quick csv jobs topologies =
  let warmup, window = windows ~quick in
  let jobs = max 1 jobs in
  let counts = if quick then [ 1; 2; 8 ] else [ 1; 2; 4; 8; 16; 32 ] in
  print_endline
    "Fig. 2 - normalized throughput of k TCP-PR + k TCP-SACK flows (mean ~ 1 = fair)";
  let run topology =
    section topology;
    Experiments.Fig2_fairness.series ~seed ~warmup ~window ~counts ~jobs
      topology ()
    |> Experiments.Fig2_fairness.to_table |> render ~csv
  in
  List.iter run topologies

let fig3 seed quick csv jobs topologies =
  let warmup, window = windows ~quick in
  let jobs = max 1 jobs in
  let flows_per_protocol = if quick then 4 else 8 in
  let scales =
    if quick then [ 1.0; 0.5; 0.25 ] else [ 1.0; 0.7; 0.5; 0.35; 0.25 ]
  in
  print_endline
    "Fig. 3 - coefficient of variation of normalized throughput vs loss rate";
  let run topology =
    section topology;
    Experiments.Fig3_cov.series ~seed ~warmup ~window ~flows_per_protocol
      ~scales ~jobs topology ()
    |> Experiments.Fig3_cov.to_table |> render ~csv
  in
  List.iter run topologies

let fig4 seed quick csv jobs flows topologies =
  let warmup, window = windows ~quick in
  let jobs = max 1 jobs in
  let flows_per_protocol =
    match flows with Some n -> n | None -> if quick then 4 else 8
  in
  let alphas = if quick then [ 0.995 ] else [ 0.5; 0.9; 0.995 ] in
  let betas = if quick then [ 1.; 3.; 10. ] else [ 1.; 2.; 3.; 5.; 10. ] in
  print_endline
    "Fig. 4 - TCP-SACK mean normalized throughput for TCP-PR parameters (alpha, beta)";
  let run topology =
    section topology;
    Experiments.Fig4_param.grid ~seed ~warmup ~window ~flows_per_protocol
      ~alphas ~betas ~jobs topology ()
    |> Experiments.Fig4_param.to_table |> render ~csv
  in
  List.iter run topologies

let fig6 seed quick csv jobs extended =
  let warmup = if quick then 20. else 40. in
  let duration = if quick then 60. else 160. in
  let jobs = max 1 jobs in
  let epsilons = [ 0.; 1.; 4.; 10.; 500. ] in
  let delays = if quick then [ 0.010 ] else [ 0.010; 0.060 ] in
  let variants =
    if extended then Experiments.Variants.fig6 @ Experiments.Variants.extensions
    else Experiments.Variants.fig6
  in
  print_endline
    "Fig. 6 - throughput (Mb/s) under multi-path routing; eps=500 is single-path";
  if extended then
    print_endline
      "(extended with Eifel, TCP-DOOR and RACK - not part of the paper's comparison)";
  let points =
    Experiments.Fig6_multipath.grid ~seed ~warmup ~duration ~epsilons ~delays
      ~variants ~jobs ()
  in
  let show delay_s =
    Printf.printf "\n--- per-link delay %g ms ---\n" (delay_s *. 1000.);
    Experiments.Fig6_multipath.to_table ~delay_s points |> render ~csv
  in
  List.iter show delays

let flaps seed quick jobs =
  let duration = if quick then 30. else 60. in
  let jobs = max 1 jobs in
  print_endline
    "Route flaps (paper Section 1): all traffic flips between a 5 ms and a 40 ms";
  print_endline "path once per second; each flap reorders the packets in flight.";
  let table =
    Stats.Table.create
      ~columns:[ "variant"; "Mb/s"; "retransmits"; "spurious dups" ]
  in
  List.iter
    (fun (label, r) ->
      Stats.Table.add_row table
        [ label;
          Printf.sprintf "%.2f" r.Experiments.Route_flap.mbps;
          Printf.sprintf "%.0f" r.Experiments.Route_flap.retransmits;
          string_of_int r.Experiments.Route_flap.spurious_duplicates ])
    (Experiments.Route_flap.compare ~seed ~duration ~jobs ());
  Stats.Table.print table

let jitter seed quick jobs =
  let duration = if quick then 20. else 60. in
  let jobs = max 1 jobs in
  print_endline
    "Delay jitter (wireless-style intra-path reordering): throughput (Mb/s)";
  print_endline
    "over a 2 x 20 ms, 10 Mb/s path whose links add uniform per-packet jitter.";
  Experiments.Jitter.sweep ~seed ~duration ~jobs ()
  |> Experiments.Jitter.to_table |> Stats.Table.print

let hoststack seed quick jobs =
  ignore seed;
  let jobs = max 1 jobs in
  let total_segments = if quick then 40 else 80 in
  print_endline
    "Host-stack buffer pressure: completion time (s) of a bounded transfer";
  print_endline
    "over the Fig. 2 dumbbell with a 16-segment autotuned receive buffer,";
  print_endline
    "GRO coalescing (1 ms / 4) and a paced application reader.";
  let points = Experiments.Hoststack.sweep ~total_segments ~jobs () in
  Experiments.Hoststack.to_table points |> Stats.Table.print;
  let pressured =
    List.filter (fun p -> p.Experiments.Hoststack.zero_windows > 0) points
  in
  Printf.printf
    "\n%d/%d cells hit a zero window; %d window-reopen announcements, %d \
     socket drops in total.\n"
    (List.length pressured) (List.length points)
    (List.fold_left
       (fun acc p -> acc + p.Experiments.Hoststack.window_updates)
       0 points)
    (List.fold_left
       (fun acc p -> acc + p.Experiments.Hoststack.buf_drops)
       0 points)

let adversary seed quick jobs target tolerance variants =
  let jobs = max 1 jobs in
  let epoch_s = if quick then 2. else 3. in
  let max_epochs = if quick then 12 else 16 in
  let hold_arrivals = if quick then 16_000 else 25_000 in
  let variants =
    match variants with
    | [] -> Experiments.Variants.all
    | names ->
      List.map
        (fun name ->
          match Experiments.Variants.find name with
          | Some variant -> variant
          | None ->
            Printf.eprintf "unknown variant %S\n" name;
            exit 2)
        names
  in
  Printf.printf
    "Adaptive adversary: hold measured reordering density at %.3f (±%.0f%%)\n"
    target (tolerance *. 100.);
  Printf.printf
    "over the multipath lattice, retuning epsilon each %g-second epoch \
     (up to %d epochs, %d variants).\n"
    epoch_s max_epochs (List.length variants);
  let points =
    Experiments.Adversary.sweep ~seed ~epoch_s ~max_epochs ~hold_arrivals
      ~target ~tolerance ~variants ~jobs ()
  in
  Experiments.Adversary.to_table points |> Stats.Table.print;
  if Experiments.Adversary.all_held points then
    Printf.printf "\nall %d variants held the target density.\n"
      (List.length points)
  else begin
    List.iter
      (fun p ->
        if not p.Experiments.Adversary.held then begin
          Printf.printf "\nMISS: %s settled at density %.4f (target %.4f)\n"
            p.Experiments.Adversary.variant
            p.Experiments.Adversary.final_density
            p.Experiments.Adversary.target;
          List.iter
            (fun e ->
              Printf.printf "  epoch %2d: epsilon=%8.3f arrivals=%6d density=%.4f\n"
                e.Experiments.Adversary.index e.Experiments.Adversary.epsilon
                e.Experiments.Adversary.arrivals
                e.Experiments.Adversary.density)
            p.Experiments.Adversary.epochs
        end)
      points;
    exit 1
  end

let manet seed quick jobs =
  let duration = if quick then 20. else 60. in
  let jobs = max 1 jobs in
  print_endline
    "MANET (paper future work): 12 radios, random-waypoint mobility, pinned";
  print_endline
    "endpoints relayed over 2-3 changing hops. Route changes reorder and";
  print_endline "black-hole packets in flight.";
  let table =
    Stats.Table.create
      ~columns:[ "variant"; "Mb/s"; "retransmits"; "spurious dups" ]
  in
  List.iter
    (fun (label, r) ->
      Stats.Table.add_row table
        [ label;
          Printf.sprintf "%.2f" r.Experiments.Manet_experiment.mbps;
          Printf.sprintf "%.0f" r.Experiments.Manet_experiment.retransmits;
          string_of_int r.Experiments.Manet_experiment.spurious_duplicates ])
    (Experiments.Manet_experiment.compare ~seed ~duration ~jobs ());
  Stats.Table.print table

let ablate seed quick jobs which =
  let duration = if quick then 30. else 60. in
  let jobs = max 1 jobs in
  let run_newton () =
    print_endline
      "Newton approximation of alpha^(1/cwnd) (paper footnote 5; n = 2 in the kernel)";
    let table =
      Stats.Table.create
        ~columns:[ "iterations"; "cwnd"; "approx"; "exact"; "rel. error" ]
    in
    List.iter
      (fun (n, cwnd, approx, exact, err) ->
        Stats.Table.add_row table
          [ string_of_int n;
            Printf.sprintf "%g" cwnd;
            Printf.sprintf "%.8f" approx;
            Printf.sprintf "%.8f" exact;
            Printf.sprintf "%.2e" err ])
      (Experiments.Ablations.newton_accuracy ());
    Stats.Table.print table
  in
  let run_snapshot () =
    print_endline
      "\nHalving cwnd-at-send snapshot vs current cwnd (multi-path, eps = 0):";
    List.iter
      (fun (snapshot, mbps) ->
        Printf.printf "  snapshot=%-5b %6.2f Mb/s\n" snapshot mbps)
      (Experiments.Ablations.snapshot_halving ~seed ~duration ~jobs ())
  in
  let run_memorize () =
    print_endline "\nMemorize list on a bursty lossy path (2% injected loss):";
    List.iter
      (fun (memorize, mbps) ->
        Printf.printf "  memorize=%-5b %6.2f Mb/s\n" memorize mbps)
      (Experiments.Ablations.memorize_list ~seed ~duration ~jobs ())
  in
  let run_beta () =
    print_endline "\nTCP-PR multi-path throughput (eps = 0) vs beta:";
    List.iter
      (fun (beta, mbps) -> Printf.printf "  beta=%-4g %6.2f Mb/s\n" beta mbps)
      (Experiments.Ablations.beta_sweep ~seed ~duration ~jobs ())
  in
  let run_beta_fairness () =
    print_endline "\nTCP-SACK mean normalized throughput vs TCP-PR beta (dumbbell):";
    List.iter
      (fun (beta, mean) -> Printf.printf "  beta=%-4g %6.3f\n" beta mean)
      (Experiments.Ablations.beta_fairness ~seed
         ~flows_per_protocol:(if quick then 4 else 8)
         ~jobs ())
  in
  match which with
  | "newton" -> run_newton ()
  | "snapshot" -> run_snapshot ()
  | "memorize" -> run_memorize ()
  | "beta" -> run_beta ()
  | "beta-fairness" -> run_beta_fairness ()
  | "all" ->
    run_newton ();
    run_snapshot ();
    run_memorize ();
    run_beta ();
    run_beta_fairness ()
  | other -> Printf.eprintf "unknown ablation %S\n" other

let check seed seeds jobs variants golden write_golden =
  let jobs = max 1 jobs in
  let failures = ref 0 in
  let variant_list =
    match variants with
    | [] -> Experiments.Variants.all
    | names ->
      List.map
        (fun name ->
          match Experiments.Variants.find name with
          | Some variant -> variant
          | None ->
            Printf.eprintf "unknown variant %S\n" name;
            exit 2)
        names
  in
  (match write_golden with
  | Some dir ->
    Check.Golden.write ~dir ~jobs;
    Printf.printf "golden traces written to %s/\n" dir
  | None -> ());
  if seeds > 0 then begin
    Printf.printf
      "Differential oracle: %d scenario(s) x %d variant(s), monitors armed\n"
      seeds (List.length variant_list);
    let grid =
      List.concat_map
        (fun offset ->
          List.map (fun variant -> (seed + offset, variant)) variant_list)
        (List.init seeds Fun.id)
    in
    let reports =
      Experiments.Runner.parallel_map ~jobs
        (fun (scenario_seed, variant) ->
          Check.Oracle.run
            (Check.Oracle.generate ~seed:scenario_seed ())
            ~variant)
        grid
    in
    List.iter
      (fun report ->
        if Check.Oracle.passed report then
          Printf.printf "  ok   %-9s %s\n" report.Check.Oracle.variant
            (Check.Oracle.describe report.Check.Oracle.scenario)
        else begin
          incr failures;
          Format.printf "  FAIL %a@." Check.Oracle.pp_report report
        end)
      reports
  end;
  (match golden with
  | Some dir ->
    Printf.printf "Golden traces vs %s/ (jobs=%d):\n" dir jobs;
    List.iter
      (fun (case_id, result) ->
        match result with
        | `Ok -> Printf.printf "  ok   %s\n" case_id
        | `Missing ->
          incr failures;
          Printf.printf "  FAIL %s: no stored digest (run `make golden`)\n"
            case_id
        | `Mismatch detail ->
          incr failures;
          Printf.printf "  FAIL %s: trace drifted at %s\n" case_id detail)
      (Check.Golden.verify ~dir ~jobs)
  | None -> ());
  if !failures > 0 then begin
    Printf.printf "%d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "all checks passed"

let report seed jobs csv scenario variants tail out =
  let jobs = max 1 jobs in
  let variant_list =
    match variants with
    | [] -> [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]
    | names ->
      List.map
        (fun name ->
          match Experiments.Variants.find name with
          | Some variant -> variant
          | None ->
            Printf.eprintf "unknown variant %S\n" name;
            exit 2)
        names
  in
  let text =
    Check.Report.render ~csv ~tail ~seed ~jobs ~scenario ~variants:variant_list
      ()
  in
  match out with
  | None -> print_string text
  | Some path ->
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    Printf.printf "report written to %s\n" path

let demo seed jobs =
  let jobs = max 1 jobs in
  print_endline "Demo: TCP-PR vs TCP-SACK, single shared 15 Mb/s bottleneck";
  let result =
    Experiments.Runner.dumbbell_fairness ~seed ~warmup:10. ~window:30.
      ~specs:
        [ { Experiments.Runner.label = "TCP-PR";
            sender = (module Core.Tcp_pr);
            count = 1 };
          { Experiments.Runner.label = "TCP-SACK";
            sender = (module Tcp.Sack);
            count = 1 } ]
      ()
  in
  List.iter
    (fun (label, mbps) -> Printf.printf "  %-10s %6.2f Mb/s\n" label mbps)
    result.Experiments.Runner.throughputs;
  print_endline "\nDemo: the same pair under full multi-path routing (eps = 0)";
  Experiments.Runner.parallel_map ~jobs
    (fun (label, sender) ->
      ( label,
        Experiments.Runner.multipath_throughput ~seed ~duration:30. ~epsilon:0.
          ~sender () ))
    [ Experiments.Variants.tcp_pr; Experiments.Variants.tcp_sack ]
  |> List.iter (fun (label, mbps) ->
         Printf.printf "  %-10s %6.2f Mb/s\n" label mbps)

let scale seed csv flows_list duration variant domains cells check_merge =
  let sender =
    match Experiments.Variants.find variant with
    | Some v -> v
    | None ->
      Printf.eprintf "unknown variant %S\n" variant;
      exit 2
  in
  match (domains, check_merge) with
  | None, false ->
    let table =
      Stats.Table.create
        ~columns:
          [ "flows"; "transfers"; "goodput Mb/s"; "events"; "timer ops";
            "events/s"; "timer ops/s"; "wall s" ]
    in
    let run_one flows =
      let t0 = Unix.gettimeofday () in
      let r = Experiments.Scale.run ~seed ~sender ~duration ~flows () in
      let wall = Unix.gettimeofday () -. t0 in
      let ops = Experiments.Scale.timer_ops r in
      let per_sec n = Printf.sprintf "%.0f" (float_of_int n /. wall) in
      Stats.Table.add_row table
        [ string_of_int flows;
          Printf.sprintf "%d/%d" r.Experiments.Scale.transfers_completed
            r.Experiments.Scale.transfers_started;
          Printf.sprintf "%.1f" r.Experiments.Scale.goodput_mbps;
          string_of_int r.Experiments.Scale.events_executed;
          string_of_int ops;
          per_sec r.Experiments.Scale.events_executed;
          per_sec ops;
          Printf.sprintf "%.2f" wall ]
    in
    List.iter run_one flows_list;
    render ~csv table
  | _ ->
    (* Sharded path: partitioned topology on a Sharded_engine.
       [--check-merge] additionally arms the per-cell invariant
       monitors, repeats each point at --domains 1 and requires the
       merged probe digests to be byte-identical. *)
    let domains = Option.value domains ~default:2 in
    let table =
      Stats.Table.create
        ~columns:
          [ "flows"; "domains"; "transfers"; "goodput Mb/s"; "events";
            "messages"; "windows"; "events/s"; "wall s" ]
    in
    let failures = ref 0 in
    let add_row (r : Experiments.Scale_sharded.result) ~wall =
      let per_sec n = Printf.sprintf "%.0f" (float_of_int n /. wall) in
      Stats.Table.add_row table
        [ string_of_int r.Experiments.Scale_sharded.flows;
          string_of_int r.Experiments.Scale_sharded.domains;
          Printf.sprintf "%d/%d"
            r.Experiments.Scale_sharded.transfers_completed
            r.Experiments.Scale_sharded.transfers_started;
          Printf.sprintf "%.1f" r.Experiments.Scale_sharded.goodput_mbps;
          string_of_int r.Experiments.Scale_sharded.events_executed;
          string_of_int r.Experiments.Scale_sharded.messages;
          string_of_int r.Experiments.Scale_sharded.windows;
          per_sec r.Experiments.Scale_sharded.events_executed;
          Printf.sprintf "%.2f" wall ]
    in
    let run_sharded flows =
      let monitors = ref [] in
      let probe_hook =
        if check_merge then
          Some
            (fun ~cell:_ probe ->
              let ms =
                Check.Monitor.for_variant ~variant
                  ~config:Experiments.Scale.default_config
              in
              Check.Monitor.arm probe ms;
              monitors := ms @ !monitors)
        else None
      in
      let t0 = Unix.gettimeofday () in
      let r =
        Experiments.Scale_sharded.run ~seed ~sender ~duration ~cells
          ~record:check_merge ?probe_hook ~domains ~flows ()
      in
      let wall = Unix.gettimeofday () -. t0 in
      add_row r ~wall;
      if check_merge then begin
        let viols = Check.Monitor.all_violations !monitors in
        if viols <> [] then begin
          incr failures;
          Printf.printf "%d monitor violation(s) at %d flows:\n"
            (List.length viols) flows;
          List.iteri
            (fun i v ->
              if i < 5 then
                Format.printf "  %a@." Check.Monitor.pp_violation v)
            viols
        end;
        let t0 = Unix.gettimeofday () in
        let base =
          Experiments.Scale_sharded.run ~seed ~sender ~duration ~cells
            ~record:true ~domains:1 ~flows ()
        in
        let wall = Unix.gettimeofday () -. t0 in
        add_row base ~wall;
        let same_digest =
          r.Experiments.Scale_sharded.merged_digest
          = base.Experiments.Scale_sharded.merged_digest
        in
        let same_counts =
          r.Experiments.Scale_sharded.transfers_completed
            = base.Experiments.Scale_sharded.transfers_completed
          && r.Experiments.Scale_sharded.segments_completed
             = base.Experiments.Scale_sharded.segments_completed
          && r.Experiments.Scale_sharded.events_executed
             = base.Experiments.Scale_sharded.events_executed
        in
        if same_digest && same_counts then
          Printf.printf
            "merge check at %d flows: --domains %d == --domains 1 (digest \
             %s)\n"
            flows domains
            (Option.value r.Experiments.Scale_sharded.merged_digest
               ~default:"-")
        else begin
          incr failures;
          Printf.printf
            "merge check FAILED at %d flows: --domains %d digest %s vs \
             --domains 1 digest %s\n"
            flows domains
            (Option.value r.Experiments.Scale_sharded.merged_digest
               ~default:"-")
            (Option.value base.Experiments.Scale_sharded.merged_digest
               ~default:"-")
        end
      end
    in
    List.iter run_sharded flows_list;
    render ~csv table;
    if !failures > 0 then exit 1

let cmd_of name ~doc term =
  Cmd.v (Cmd.info name ~doc) term

let fig2_cmd =
  cmd_of "fig2" ~doc:"Reproduce Fig. 2 (fairness vs number of flows)."
    Term.(
      const fig2 $ seed_term $ quick_term $ csv_term $ jobs_term
      $ topologies_term)

let fig3_cmd =
  cmd_of "fig3" ~doc:"Reproduce Fig. 3 (CoV vs loss rate)."
    Term.(
      const fig3 $ seed_term $ quick_term $ csv_term $ jobs_term
      $ topologies_term)

let fig4_cmd =
  let flows =
    Arg.(
      value
      & opt (some int) None
      & info [ "flows" ] ~docv:"N" ~doc:"Flows per protocol (paper: 32).")
  in
  cmd_of "fig4" ~doc:"Reproduce Fig. 4 (alpha/beta parameter grid)."
    Term.(
      const fig4 $ seed_term $ quick_term $ csv_term $ jobs_term $ flows
      $ topologies_term)

let fig6_cmd =
  let extended =
    Arg.(
      value & flag
      & info [ "extended" ]
          ~doc:"Also run Eifel, TCP-DOOR and RACK (beyond the paper).")
  in
  cmd_of "fig6" ~doc:"Reproduce Fig. 6 (multi-path routing sweep)."
    Term.(
      const fig6 $ seed_term $ quick_term $ csv_term $ jobs_term $ extended)

let flaps_cmd =
  cmd_of "flaps" ~doc:"Route-flap reordering scenario (extension)."
    Term.(const flaps $ seed_term $ quick_term $ jobs_term)

let jitter_cmd =
  cmd_of "jitter" ~doc:"Delay-jitter reordering sweep (extension)."
    Term.(const jitter $ seed_term $ quick_term $ jobs_term)

let hoststack_cmd =
  cmd_of "hoststack"
    ~doc:
      "Host-stack realism sweep: finite receive buffer, rwnd autotuning, \
       GRO coalescing (extension)."
    Term.(const hoststack $ seed_term $ quick_term $ jobs_term)

let adversary_cmd =
  let target =
    Arg.(
      value & opt float 0.05
      & info [ "target" ] ~docv:"DENSITY"
          ~doc:
            "Target measured reordering density (late arrivals / arrivals) \
             in (0, 1).")
  in
  let tolerance =
    Arg.(
      value & opt float 0.1
      & info [ "tolerance" ] ~docv:"FRACTION"
          ~doc:
            "Relative tolerance on the final held density; exit 1 if any \
             variant misses it.")
  in
  let variants =
    Arg.(
      value & opt_all string []
      & info [ "variant" ] ~docv:"NAME"
          ~doc:"Restrict to this sender variant (repeatable; default all).")
  in
  cmd_of "adversary"
    ~doc:
      "Adaptive adversary: closed-loop epsilon tuning to hold a target \
       measured reordering density against every sender variant \
       (extension)."
    Term.(
      const adversary $ seed_term $ quick_term $ jobs_term $ target
      $ tolerance $ variants)

let manet_cmd =
  cmd_of "manet" ~doc:"Mobile ad-hoc network scenario (paper future work)."
    Term.(const manet $ seed_term $ quick_term $ jobs_term)

let ablate_cmd =
  let which =
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"WHICH"
          ~doc:"newton | snapshot | memorize | beta | beta-fairness | all")
  in
  cmd_of "ablate" ~doc:"Run the TCP-PR design-choice ablations."
    Term.(const ablate $ seed_term $ quick_term $ jobs_term $ which)

let check_cmd =
  let seeds =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Run $(docv) generated scenarios (seeds SEED..SEED+N-1); 0 skips \
             the differential harness.")
  in
  let variants =
    Arg.(
      value & opt_all string []
      & info [ "variant" ] ~docv:"NAME"
          ~doc:"Restrict to this sender variant (repeatable; default all).")
  in
  let golden =
    Arg.(
      value
      & opt (some dir) None
      & info [ "golden" ] ~docv:"DIR"
          ~doc:"Verify golden trace digests stored in $(docv).")
  in
  let write_golden =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-golden" ] ~docv:"DIR"
          ~doc:"Recompute golden traces and digests into $(docv).")
  in
  cmd_of "check"
    ~doc:
      "Conformance oracle: differential torture scenarios with invariant \
       monitors, plus golden-trace verification."
    Term.(
      const check $ seed_term $ seeds $ jobs_term $ variants $ golden
      $ write_golden)

let report_cmd =
  let scenario_conv =
    let parse s =
      match Check.Report.scenario_of_string s with
      | Some scenario -> Ok scenario
      | None -> Error (`Msg (Printf.sprintf "unknown scenario %S" s))
    in
    let print ppf s =
      Format.pp_print_string ppf (Check.Report.scenario_name s)
    in
    Arg.conv (parse, print)
  in
  let scenario =
    Arg.(
      value
      & opt scenario_conv Check.Report.Dumbbell
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario: dumbbell, lattice or jitter-chain.")
  in
  let variants =
    Arg.(
      value & opt_all string []
      & info [ "variant" ] ~docv:"NAME"
          ~doc:
            "Report on this sender variant (repeatable; default TCP-PR and \
             TCP-SACK).")
  in
  let tail =
    Arg.(
      value & opt int 0
      & info [ "tail" ] ~docv:"N"
          ~doc:"Also render the last $(docv) probe events per variant.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv).")
  in
  cmd_of "report"
    ~doc:
      "Metrics snapshot: run a fixed-seed scenario per variant and print \
       every registry metric (byte-identical for any --jobs)."
    Term.(
      const report $ seed_term $ jobs_term $ csv_term $ scenario $ variants
      $ tail $ out)

let scale_cmd =
  let flows =
    Arg.(
      value
      & opt_all positive_int [ 1000; 5000; 10000 ]
      & info [ "flows" ] ~docv:"N"
          ~doc:"Concurrent flow slots (repeatable; default 1000 5000 10000).")
  in
  let duration =
    Arg.(
      value & opt positive_seconds 2.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated seconds per run.")
  in
  let variant =
    Arg.(
      value & opt string "TCP-PR"
      & info [ "variant" ] ~docv:"NAME" ~doc:"Sender variant (default TCP-PR).")
  in
  let domains =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Run the shard-partitioned scenario on $(docv) domains \
             (Sim.Sharded_engine). Omitted: the classic single-engine \
             scenario. --domains 1 runs the partitioned topology on the \
             plain serial engine — the differential baseline.")
  in
  let cells =
    Arg.(
      value
      & opt positive_int Experiments.Scale_sharded.default_cells
      & info [ "cells" ] ~docv:"N"
          ~doc:"Partition cells for the sharded scenario (default 8).")
  in
  let check_merge =
    Arg.(
      value & flag
      & info [ "check-merge" ]
          ~doc:
            "Arm the per-cell invariant monitors, rerun each point at \
             --domains 1, and require byte-identical merged probe digests; \
             exit 1 on any violation or mismatch. Implies --domains 2 when \
             --domains is omitted.")
  in
  cmd_of "scale"
    ~doc:
      "Many-flow churn scenario: closed-loop transfers at 1k-10k concurrent \
       flows, reporting events/sec and timer ops/sec; --domains runs the \
       shard-partitioned variant."
    Term.(
      const scale $ seed_term $ csv_term $ flows $ duration $ variant
      $ domains $ cells $ check_merge)

let demo_cmd =
  cmd_of "demo" ~doc:"Two-minute tour: fairness and reordering robustness."
    Term.(const demo $ seed_term $ jobs_term)

(* TCP_PR_LOG=debug turns on per-packet connection tracing. *)
let setup_logging () =
  match Sys.getenv_opt "TCP_PR_LOG" with
  | Some level -> (
    Logs.set_reporter (Logs.format_reporter ());
    match String.lowercase_ascii level with
    | "debug" -> Logs.set_level (Some Logs.Debug)
    | "info" -> Logs.set_level (Some Logs.Info)
    | _ -> Logs.set_level (Some Logs.Warning))
  | None -> ()

let () =
  setup_logging ();
  let doc = "TCP-PR (ICDCS 2003) reproduction driver" in
  let info = Cmd.info "tcp_pr_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ fig2_cmd; fig3_cmd; fig4_cmd; fig6_cmd; flaps_cmd; jitter_cmd;
            hoststack_cmd; adversary_cmd; manet_cmd; ablate_cmd; check_cmd;
            report_cmd; scale_cmd; demo_cmd ]))
