(* One benchmark run of one workload, in its own process.

   main.exe --workload NAME --seed N --seconds S [--trace] [--out DIR]

   Timeline (host time on the monotonic clock). Build and slice times
   are scaled to a reference host speed by {!Perfbench.Calib}: its probe
   loop is timed around each batch of builds and between slices, and
   each time is scaled by the probes on either side. Per-call times from
   the {!Perfbench.Timing} wrappers and [host.unscaled_wall_per_sim_s]
   are not scaled.
   1. set-up: the scenario is built once, untimed;
   2. repetitions, until [--seconds] of host time have passed (at least
      two): warm up to [warmup_s] untimed, recording the observables at
      [reference_s] on the way, then run the fixed measured span
      [warmup_s, check_s] as timed [Engine.run] slices with a probe
      before, between and after them, then take the simulated digest.
      Each repetition after the first starts with a batch of timed
      builds (a full major GC before each) and runs the last one;
      [setup_s] is the median over all of them. Every repetition
      simulates the same span, so [wall_per_sim_s] is the median over
      repetitions of one well-defined quantity (the sum of its scaled
      slices); counts and allocation are read over one repetition's
      span and are exact for a seed, and [peak_heap_mb] is read after
      the first repetition, before any batch;
   3. checks: every repetition must reproduce the first one's digest;
      the library's own entry point re-runs the first [reference_s]
      seconds and must render the same observables; a traced run also
      replays its recorded receiver streams and checks the replayed
      receivers against the live ones.

   With [--trace], repetitions alternate between builds with the
   {!Perfbench.Timing} wrappers and a {!Perfbench.Replay} recorder and
   plain builds (at least one of each). Per-layer times come from the
   traced ones, allocation and engine cost per event from the plain
   ones, and [trace.overhead_frac] from both. The result is one JSON
   object on the last line of stdout; spans are written to DIR when
   [--out] is given. *)

open Perfbench

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S [--trace] [--out DIR]";
  exit 2

let parse () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and out = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: rest -> trace := true; go rest
    | "--out" :: v :: rest -> out := Some v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds when seconds > 0. ->
    { workload; seed; seconds; trace = !trace; out = !out }
  | _ -> usage ()

(* ---- spans: kept in memory, written when the run ends ---- *)

type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let spans = ref []

let next_span = ref 0

let span ~parent name f =
  let id = !next_span in
  incr next_span;
  let t0 = Clock.now_ns () in
  let r = f id in
  spans := { id; parent; name; t0; t1 = Clock.now_ns () } :: !spans;
  r

let write_spans dir file =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let oc = open_out (Filename.concat dir file) in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \
         \"end_ns\": %d}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.name s.t0 s.t1)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* ---- statistics ---- *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    List.nth sorted (rank - 1)

let median xs =
  let n = List.length xs in
  if n > 0 && n mod 2 = 0 then
    let sorted = List.sort compare xs in
    (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.
  else quantile xs 0.5

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

(* ---- counters at one simulated instant ---- *)

type snap = {
  events : int;
  arms : int;
  cancels : int;
  fires : int;
  tx : int;
  qdrops : int;
  hops : int;  (* transmissions + queue drops + injected losses *)
  busy : float array;  (* per link *)
  occupancy : int array;  (* queue-occupancy buckets, all links *)
  segments : int;
  started : int;
  completed : int;
  fct : int array;
  pool_created : int;
  pool_peak : int;
  alloc_bytes : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  acks : int;  (* sender calls and segment counts, all variants *)
  timer_calls : int;
  sends : int;
  retx : int;
  route_calls : int;
}

let links (s : Scenario.t) = Array.to_list s.networks |> List.concat_map Net.Network.links

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let snapshot (s : Scenario.t) =
  (* Flush the minor heap first: on OCaml 5 the allocation counters
     only see words a minor collection has drained. *)
  Gc.minor ();
  let alloc_bytes = Gc.allocated_bytes () in
  let minor_words, promoted_words, _ = Gc.counters () in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections in
  let engines = Array.to_list s.engines in
  let links = links s in
  let tx = sum Net.Link.transmitted_packets links in
  let qdrops = sum Net.Link.queue_drops links in
  let occupancy = Array.make Obs.Metrics.Histogram.bucket_count 0 in
  List.iter
    (fun l ->
      Array.iteri
        (fun i c -> occupancy.(i) <- occupancy.(i) + c)
        (Obs.Metrics.Histogram.buckets (Net.Link.queue_occupancy l)))
    links;
  let churn f = match s.churn with Some c -> f c | None -> 0 in
  let senders = Timing.sender_list () in
  { events = sum Sim.Engine.events_executed engines;
    arms = sum Sim.Engine.timer_arms engines;
    cancels = sum Sim.Engine.timer_cancels engines;
    fires = sum Sim.Engine.timer_fires engines;
    tx;
    qdrops;
    hops = tx + qdrops + sum Net.Link.injected_losses links;
    busy = Array.of_list (List.map Net.Link.busy_time links);
    occupancy;
    segments = s.segments ();
    started = churn Workload.Flow_churn.transfers_started;
    completed = churn Workload.Flow_churn.transfers_completed;
    fct =
      (match s.churn with
      | Some c -> Obs.Metrics.Histogram.buckets (Workload.Flow_churn.transfer_ms c)
      | None -> [||]);
    pool_created =
      sum (fun n -> Net.Packet_pool.created (Net.Network.pool n))
        (Array.to_list s.networks);
    pool_peak =
      sum (fun n -> Net.Packet_pool.peak_outstanding (Net.Network.pool n))
        (Array.to_list s.networks);
    alloc_bytes;
    minor_words;
    promoted_words;
    major_collections;
    acks = sum (fun (x : Timing.sender) -> x.acks) senders;
    timer_calls = sum (fun (x : Timing.sender) -> x.timer_calls) senders;
    sends = sum (fun (x : Timing.sender) -> x.sends) senders;
    retx = sum (fun (x : Timing.sender) -> x.retx) senders;
    route_calls = Timing.routing.calls }

(* Upper edge of the bucket holding the q-quantile of a bucket-count
   delta (log2 buckets of {!Obs.Metrics.Histogram}). *)
let bucket_quantile counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. fi total))) in
    let i = ref 0 and seen = ref counts.(0) in
    while !seen < rank do
      incr i;
      seen := !seen + counts.(!i)
    done;
    fi (Obs.Metrics.Histogram.upper_edge !i)
  end

let bucket_delta a b =
  if Array.length a = 0 then [||] else Array.mapi (fun i x -> x - a.(i)) b

(* ---- the run ---- *)

type rep = {
  traced : bool;
  observed : string;  (* observables at [reference_s] *)
  a : snap;  (* at [warmup_s] *)
  c : snap;  (* at [check_s] *)
  digest : string;
  rep_ns : float;  (* host time of the measured span *)
  scaled_ns : float;  (* the same at the reference host speed *)
  slices : float list;  (* per slice, at the reference host speed *)
  probes : float list;  (* {!Calib.probe_ns} before, between and after slices *)
}

let run args (spec : Scenario.spec) =
  (* A traced run alternates traced and untraced repetitions, starting
     traced, so [trace.overhead_frac] compares the two under the same
     host conditions. *)
  let wrap ~traced =
    if traced then Scenario.traced (Replay.create ~keep:spec.replay_keep ())
    else Scenario.plain
  in
  (* [n] timed builds, a full major GC before each. Returns every build's
     time in seconds at the reference host speed (probes before and after
     the batch) and the last build. *)
  let builds n ~traced parent =
    let p0 = Calib.probe_ns () in
    let rec go k times kept =
      if k = n then (times, Option.get kept)
      else begin
        (* [kept] is dead from here on, so the collection frees it. *)
        Gc.full_major ();
        let w = wrap ~traced in
        let t0 = Clock.now_ns () in
        let s = span ~parent "setup.build" (fun _ -> spec.build ~seed:args.seed w) in
        go (k + 1) (fi (Clock.now_ns () - t0) :: times) (Some (s, w))
      end
    in
    let times, kept = go 0 [] None in
    let probe_ns = (p0 +. Calib.probe_ns ()) /. 2. in
    (List.map (fun ns -> Calib.scale ns ~probe_ns /. 1e9) times, kept)
  in
  span ~parent:(-1) "run" @@ fun root ->
  (* 1. set-up: one build, untimed; see [per_rep] *)
  let _, (s, w) = span ~parent:root "setup" (builds 1 ~traced:args.trace) in
  let config = s.config in
  (* 2. repetitions of warmup + measured span, until --seconds *)
  let rep ~traced (s : Scenario.t) (w : Scenario.wrap) parent =
    let observed =
      span ~parent "warmup" @@ fun _ ->
      Scenario.advance s ~until:spec.reference_s;
      let observed = s.observe () in
      Scenario.advance s ~until:spec.warmup_s;
      observed
    in
    let a = snapshot s in
    let slices = ref [] and raw = ref 0. in
    let probes =
      span ~parent "measured" @@ fun measured ->
      (* Each slice is scaled by the mean of the probes on either side. *)
      let rec go i before probes =
        if i > spec.check_slices then probes
        else begin
          let until = Scenario.slice_end spec i in
          let ns =
            span ~parent:measured "run.slice" (fun _ ->
                let t0 = Clock.now_ns () in
                Scenario.advance s ~until;
                fi (Clock.now_ns () - t0))
          in
          let after = Calib.probe_ns () in
          raw := !raw +. ns;
          slices := Calib.scale ns ~probe_ns:((before +. after) /. 2.) :: !slices;
          go (i + 1) after (after :: probes)
        end
      in
      let p0 = Calib.probe_ns () in
      Timing.recording := traced;
      let probes = go 1 p0 [ p0 ] in
      Timing.recording := false;
      probes
    in
    let c = snapshot s in
    Option.iter Replay.stop w.Scenario.replay;
    { traced; observed; a; c; digest = Scenario.digest s; rep_ns = !raw;
      scaled_ns = List.fold_left ( +. ) 0. !slices; slices = !slices; probes }
  in
  (* Every later repetition starts with a batch of [per_rep] timed builds
     and runs the last one. So [setup_s] samples the whole run, not only
     its first second, and every timed build starts from the heap a
     repetition left behind (a build into a new process's heap runs up
     to a third faster, so mixing the two would make the median depend
     on how many repetitions fit). A traced run reports no [setup_s] and
     builds once. *)
  let per_rep = if args.trace then 1 else spec.setup_batch in
  let first, peak_heap_mb, later, setup_times =
    span ~parent:root "repetitions" @@ fun parent ->
    let start = Clock.now_ns () in
    let first = span ~parent "rep" (rep ~traced:args.trace s w) in
    (* Read before later repetitions and the benchmark's own
       bookkeeping can raise it: the peak of one set-up and run. *)
    let peak_heap_mb =
      fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
    in
    (* At least one more repetition, so [setup_s] has samples. *)
    let rec more k acc setups =
      let elapsed = fi (Clock.now_ns () - start) /. 1e9 in
      if elapsed >= args.seconds && k >= 2 then (List.rev acc, setups)
      else begin
        let traced = args.trace && k mod 2 = 0 in
        let times, (s, w) = span ~parent "setup" (builds per_rep ~traced) in
        more (k + 1) (span ~parent "rep" (rep ~traced s w) :: acc) (times @ setups)
      end
    in
    let later, setup_times = more 1 [] [] in
    (first, peak_heap_mb, later, setup_times)
  in
  let reps = first :: later in
  let traced_reps = List.filter (fun r -> r.traced) reps in
  let plain_reps = List.filter (fun r -> not r.traced) reps in
  (* Counts are the same in every repetition (the digests say so);
     allocation is read from an unwrapped one. *)
  let a = first.a and c = first.c and digest = first.digest in
  let gc = List.hd plain_reps in
  (* 3. checks *)
  let reference = span ~parent:root "reference" (fun _ -> spec.reference ~seed:args.seed) in
  let replay =
    Option.map
      (fun r ->
        span ~parent:root "replay" (fun _ ->
            (r, Replay.run r config ~passes:3 ~min_s:0.2)))
      w.Scenario.replay
  in
  (* ---- metrics ---- *)
  let n_reps l = fi (List.length l) in
  let rep_median l = median (List.map (fun r -> r.scaled_ns) l) in
  let plain_slices = List.concat_map (fun r -> r.slices) plain_reps in
  let plain_ns = List.fold_left ( +. ) 0. plain_slices in
  let traced_ns =
    List.fold_left (fun acc r -> acc +. r.rep_ns) 0. traced_reps
  in
  let check_span = fi spec.check_slices *. spec.slice_s in
  let wall_per_sim_s = rep_median plain_reps /. 1e9 /. check_span in
  let unscaled_wall_per_sim_s =
    median (List.map (fun r -> r.rep_ns) plain_reps) /. 1e9 /. check_span
  in
  let seg = fi (c.segments - a.segments) in
  let hops = fi (c.hops - a.hops) in
  let events = fi (c.events - a.events) in
  let accs = Timing.sender_list () in
  let all_acks = Hist.create () in
  List.iter (fun (x : Timing.sender) -> Hist.merge_into ~into:all_acks x.ack_hist) accs;
  let sender_ns = fi (List.fold_left (fun acc x -> acc + Timing.sender_ns x) 0 accs) in
  let route_ns = fi Timing.routing.route_ns in
  let max_busy =
    Array.to_list (Array.mapi (fun i b -> b -. a.busy.(i)) c.busy)
    |> List.fold_left Float.max 0.
  in
  let fct = bucket_delta a.fct c.fct in
  let replay_metrics =
    match replay with
    | None -> []
    | Some (r, res) ->
      let reorder = Obs.Reorder.create () in
      List.iter
        (fun rcv -> Obs.Reorder.merge_into ~into:reorder (Tcp.Receiver.reorder rcv))
        res.Replay.receivers;
      let dups = sum Tcp.Receiver.duplicates res.Replay.receivers in
      [ ("receiver.replay_ns_per_segment", res.Replay.ns_per_arrival);
        ("reorder.density", Obs.Reorder.density reorder);
        ( "reorder.extent_p99",
          match
            Obs.Metrics.Histogram.quantile_upper (Obs.Reorder.extent reorder) 0.99
          with
          | Some v -> fi v
          | None -> 0. );
        ("receiver.duplicates", fi dups);
        ("sender.spurious_retx_ratio", ratio (fi dups) (fi (Replay.retx_sent r))) ]
  in
  let per_variant =
    List.concat_map
      (fun (x : Timing.sender) ->
        let v = Experiments.Variants.canonical x.label in
        [ ("sender.ack_ns_p50." ^ v, Hist.quantile x.ack_hist 0.5);
          ("sender.ack_ns_p99." ^ v, Hist.quantile x.ack_hist 0.99);
          ("sender.self_share." ^ v, ratio (fi (Timing.sender_ns x)) traced_ns) ])
      accs
  in
  let metrics =
    [ ("setup_s", median setup_times);
      ("wall_per_sim_s", wall_per_sim_s);
      ("ns_per_segment", ratio (wall_per_sim_s *. 1e9) (seg /. check_span));
      ("alloc_bytes_per_hop", ratio (gc.c.alloc_bytes -. gc.a.alloc_bytes) hops);
      ("peak_heap_mb", peak_heap_mb);
      ("engine.events", events);
      ("engine.ns_per_event", ratio plain_ns (events *. n_reps plain_reps));
      ( "engine.timer_ops_per_event",
        ratio (fi (c.arms - a.arms + c.cancels - a.cancels + c.fires - a.fires)) events );
      ("engine.timer_fire_ratio", ratio (fi (c.fires - a.fires)) (fi (c.arms - a.arms)));
      ("run.slice_ms_p50", quantile plain_slices 0.5 /. 1e6);
      ("run.slice_ms_p99", quantile plain_slices 0.99 /. 1e6);
      ("host.probe_ms", median (List.concat_map (fun r -> r.probes) plain_reps) /. 1e6);
      ("host.unscaled_wall_per_sim_s", unscaled_wall_per_sim_s);
      ("sender.acks", fi (c.acks - a.acks));
      ("sender.timer_calls", fi (c.timer_calls - a.timer_calls));
      ("sender.retx_per_kseg", 1000. *. ratio (fi (c.retx - a.retx)) (fi (c.sends - a.sends)));
      ("sender.ack_ns_p50", Hist.quantile all_acks 0.5);
      ("sender.ack_ns_p99", Hist.quantile all_acks 0.99);
      ("sender.self_share", ratio sender_ns traced_ns);
      ("routing.calls", fi (c.route_calls - a.route_calls));
      ( "routing.ns_per_call",
        ratio route_ns (fi (c.route_calls - a.route_calls) *. n_reps traced_reps) );
      ("routing.self_share", ratio route_ns traced_ns);
      ( "residual.self_share",
        if args.trace then 1. -. ratio (sender_ns +. route_ns) traced_ns else 0. );
      ( "trace.overhead_frac",
        if args.trace then ratio (rep_median traced_reps) (rep_median plain_reps) -. 1.
        else 0. );
      ("link.hops_per_segment", ratio hops seg);
      ("link.bottleneck_busy_share", ratio max_busy check_span);
      ( "queue.drop_ratio",
        ratio (fi (c.qdrops - a.qdrops)) (fi (c.qdrops - a.qdrops + c.tx - a.tx)) );
      ("queue.occupancy_p99", bucket_quantile (bucket_delta a.occupancy c.occupancy) 0.99);
      ("pool.created", fi c.pool_created);
      ("pool.peak_outstanding", fi c.pool_peak);
      ("pool.created_per_khop", 1000. *. ratio (fi (c.pool_created - a.pool_created)) hops);
      ("gc.minor_words_per_hop", ratio (gc.c.minor_words -. gc.a.minor_words) hops);
      ("gc.promoted_words_per_hop", ratio (gc.c.promoted_words -. gc.a.promoted_words) hops);
      ("gc.major_collections", fi (gc.c.major_collections - gc.a.major_collections));
      ("churn.transfers_per_sim_s", fi (c.completed - a.completed) /. check_span);
      ("churn.completion_ratio", ratio (fi (c.completed - a.completed)) (fi (c.started - a.started)));
      ("churn.fct_ms_p50", if fct = [||] then 0. else bucket_quantile fct 0.5);
      ("churn.fct_ms_p99", if fct = [||] then 0. else bucket_quantile fct 0.99) ]
    @ replay_metrics @ per_variant
  in
  let checks =
    [ ("reference", first.observed = reference);
      (* Traced and untraced repetitions alike. *)
      ( "repeat",
        List.for_all (fun r -> r.observed = first.observed && r.digest = digest) later ) ]
    @ (match replay with
      | Some (_, res) -> [ ("replay", res.Replay.verified) ]
      | None -> [])
  in
  (digest, checks, metrics, List.length reps)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  let args = parse () in
  match Scenario.find args.workload with
  | None ->
    Printf.eprintf "unknown workload %s\n" args.workload;
    exit 2
  | Some spec ->
    let digest, checks, metrics, reps = run args spec in
    Option.iter
      (fun dir ->
        write_spans dir
          (Printf.sprintf "spans-%s-seed%d-trace%d.json" spec.name args.seed
             (Bool.to_int args.trace)))
      args.out;
    Printf.printf
      "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"digest\": %S, \
       \"reps\": %d, \
       \"ocaml\": %S, \"checks\": {%s}, \"metrics\": {%s}}\n"
      spec.name args.seed args.trace digest
      reps Sys.ocaml_version
      (String.concat ", "
         (List.map (fun (k, ok) -> Printf.sprintf "%S: %b" k ok) checks))
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_float v)) metrics))
