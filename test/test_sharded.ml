(* Sharded engine substrate: the SPSC ring, the conservative-lookahead
   conductor, and the headline claim of the sharded scale scenario —
   the merged probe trace is byte-identical at any domain count, and
   the per-flow invariant monitors hold on every cell. *)

(* ------------------------------------------------------------------ *)
(* SPSC ring                                                           *)
(* ------------------------------------------------------------------ *)

(* FIFO against a Queue model: an arbitrary push/pop interleaving on
   one domain must behave exactly like an unbounded queue truncated by
   the ring's (rounded-up) capacity. *)
let ring_model_prop =
  QCheck.Test.make ~name:"ring matches queue model" ~count:300
    QCheck.(pair (int_range 1 12) (small_list bool))
    (fun (capacity, ops) ->
      let ring = Sim.Spsc_ring.create ~capacity in
      let model = Queue.create () in
      let next = ref 0 in
      List.for_all
        (fun push ->
          if push then begin
            let v = !next in
            incr next;
            let accepted = Sim.Spsc_ring.try_push ring v in
            let fits = Queue.length model < Sim.Spsc_ring.capacity ring in
            if fits then Queue.add v model;
            accepted = fits
          end
          else
            match (Sim.Spsc_ring.try_pop ring, Queue.take_opt model) with
            | Some a, Some b -> a = b
            | None, None -> true
            | _ -> false)
        ops
      && Sim.Spsc_ring.length ring = Queue.length model
      && Sim.Spsc_ring.pushed ring - Sim.Spsc_ring.popped ring
         = Queue.length model)

let test_ring_capacity_rounds_up () =
  let ring = Sim.Spsc_ring.create ~capacity:5 in
  Alcotest.(check int) "rounded to power of two" 8
    (Sim.Spsc_ring.capacity ring);
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Spsc_ring.create: capacity must be >= 1") (fun () ->
      ignore (Sim.Spsc_ring.create ~capacity:0))

let test_ring_full_and_empty () =
  let ring = Sim.Spsc_ring.create ~capacity:2 in
  Alcotest.(check bool) "empty pop" true (Sim.Spsc_ring.try_pop ring = None);
  Alcotest.(check bool) "push 1" true (Sim.Spsc_ring.try_push ring 1);
  Alcotest.(check bool) "push 2" true (Sim.Spsc_ring.try_push ring 2);
  Alcotest.(check bool) "full push refused" false
    (Sim.Spsc_ring.try_push ring 3);
  Alcotest.(check bool) "pop 1" true (Sim.Spsc_ring.try_pop ring = Some 1);
  Alcotest.(check bool) "push after pop" true (Sim.Spsc_ring.try_push ring 4);
  Alcotest.(check bool) "pop 2" true (Sim.Spsc_ring.try_pop ring = Some 2);
  Alcotest.(check bool) "pop 4" true (Sim.Spsc_ring.try_pop ring = Some 4);
  Alcotest.(check bool) "empty again" true (Sim.Spsc_ring.is_empty ring)

(* One producer domain, consumer on the main domain: every element
   arrives exactly once, in push order, across a real domain
   boundary. *)
let test_ring_cross_domain () =
  let total = 20_000 in
  let ring = Sim.Spsc_ring.create ~capacity:64 in
  let producer =
    Domain.spawn (fun () ->
        for v = 0 to total - 1 do
          while not (Sim.Spsc_ring.try_push ring v) do
            Domain.cpu_relax ()
          done
        done)
  in
  let seen = ref 0 in
  let in_order = ref true in
  while !seen < total do
    match Sim.Spsc_ring.try_pop ring with
    | Some v ->
      if v <> !seen then in_order := false;
      incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "all elements in push order" true !in_order;
  Alcotest.(check int) "pushed" total (Sim.Spsc_ring.pushed ring);
  Alcotest.(check int) "popped" total (Sim.Spsc_ring.popped ring)

(* ------------------------------------------------------------------ *)
(* Sharded engine                                                      *)
(* ------------------------------------------------------------------ *)

let test_single_domain_passthrough () =
  let sh = Sim.Sharded_engine.create ~domains:1 () in
  let engine = Sim.Sharded_engine.engine sh 0 in
  let fired = ref [] in
  List.iter
    (fun t ->
      Sim.Engine.schedule_at engine ~time:t (fun () -> fired := t :: !fired))
    [ 0.5; 0.1; 0.9 ];
  Sim.Sharded_engine.run sh ~until:1.0;
  Alcotest.(check (list (float 0.))) "events in time order" [ 0.1; 0.5; 0.9 ]
    (List.rev !fired);
  Alcotest.(check int) "no conductor windows" 0 (Sim.Sharded_engine.windows sh);
  Alcotest.(check int) "no messages" 0 (Sim.Sharded_engine.messages_sent sh);
  Alcotest.(check int) "events counted" 3
    (Sim.Sharded_engine.events_executed sh)

(* A message from shard 0 arrives on shard 1 at exactly
   [send time +. latency] — the same float a local
   [schedule_after ~delay:latency] would compute. *)
let test_cross_shard_arrival_exact () =
  let sh = Sim.Sharded_engine.create ~domains:2 () in
  let ch = Sim.Sharded_engine.channel sh ~src:0 ~dst:1 ~latency:0.01 () in
  let e0 = Sim.Sharded_engine.engine sh 0 in
  let e1 = Sim.Sharded_engine.engine sh 1 in
  let arrival = ref nan in
  Sim.Engine.schedule_at e0 ~time:0.123 (fun () ->
      Sim.Sharded_engine.send sh ch (fun () ->
          arrival := Sim.Engine.now e1));
  Sim.Sharded_engine.run sh ~until:1.0;
  Alcotest.(check bool) "arrival is exactly send +. latency" true
    (!arrival = 0.123 +. 0.01);
  Alcotest.(check int) "delivered" 1 (Sim.Sharded_engine.messages_delivered sh)

(* Ping-pong across two shards produces exactly the timestamp sequence
   of the equivalent single-engine schedule_after chain — float for
   float, since both compute now +. latency. *)
let test_ping_pong_matches_single_engine () =
  let rounds = 200 in
  let latency = 0.0125 in
  let single =
    let engine = Sim.Engine.create () in
    let times = ref [] in
    let rec bounce remaining () =
      times := Sim.Engine.now engine :: !times;
      if remaining > 1 then
        Sim.Engine.schedule_after engine ~delay:latency
          (bounce (remaining - 1))
    in
    Sim.Engine.schedule_at engine ~time:0. (bounce rounds);
    Sim.Engine.run engine ~until:10.;
    List.rev !times
  in
  let sharded =
    let sh = Sim.Sharded_engine.create ~domains:2 () in
    let fwd = Sim.Sharded_engine.channel sh ~src:0 ~dst:1 ~latency () in
    let rev = Sim.Sharded_engine.channel sh ~src:1 ~dst:0 ~latency () in
    let e0 = Sim.Sharded_engine.engine sh 0 in
    let e1 = Sim.Sharded_engine.engine sh 1 in
    (* Alternate shards: each side records its own hits; the two logs
       interleave strictly by construction. *)
    let t0 = ref [] and t1 = ref [] in
    let rec on0 remaining () =
      t0 := Sim.Engine.now e0 :: !t0;
      if remaining > 1 then
        Sim.Sharded_engine.send sh fwd (on1 (remaining - 1))
    and on1 remaining () =
      t1 := Sim.Engine.now e1 :: !t1;
      if remaining > 1 then
        Sim.Sharded_engine.send sh rev (on0 (remaining - 1))
    in
    Sim.Engine.schedule_at e0 ~time:0. (on0 rounds);
    Sim.Sharded_engine.run sh ~until:10.;
    (* Merge the two alternating logs back into hit order. *)
    let rec interleave a b =
      match (a, b) with
      | [], rest | rest, [] -> rest
      | x :: a, b -> x :: interleave b a
    in
    interleave (List.rev !t0) (List.rev !t1)
  in
  Alcotest.(check int) "same hit count" (List.length single)
    (List.length sharded);
  Alcotest.(check bool) "bit-identical timestamps" true (single = sharded)

(* Wall-clock interleaving must not leak into results: the same
   scenario run twice delivers the same messages at the same times. *)
let test_repeated_run_deterministic () =
  let run () =
    let sh = Sim.Sharded_engine.create ~domains:3 () in
    let chans =
      List.concat_map
        (fun src ->
          List.filter_map
            (fun dst ->
              if src = dst then None
              else
                Some
                  (Sim.Sharded_engine.channel sh ~src ~dst ~latency:0.004 ()))
            [ 0; 1; 2 ])
        [ 0; 1; 2 ]
    in
    let log = Array.make 3 [] in
    let rec hop shard remaining () =
      log.(shard) <- Sim.Engine.now (Sim.Sharded_engine.engine sh shard)
                     :: log.(shard);
      if remaining > 0 then begin
        let next = (shard + 1) mod 3 in
        let ch = List.nth chans ((shard * 2) + if next > shard then next - 1 else next) in
        Sim.Sharded_engine.send sh ch (hop next (remaining - 1))
      end
    in
    Sim.Engine.schedule_at (Sim.Sharded_engine.engine sh 0) ~time:0.
      (hop 0 500);
    Sim.Sharded_engine.run sh ~until:5.;
    (Array.map List.rev log, Sim.Sharded_engine.messages_delivered sh)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical logs and counts" true (a = b)

(* A far-future event must not cost one window per lookahead quantum:
   the conductor skips idle gaps to the next scheduled event. *)
let test_idle_skip () =
  let sh = Sim.Sharded_engine.create ~domains:2 () in
  ignore (Sim.Sharded_engine.channel sh ~src:0 ~dst:1 ~latency:0.001 ());
  let fired = ref false in
  Sim.Engine.schedule_at (Sim.Sharded_engine.engine sh 1) ~time:999.
    (fun () -> fired := true);
  Sim.Sharded_engine.run sh ~until:1000.;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check bool) "windows stay near-constant"
    true
    (Sim.Sharded_engine.windows sh < 10)

let test_channel_validation () =
  let sh = Sim.Sharded_engine.create ~domains:2 () in
  let expect_invalid name f =
    let raised =
      try
        f ();
        false
      with Invalid_argument _ -> true
    in
    Alcotest.(check bool) name true raised
  in
  expect_invalid "src = dst rejected" (fun () ->
      ignore (Sim.Sharded_engine.channel sh ~src:1 ~dst:1 ~latency:0.01 ()));
  expect_invalid "non-positive latency rejected" (fun () ->
      ignore (Sim.Sharded_engine.channel sh ~src:0 ~dst:1 ~latency:0. ()));
  expect_invalid "shard out of range rejected" (fun () ->
      ignore (Sim.Sharded_engine.channel sh ~src:0 ~dst:5 ~latency:0.01 ()))

let test_send_at_below_lookahead_rejected () =
  let sh = Sim.Sharded_engine.create ~domains:2 () in
  let ch = Sim.Sharded_engine.channel sh ~src:0 ~dst:1 ~latency:0.01 () in
  let raised = ref false in
  (try Sim.Sharded_engine.send_at sh ch ~time:0.005 (fun () -> ())
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "arrival inside the lookahead horizon rejected" true
    !raised

(* ------------------------------------------------------------------ *)
(* Sharded scale scenario: the headline determinism claim              *)
(* ------------------------------------------------------------------ *)

let small_run ?probe_hook ~domains ~seed () =
  Experiments.Scale_sharded.run ~seed ~domains ~flows:48 ~cells:4
    ~duration:0.6 ~record:true ?probe_hook ()

(* Byte-identical merged traces at domains 1/2/4, plus identical
   simulated counts — the oracle sweep of the issue's headline
   claim. *)
let test_merge_identical_across_domains () =
  List.iter
    (fun seed ->
      let fingerprint (r : Experiments.Scale_sharded.result) =
        ( r.Experiments.Scale_sharded.merged_digest,
          Array.to_list r.Experiments.Scale_sharded.cell_digests,
          r.Experiments.Scale_sharded.transfers_completed,
          r.Experiments.Scale_sharded.segments_completed,
          r.Experiments.Scale_sharded.events_executed )
      in
      let base = fingerprint (small_run ~domains:1 ~seed ()) in
      List.iter
        (fun domains ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: domains %d equals domains 1" seed
               domains)
            true
            (fingerprint (small_run ~domains ~seed ()) = base))
        [ 2; 4 ])
    [ 0; 1 ]

(* Same scenario, same domain count, run twice: wall-clock scheduling
   of the worker domains must not perturb anything. *)
let test_scale_sharded_repeatable () =
  let digest () =
    (small_run ~domains:2 ~seed:3 ()).Experiments.Scale_sharded.merged_digest
  in
  Alcotest.(check bool) "repeat run identical" true (digest () = digest ())

(* PR2's per-flow invariant monitors hold on every cell at any domain
   count: ordered delivery, conservation, cwnd/rto sanity, TCP-PR
   spurious-retransmission discipline. *)
let test_monitors_hold_per_cell () =
  List.iter
    (fun domains ->
      let monitors = ref [] in
      let hook ~cell:_ probe =
        let ms =
          Check.Monitor.for_variant ~variant:"TCP-PR"
            ~config:Experiments.Scale.default_config
        in
        Check.Monitor.arm probe ms;
        monitors := ms @ !monitors
      in
      ignore (small_run ~probe_hook:hook ~domains ~seed:0 ());
      Alcotest.(check int)
        (Printf.sprintf "no violations at %d domains" domains)
        0
        (List.length (Check.Monitor.all_violations !monitors)))
    [ 1; 2 ]

(* The scenario couples cells only through the shared bottleneck; its
   crossing counters must agree with the per-boundary sum. *)
let test_scale_sharded_counters_consistent () =
  let r = small_run ~domains:2 ~seed:0 () in
  Alcotest.(check bool) "crossings happened" true
    (r.Experiments.Scale_sharded.crossings > 0);
  Alcotest.(check bool) "messages delivered" true
    (r.Experiments.Scale_sharded.messages > 0);
  Alcotest.(check int) "no events left inside the horizon" 0
    (let pending_before =
       (small_run ~domains:1 ~seed:0 ()).Experiments.Scale_sharded
         .pending_at_end
     in
     r.Experiments.Scale_sharded.pending_at_end - pending_before)

(* ------------------------------------------------------------------ *)
(* Oracle scenarios are shard-count independent                        *)
(* ------------------------------------------------------------------ *)

let test_oracle_generate_domain_independent () =
  for seed = 0 to 20 do
    let base = Check.Oracle.generate ~seed () in
    let wide = Check.Oracle.generate ~domains:4 ~seed () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: realisation identical at any domain count"
         seed)
      true
      (wide = { base with Check.Oracle.domains = 4 })
  done;
  Alcotest.(check int) "default is one domain" 1
    (Check.Oracle.generate ~seed:0 ()).Check.Oracle.domains

let () =
  Alcotest.run "sharded"
    [ ( "spsc-ring",
        [ QCheck_alcotest.to_alcotest ~long:false ring_model_prop;
          Alcotest.test_case "capacity rounds up" `Quick
            test_ring_capacity_rounds_up;
          Alcotest.test_case "full and empty" `Quick test_ring_full_and_empty;
          Alcotest.test_case "cross-domain FIFO" `Quick test_ring_cross_domain ]
      );
      ( "sharded-engine",
        [ Alcotest.test_case "single domain passthrough" `Quick
            test_single_domain_passthrough;
          Alcotest.test_case "cross-shard arrival exact" `Quick
            test_cross_shard_arrival_exact;
          Alcotest.test_case "ping-pong matches single engine" `Quick
            test_ping_pong_matches_single_engine;
          Alcotest.test_case "repeated run deterministic" `Quick
            test_repeated_run_deterministic;
          Alcotest.test_case "idle skip" `Quick test_idle_skip;
          Alcotest.test_case "channel validation" `Quick
            test_channel_validation;
          Alcotest.test_case "send_at below lookahead" `Quick
            test_send_at_below_lookahead_rejected ] );
      ( "scale-sharded",
        [ Alcotest.test_case "merge identical across domains" `Quick
            test_merge_identical_across_domains;
          Alcotest.test_case "repeatable" `Quick test_scale_sharded_repeatable;
          Alcotest.test_case "monitors hold per cell" `Quick
            test_monitors_hold_per_cell;
          Alcotest.test_case "counters consistent" `Quick
            test_scale_sharded_counters_consistent ] );
      ( "oracle",
        [ Alcotest.test_case "generate domain independent" `Quick
            test_oracle_generate_domain_independent ] ) ]
