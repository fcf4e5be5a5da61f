(* Tests for the simulation substrate: Rng, Event_queue, Engine, Trace. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Sim.Rng.create 7 in
  let b = Sim.Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Sim.Rng.bits64 a <> Sim.Rng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_split_deterministic () =
  let mk () = Sim.Rng.split (Sim.Rng.create 7) "flows" in
  let a = mk () and b = mk () in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same child" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_split_label_matters () =
  let parent = Sim.Rng.create 7 in
  let a = Sim.Rng.split parent "x" in
  let parent2 = Sim.Rng.create 7 in
  let b = Sim.Rng.split parent2 "y" in
  Alcotest.(check bool)
    "labels give different streams" true
    (Sim.Rng.bits64 a <> Sim.Rng.bits64 b)

let test_rng_copy_independent () =
  let a = Sim.Rng.create 3 in
  let b = Sim.Rng.copy a in
  let x = Sim.Rng.bits64 a in
  let y = Sim.Rng.bits64 b in
  Alcotest.(check int64) "copy starts at same state" x y

let test_rng_float_mean () =
  let rng = Sim.Rng.create 11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Sim.Rng.float rng
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 13 in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Sim.Rng.exponential rng ~mean:2.5
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 2.5" true (abs_float (mean -. 2.5) < 0.1)

let test_rng_choose_weighted () =
  let rng = Sim.Rng.create 17 in
  let counts = [| 0; 0; 0 |] in
  let weights = [| 0.7; 0.2; 0.1 |] in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Sim.Rng.choose rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i w ->
      let observed = float_of_int counts.(i) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "weight %d respected" i)
        true
        (abs_float (observed -. w) < 0.02))
    weights

let test_rng_shuffle_permutation () =
  let rng = Sim.Rng.create 19 in
  let a = Array.init 50 Fun.id in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let rng_props =
  [ QCheck.Test.make ~name:"float in [0,1)" ~count:1000
      QCheck.(pair small_int unit)
      (fun (seed, ()) ->
        let rng = Sim.Rng.create seed in
        let x = Sim.Rng.float rng in
        x >= 0. && x < 1.);
    QCheck.Test.make ~name:"int below bound" ~count:1000
      QCheck.(pair small_int (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let rng = Sim.Rng.create seed in
        let x = Sim.Rng.int rng bound in
        x >= 0 && x < bound) ]

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

(* The queue orders on caller-drawn ranks; these tests draw them the
   way the engine does, from one monotone counter per queue. *)
let push_all q times_and_payloads =
  List.iteri
    (fun seq (time, payload) -> Sim.Event_queue.push_seq q ~time ~seq payload)
    times_and_payloads

let drain queue =
  let rec loop acc =
    if Sim.Event_queue.head queue then begin
      let time = Sim.Event_queue.head_time queue in
      let payload = Sim.Event_queue.pop_head queue in
      loop ((time, payload) :: acc)
    end
    else List.rev acc
  in
  loop []

let test_queue_orders_by_time () =
  let q = Sim.Event_queue.create () in
  push_all q [ (3, "c"); (1, "a"); (2, "b") ];
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "a"); (2, "b"); (3, "c") ] (drain q)

let test_queue_fifo_on_ties () =
  let q = Sim.Event_queue.create () in
  push_all q [ (1, "first"); (1, "second"); (1, "third") ];
  Alcotest.(check (list string))
    "insertion order" [ "first"; "second"; "third" ]
    (List.map snd (drain q))

let test_queue_peek () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool) "empty" false (Sim.Event_queue.head q);
  push_all q [ (5, "x"); (7, "y") ];
  Alcotest.(check bool) "non-empty" true (Sim.Event_queue.head q);
  Alcotest.(check int) "earliest" 5 (Sim.Event_queue.head_time q);
  Alcotest.(check int) "earliest rank" 0 (Sim.Event_queue.head_seq q);
  Alcotest.(check string) "pop" "x" (Sim.Event_queue.pop_head q);
  Alcotest.(check int) "next" 7 (Sim.Event_queue.head_time q)

(* Model-based qcheck tests: the heap must agree with a naive sorted
   association list under arbitrary interleavings of push / pop /
   peek. Times are drawn from a small set so ties (and the FIFO
   tie-break) are exercised constantly. *)

type queue_op = Push of Sim.Time.t | Pop | Peek

let op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun t -> Push t) (int_bound 7));
        (3, return Pop);
        (1, return Peek) ])

let op_print = function
  | Push t -> Printf.sprintf "Push %d" t
  | Pop -> "Pop"
  | Peek -> "Peek"

let ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_print ops))
    QCheck.Gen.(list_size (int_bound 200) op_gen)

(* The model: a list of (time, seq) kept sorted by (time, seq); seq is
   the push index and doubles as the payload. *)
let model_agrees ops =
  let q = Sim.Event_queue.create () in
  let model = ref [] in
  let push_count = ref 0 in
  let insert (t, s) =
    let rec go = function
      | [] -> [ (t, s) ]
      | (t', s') :: _ as rest when t < t' || (t = t' && s < s') ->
        (t, s) :: rest
      | entry :: rest -> entry :: go rest
    in
    model := go !model
  in
  let ok = ref true in
  let check b = if not b then ok := false in
  let pop_both () =
    match (Sim.Event_queue.head q, !model) with
    | false, [] -> ()
    | true, (t', s') :: rest ->
      check (Sim.Event_queue.head_time q = t');
      check (Sim.Event_queue.head_seq q = s');
      check (Sim.Event_queue.pop_head q = s');
      model := rest
    | true, [] | false, _ :: _ -> check false
  in
  List.iter
    (fun op ->
      (match op with
      | Push time ->
        let seq = !push_count in
        Sim.Event_queue.push_seq q ~time ~seq seq;
        insert (time, seq);
        incr push_count
      | Pop -> pop_both ()
      | Peek -> (
        match !model with
        | [] -> check (not (Sim.Event_queue.head q))
        | (t, _) :: _ ->
          check (Sim.Event_queue.head q && Sim.Event_queue.head_time q = t)));
      check (Sim.Event_queue.length q = List.length !model))
    ops;
  (* drain: remaining events must come out in exact model order *)
  while !model <> [] do
    pop_both ()
  done;
  check (not (Sim.Event_queue.head q));
  !ok

let queue_props =
  [ QCheck.Test.make ~name:"heap agrees with naive sorted-list model"
      ~count:500 ops_arbitrary model_agrees;
    QCheck.Test.make ~name:"pop returns times sorted" ~count:300
      QCheck.(list (int_bound 1000))
      (fun times ->
        let q = Sim.Event_queue.create () in
        push_all q (List.map (fun t -> (t, ())) times);
        let popped = List.map fst (drain q) in
        popped = List.sort compare popped);
    QCheck.Test.make ~name:"length = pushes - pops" ~count:300
      QCheck.(list (pair (int_bound 100) bool))
      (fun entries ->
        let q = Sim.Event_queue.create () in
        let popped = ref 0 in
        List.iteri
          (fun seq (time, pop) ->
            Sim.Event_queue.push_seq q ~time ~seq ();
            if pop then begin
              Sim.Event_queue.pop_head q;
              incr popped
            end)
          entries;
        Sim.Event_queue.length q = List.length entries - !popped) ]

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_order () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note label () = log := label :: !log in
  Sim.Engine.schedule_at engine ~time:2. (note "b");
  Sim.Engine.schedule_at engine ~time:1. (note "a");
  Sim.Engine.schedule_at engine ~time:3. (note "c");
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_clock_advances () =
  let engine = Sim.Engine.create () in
  let seen = ref [] in
  Sim.Engine.schedule_at engine ~time:1.5 (fun () ->
      seen := Sim.Engine.now engine :: !seen);
  Sim.Engine.schedule_after engine ~delay:0.5 (fun () ->
      seen := Sim.Engine.now engine :: !seen);
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list (float 1e-12))) "clock at event times" [ 1.5; 0.5 ]
    !seen

let test_engine_run_until () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  Sim.Engine.schedule_at engine ~time:1. (fun () -> incr fired);
  Sim.Engine.schedule_at engine ~time:5. (fun () -> incr fired);
  Sim.Engine.run engine ~until:2.;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock at until" 2. (Sim.Engine.now engine);
  Sim.Engine.run engine ~until:10.;
  Alcotest.(check int) "second fired" 2 !fired

(* Construction rejects the removed heap-timer mode and every timer
   granularity the wheel cannot use, instead of substituting a default. *)
let test_engine_rejects_heap_timers () =
  Alcotest.check_raises "use_wheel:false rejected"
    (Invalid_argument
       "Engine.create: ~use_wheel:false (the heap-timer mode) was removed; \
        timers always ride the wheel") (fun () ->
      ignore (Sim.Engine.create ~use_wheel:false ()))

let test_engine_rejects_nonpositive_granularity () =
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Engine.create: timer_granularity 0 is not positive")
    (fun () -> ignore (Sim.Engine.create ~timer_granularity:0. ()));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Engine.create: timer_granularity -0.001 is not positive")
    (fun () -> ignore (Sim.Engine.create ~timer_granularity:(-1e-3) ()))

let test_engine_rejects_nan_granularity () =
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Engine.create: timer_granularity nan is not positive")
    (fun () -> ignore (Sim.Engine.create ~timer_granularity:Float.nan ()))

let test_engine_rejects_subns_granularity () =
  Alcotest.check_raises "sub-nanosecond rejected"
    (Invalid_argument "Engine.create: timer_granularity 4e-10 rounds to 0 ns")
    (fun () -> ignore (Sim.Engine.create ~timer_granularity:4e-10 ()));
  (* The smallest usable slot, one nanosecond, is accepted. *)
  ignore (Sim.Engine.create ~timer_granularity:1e-9 ())

let test_engine_rejects_past () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule_at engine ~time:5. (fun () -> ());
  Sim.Engine.run_to_completion engine;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.schedule_at: time 1 is before now 5") (fun () ->
      Sim.Engine.schedule_at engine ~time:1. (fun () -> ()))

let test_engine_nested_scheduling () =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.schedule_at engine ~time:1. (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule_after engine ~delay:1. (fun () ->
          log := "inner" :: !log));
  Sim.Engine.run_to_completion engine;
  Alcotest.(check (list string)) "nested order" [ "outer"; "inner" ]
    (List.rev !log);
  check_float "final clock" 2. (Sim.Engine.now engine)

let test_engine_pending () =
  let engine = Sim.Engine.create () in
  Sim.Engine.schedule_at engine ~time:1. (fun () -> ());
  Sim.Engine.schedule_at engine ~time:2. (fun () -> ());
  Alcotest.(check int) "two pending" 2 (Sim.Engine.pending engine);
  Sim.Engine.run engine ~until:1.5;
  Alcotest.(check int) "one pending" 1 (Sim.Engine.pending engine)

(* ------------------------------------------------------------------ *)
(* Timer_wheel                                                         *)
(* ------------------------------------------------------------------ *)

let ns = Sim.Time.of_sec

let wheel_drain w ~up_to =
  let acc = ref [] in
  while Sim.Timer_wheel.due w ~up_to do
    let time = Sim.Timer_wheel.head_time w in
    let seq = Sim.Timer_wheel.head_seq w in
    let payload = Sim.Timer_wheel.pop_due w in
    acc := (time, seq, payload) :: !acc
  done;
  List.rev !acc

let test_wheel_orders_by_key () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  (* Two entries land in the same level-0 slot (same millisecond tick):
     the mini-heap must still surface them in exact (time, seq) order. *)
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.5) ~seq:3 "d");
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.0102) ~seq:2 "c");
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.0101) ~seq:1 "b");
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.0101) ~seq:0 "a");
  Alcotest.(check (list (triple int int string)))
    "exact key order"
    [ (ns 0.0101, 0, "a"); (ns 0.0101, 1, "b"); (ns 0.0102, 2, "c");
      (ns 0.5, 3, "d") ]
    (wheel_drain w ~up_to:(ns 1.))

let test_wheel_due_respects_horizon () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.25) ~seq:0 "x");
  Alcotest.(check bool) "not due early" false
    (Sim.Timer_wheel.due w ~up_to:(ns 0.2));
  Alcotest.(check bool) "due at its time" true
    (Sim.Timer_wheel.due w ~up_to:(ns 0.25));
  Alcotest.(check string) "payload" "x" (Sim.Timer_wheel.pop_due w);
  Alcotest.(check bool) "empty after pop" false
    (Sim.Timer_wheel.due w ~up_to:(ns 10.))

let test_wheel_cancel () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.1) ~seq:0 "keep1");
  let idx = Sim.Timer_wheel.arm w ~time:(ns 0.2) ~seq:1 "drop" in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.3) ~seq:2 "keep2");
  Sim.Timer_wheel.cancel w idx ~seq:1;
  (* A stale (idx, seq) pair must be a no-op, not a wild cancel. *)
  Sim.Timer_wheel.cancel w idx ~seq:1;
  Sim.Timer_wheel.cancel w idx ~seq:99;
  Alcotest.(check int) "live excludes cancelled" 2 (Sim.Timer_wheel.live w);
  Alcotest.(check (list string))
    "cancelled skipped" [ "keep1"; "keep2" ]
    (List.map (fun (_, _, p) -> p) (wheel_drain w ~up_to:(ns 1.)))

let test_wheel_arm_below_cursor () =
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 1.0) ~seq:0 "later");
  Alcotest.(check bool) "cursor advanced" false
    (Sim.Timer_wheel.due w ~up_to:(ns 0.5));
  (* Arming below the cursor is legal and immediately due. *)
  ignore (Sim.Timer_wheel.arm w ~time:(ns 0.25) ~seq:1 "past");
  Alcotest.(check (list (triple int int string)))
    "past entry surfaces first"
    [ (ns 0.25, 1, "past"); (ns 1.0, 0, "later") ]
    (wheel_drain w ~up_to:(ns 2.))

let test_wheel_distant_deadline () =
  (* Beyond the top level's span (2^20 ms ≈ 1048.6 s) entries wrap and
     are re-filed each revolution; they must still fire exactly once at
     the right time. *)
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  ignore (Sim.Timer_wheel.arm w ~time:(ns 5000.) ~seq:0 "far");
  Alcotest.(check bool) "not due after one span" false
    (Sim.Timer_wheel.due w ~up_to:(ns 2000.));
  Alcotest.(check bool) "not due just before" false
    (Sim.Timer_wheel.due w ~up_to:(ns 4999.));
  Alcotest.(check (list (triple int int string)))
    "fires once at its time"
    [ (ns 5000., 0, "far") ]
    (wheel_drain w ~up_to:(ns 6000.))

let test_wheel_physical_bound () =
  (* The lattice RTO pattern: every packet arms a timer ~1 s out and
     cancels it moments later. Lazy sweeping must keep physical usage
     O(live), not O(churn). *)
  let w = Sim.Timer_wheel.create ~granularity:(ns 1e-3) () in
  let live_target = 100 in
  for i = 0 to live_target - 1 do
    ignore (Sim.Timer_wheel.arm w ~time:(ns (100. +. float_of_int i)) ~seq:i "live")
  done;
  for k = 0 to 9_999 do
    let seq = live_target + k in
    let now = 0.001 *. float_of_int k in
    let idx = Sim.Timer_wheel.arm w ~time:(ns (now +. 1.)) ~seq "churn" in
    Sim.Timer_wheel.cancel w idx ~seq
  done;
  Alcotest.(check int) "live survivors" live_target (Sim.Timer_wheel.live w);
  let physical = Sim.Timer_wheel.physical w in
  Alcotest.(check bool)
    (Printf.sprintf "physical %d is O(live)" physical)
    true
    (physical <= (2 * live_target) + 16)

(* Model-based churn property: the wheel must agree with a sorted-list
   reference under arbitrary interleavings of arm / cancel / horizon
   advance. Times are drawn in units of half a tick so entries
   constantly straddle slot boundaries and share slots. *)

type wheel_op =
  | Warm of int  (* arm at now + k half-ticks *)
  | Wcancel of int  (* cancel the k-th arm so far, mod count *)
  | Wadvance of int  (* advance the horizon by k half-ticks and drain *)

let wheel_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun k -> Warm k) (int_bound 64));
        (3, map (fun k -> Wcancel k) (int_bound 50));
        (2, map (fun k -> Wadvance k) (int_bound 600)) ])

let wheel_op_print = function
  | Warm k -> Printf.sprintf "Warm %d" k
  | Wcancel k -> Printf.sprintf "Wcancel %d" k
  | Wadvance k -> Printf.sprintf "Wadvance %d" k

let wheel_ops_arbitrary =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map wheel_op_print ops))
    QCheck.Gen.(list_size (int_bound 200) wheel_op_gen)

let wheel_model_agrees ops =
  let granularity = ns 1e-3 in
  let half_tick = granularity / 2 in
  let w = Sim.Timer_wheel.create ~granularity () in
  (* Reference: (time, seq) sorted assoc list, seq = arm index. *)
  let model = ref [] in
  let armed = ref [||] in
  let arm_count = ref 0 in
  let now = ref 0 in
  let ok = ref true in
  let check b = if not b then ok := false in
  let insert (t, s) =
    let rec go = function
      | [] -> [ (t, s) ]
      | (t', s') :: _ as rest when t < t' || (t = t' && s < s') ->
        (t, s) :: rest
      | entry :: rest -> entry :: go rest
    in
    model := go !model
  in
  let drain_due up_to =
    while Sim.Timer_wheel.due w ~up_to do
      let time = Sim.Timer_wheel.head_time w in
      let seq = Sim.Timer_wheel.head_seq w in
      let payload = Sim.Timer_wheel.pop_due w in
      (match !model with
      | (t', s') :: rest ->
        check (time = t' && seq = s' && payload = s');
        model := rest
      | [] -> check false);
      check (time <= up_to)
    done;
    (* Everything due by [up_to] must have surfaced. *)
    match !model with
    | (t', _) :: _ -> check (t' > up_to)
    | [] -> ()
  in
  List.iter
    (fun op ->
      (match op with
      | Warm k ->
        let seq = !arm_count in
        let time = !now + (half_tick * k) in
        let idx = Sim.Timer_wheel.arm w ~time ~seq seq in
        armed := Array.append !armed [| (idx, seq) |];
        insert (time, seq);
        incr arm_count
      | Wcancel k ->
        if !arm_count > 0 then begin
          let idx, seq = !armed.((k mod !arm_count)) in
          Sim.Timer_wheel.cancel w idx ~seq;
          model := List.filter (fun (_, s) -> s <> seq) !model
        end
      | Wadvance k ->
        now := !now + (half_tick * k);
        drain_due !now);
      check (Sim.Timer_wheel.live w = List.length !model);
      (* The physical-usage invariant from the interface. *)
      check
        (Sim.Timer_wheel.physical w <= (2 * Sim.Timer_wheel.live w) + 16))
    ops;
  (* Entries are armed at most 32 ticks past [now], so a finite final
     horizon well past that drains everything. *)
  drain_due (!now + ns 10.);
  check (!model = []);
  !ok

let wheel_props =
  [ QCheck.Test.make ~name:"wheel agrees with sorted-list model" ~count:300
      wheel_ops_arbitrary wheel_model_agrees ]

(* ------------------------------------------------------------------ *)
(* Engine timer cells and the reference agenda                        *)
(* ------------------------------------------------------------------ *)

let test_timer_cell_lifecycle () =
  let engine = Sim.Engine.create () in
  let fired = ref 0 in
  let tm = Sim.Engine.make_timer engine (Sim.Engine.Closure (fun () -> incr fired)) in
  Alcotest.(check bool) "starts unarmed" false (Sim.Engine.timer_armed tm);
  Sim.Engine.arm_timer engine tm ~delay:1.;
  Alcotest.(check bool) "armed" true (Sim.Engine.timer_armed tm);
  Sim.Engine.cancel_timer engine tm;
  Alcotest.(check bool) "disarmed" false (Sim.Engine.timer_armed tm);
  Sim.Engine.run engine ~until:5.;
  Alcotest.(check int) "cancelled never fires" 0 !fired;
  Sim.Engine.arm_timer engine tm ~delay:1.;
  (* Rearming replaces the pending armament: only the later one fires. *)
  Sim.Engine.arm_timer engine tm ~delay:2.;
  Sim.Engine.run engine ~until:20.;
  Alcotest.(check int) "rearm fires once" 1 !fired;
  Alcotest.(check bool) "unarmed after firing" false
    (Sim.Engine.timer_armed tm);
  Alcotest.(check int) "arms counted" 3 (Sim.Engine.timer_arms engine);
  (* cancel_timer plus the implicit cancel of the replaced armament. *)
  Alcotest.(check int) "cancels counted" 2 (Sim.Engine.timer_cancels engine);
  Alcotest.(check int) "fires counted" 1 (Sim.Engine.timer_fires engine)

let test_timer_rearm_from_own_handler () =
  (* The RTO pattern: the handler rearms its own cell. The cell must
     read unarmed inside the handler and the rearm must take effect —
     this is the regression test for the timer-slot refactor. *)
  let engine = Sim.Engine.create () in
  let fires = ref [] in
  let armed_inside = ref [] in
  let cell = ref None in
  let handler () =
    let tm = Option.get !cell in
    armed_inside := Sim.Engine.timer_armed tm :: !armed_inside;
    fires := Sim.Engine.now engine :: !fires;
    if List.length !fires < 3 then Sim.Engine.arm_timer engine tm ~delay:0.5
  in
  let tm = Sim.Engine.make_timer engine (Sim.Engine.Closure handler) in
  cell := Some tm;
  Sim.Engine.arm_timer engine tm ~delay:0.5;
  Sim.Engine.run engine ~until:10.;
  Alcotest.(check (list (float 1e-12)))
    "fires at each rearm" [ 0.5; 1.0; 1.5 ] (List.rev !fires);
  Alcotest.(check (list bool))
    "reads unarmed inside handler" [ false; false; false ] !armed_inside

let test_timer_subtick_times_exact () =
  (* Wheel slots quantise placement, never the key: timers due inside
     one slot fire at their exact times, in seq order on ties. *)
  let engine = Sim.Engine.create ~timer_granularity:1e-3 () in
  let log = ref [] in
  let mk label delay =
    let tm =
      Sim.Engine.make_timer engine
        (Sim.Engine.Closure
           (fun () -> log := (label, Sim.Engine.now engine) :: !log))
    in
    Sim.Engine.arm_timer engine tm ~delay
  in
  mk "b" 0.0007;
  mk "a" 0.0005;
  mk "c" 0.0007;
  Sim.Engine.run engine ~until:1.;
  Alcotest.(check (list (pair string (float 1e-12))))
    "exact sub-tick times, seq order on ties"
    [ ("a", 0.0005); ("b", 0.0007); ("c", 0.0007) ]
    (List.rev !log)

(* Differential harness: a program of one-shot closures and
   self-rearming timer cells must execute on the engine exactly as on a
   sorted-list (time, seq) reference agenda — times, interleaving and
   counters. A cell's handler may also cancel another cell: with equal
   delays the victim is due at the same instant, one rank behind the
   canceller, so the cancel lands on the wheel's due head. *)

type timer_spec = {
  delay : float;  (* seconds between armaments *)
  repeats : int;  (* rearms after the first fire *)
  cancels : int option;  (* cell this one's handler cancels *)
}

let program_horizon = 100.

let run_engine_program ~oneshots ~timers =
  let engine = Sim.Engine.create () in
  let log = ref [] in
  let note label = log := (label, Sim.Engine.now engine) :: !log in
  List.iteri
    (fun i time ->
      Sim.Engine.schedule_at engine ~time (fun () -> note (1000 + i)))
    oneshots;
  let cells = Array.make (List.length timers) None in
  let cell i = Option.get cells.(i) in
  List.iteri
    (fun i spec ->
      let remaining = ref spec.repeats in
      let handler () =
        note i;
        Option.iter
          (fun j -> Sim.Engine.cancel_timer engine (cell j))
          spec.cancels;
        if !remaining > 0 then begin
          decr remaining;
          Sim.Engine.arm_timer engine (cell i) ~delay:spec.delay
        end
      in
      cells.(i) <-
        Some (Sim.Engine.make_timer engine (Sim.Engine.Closure handler));
      Sim.Engine.arm_timer engine (cell i) ~delay:spec.delay)
    timers;
  Sim.Engine.run engine ~until:program_horizon;
  ( List.rev !log,
    Sim.Engine.events_executed engine,
    Sim.Engine.timer_fires engine )

type agenda_entry = Oneshot of int | Fire of int

(* The reference: one agenda sorted by (time, seq), ranks drawn in the
   engine's order, cancellation by removal. *)
let run_reference_program ~oneshots ~timers =
  let timers = Array.of_list timers in
  let agenda = ref [] in
  let next_seq = ref 0 in
  let now = ref 0 in
  let add time entry =
    let seq = !next_seq in
    incr next_seq;
    agenda := List.merge compare !agenda [ (time, seq, entry) ];
    seq
  in
  let armed = Array.make (Array.length timers) None in
  let remaining = Array.map (fun spec -> spec.repeats) timers in
  let arm i =
    let time = Sim.Time.add !now (Sim.Time.of_sec_delay timers.(i).delay) in
    armed.(i) <- Some (add time (Fire i))
  in
  let cancel i =
    Option.iter
      (fun seq -> agenda := List.filter (fun (_, s, _) -> s <> seq) !agenda)
      armed.(i);
    armed.(i) <- None
  in
  List.iteri
    (fun i time -> ignore (add (Sim.Time.of_sec time) (Oneshot i)))
    oneshots;
  Array.iteri (fun i _ -> arm i) timers;
  let log = ref [] and executed = ref 0 and fires = ref 0 in
  let until = Sim.Time.of_sec program_horizon in
  let rec loop () =
    match !agenda with
    | (time, _, entry) :: rest when time <= until ->
      agenda := rest;
      now := time;
      incr executed;
      (match entry with
      | Oneshot i -> log := (1000 + i, Sim.Time.to_sec time) :: !log
      | Fire i ->
        armed.(i) <- None;
        incr fires;
        log := (i, Sim.Time.to_sec time) :: !log;
        Option.iter cancel timers.(i).cancels;
        if remaining.(i) > 0 then begin
          remaining.(i) <- remaining.(i) - 1;
          arm i
        end);
      loop ()
    | _ -> ()
  in
  loop ();
  (List.rev !log, !executed, !fires)

let test_engine_matches_reference () =
  let oneshots = [ 0.1; 0.25; 0.25; 3.7; 50. ] in
  let spec ?cancels delay repeats = { delay; repeats; cancels } in
  (* Cell 1 and cell 4 are both due at 0.5 s, cell 4 one rank behind:
     cell 1's handler cancels it at the due head. *)
  let timers =
    [ spec 0.25 3; spec ~cancels:4 0.5 2; spec 1e-4 5; spec 40. 1;
      spec 0.5 2 ]
  in
  let trace, executed, fires = run_engine_program ~oneshots ~timers in
  let ref_trace, ref_executed, ref_fires =
    run_reference_program ~oneshots ~timers
  in
  Alcotest.(check (list (pair int (float 0.))))
    "identical traces" ref_trace trace;
  Alcotest.(check int) "identical event counts" ref_executed executed;
  Alcotest.(check int) "identical fire counts" ref_fires fires;
  Alcotest.(check bool) "cancelled at the due head, never fires" true
    (List.for_all (fun (label, _) -> label <> 4) trace)

let program_arbitrary =
  let open QCheck.Gen in
  let spec n =
    map3
      (fun delay repeats cancels -> { delay; repeats; cancels })
      (* Half the delays sit on a coarse grid, so cells collide on
         the same instant and a cancel can hit the due head. *)
      (oneof
         [ float_range 1e-4 2.;
           map (fun k -> 0.25 *. float_of_int k) (int_range 1 4) ])
      (int_bound 4)
      (opt (int_bound (n - 1)))
  in
  let timers =
    int_bound 6 >>= fun n -> if n = 0 then return [] else list_repeat n (spec n)
  in
  let print (oneshots, timers) =
    Printf.sprintf "oneshots=[%s] timers=[%s]"
      (String.concat "; " (List.map string_of_float oneshots))
      (String.concat "; "
         (List.map
            (fun s ->
              Printf.sprintf "%g x%d%s" s.delay s.repeats
                (match s.cancels with
                | Some j -> Printf.sprintf " cancels %d" j
                | None -> ""))
            timers))
  in
  QCheck.make ~print
    (pair (list_size (int_bound 20) (float_bound_exclusive 10.)) timers)

let engine_reference_props =
  [ QCheck.Test.make ~name:"engine agrees with reference agenda" ~count:200
      program_arbitrary (fun (oneshots, timers) ->
        run_engine_program ~oneshots ~timers
        = run_reference_program ~oneshots ~timers) ]

(* ------------------------------------------------------------------ *)
(* Integer-nanosecond time core                                        *)
(* ------------------------------------------------------------------ *)

(* Every time the engine can produce is an integer nanosecond below
   2^50 (see DESIGN.md §15): the float boundary must round-trip
   exactly, or a handler that reads the clock in seconds and schedules
   an event at that same time would land on a different nanosecond. *)
let ns_roundtrip_prop =
  QCheck.Test.make ~name:"of_sec (to_sec ns) = ns below 2^50" ~count:10_000
    QCheck.(
      map
        (fun (hi, lo) -> (hi lsl 25) lor lo)
        (pair (int_bound ((1 lsl 25) - 1)) (int_bound ((1 lsl 25) - 1))))
    (fun ns -> Sim.Time.of_sec (Sim.Time.to_sec ns) = ns)

(* The int-keyed heap must pop in exactly the order the float-keyed
   heap it replaced would have: sort by (seconds, push serial). Exact
   conversion makes float comparison of engine-producible times agree
   with int comparison; small times force constant tie-breaking. *)
let heap_float_order_prop =
  QCheck.Test.make ~name:"int heap pops in frozen float-heap order"
    ~count:300
    QCheck.(
      list (oneof [ int_bound 50; int_bound 1_000_000_000 ]))
    (fun times_ns ->
      let q = Sim.Event_queue.create () in
      push_all q (List.mapi (fun i t -> (t, i)) times_ns);
      let popped = drain q in
      let model =
        List.mapi (fun i t -> (Sim.Time.to_sec t, i, t)) times_ns
        |> List.stable_sort (fun (a, i, _) (b, j, _) ->
               if a < b then -1 else if a > b then 1 else compare i j)
        |> List.map (fun (_, i, t) -> (t, i))
      in
      popped = model)

(* The float-era tick computation the wheel replaced, frozen verbatim:
   truncate, then nudge down if float rounding overshot the slot start,
   then nudge up if it undershot. *)
let float_tick_of ~granularity time =
  let k = int_of_float (time /. granularity) in
  let k = if float_of_int k *. granularity > time then k - 1 else k in
  if float_of_int (k + 1) *. granularity <= time then k + 1 else k

(* Off a granularity boundary the integer tick [t / g] agrees with the
   float-era computation everywhere. *At* an exact boundary [k * g] the
   int tick is exactly [k], while the float version can round
   [float k *. g] above [time] and settle on [k - 1] — the one-ulp
   skew the integer core removes. The property pins both behaviours. *)
let wheel_tick_prop =
  QCheck.Test.make
    ~name:"wheel tick vs float-era tick at granularity boundaries"
    ~count:5_000
    QCheck.(
      triple
        (oneofl [ 1e-3; 1e-4; 2.5e-4; 1e-2; 7e-3; 1.25e-5 ])
        (int_bound 1_100_000)
        (oneofl [ -1; 0; 1 ]))
    (fun (g_sec, k, delta) ->
      let g_ns = Sim.Time.of_sec g_sec in
      let t_ns = (k * g_ns) + delta in
      QCheck.assume (t_ns >= 0);
      let int_tick = t_ns / g_ns in
      let float_tick =
        float_tick_of ~granularity:g_sec (Sim.Time.to_sec t_ns)
      in
      if t_ns mod g_ns = 0 then
        float_tick = int_tick || float_tick = int_tick - 1
      else float_tick = int_tick)

let ns_time_props = [ ns_roundtrip_prop; heap_float_order_prop; wheel_tick_prop ]

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* Handlers are stored most-recent-first internally; emit must still
   run them in registration order. *)
let test_trace_tap_ordering () =
  let tap = Sim.Trace.tap () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.Trace.on tap (fun v -> log := (i, v) :: !log)
  done;
  Sim.Trace.emit tap "x";
  Alcotest.(check (list (pair int string)))
    "registration order"
    [ (1, "x"); (2, "x"); (3, "x"); (4, "x"); (5, "x") ]
    (List.rev !log)

let test_trace_tap_armed () =
  let tap = Sim.Trace.tap () in
  Alcotest.(check bool) "unarmed when empty" false (Sim.Trace.armed tap);
  Sim.Trace.on tap ignore;
  Alcotest.(check bool) "armed after subscribe" true (Sim.Trace.armed tap)

let test_trace_counters () =
  let trace = Sim.Trace.create () in
  Sim.Trace.incr trace "drops";
  Sim.Trace.incr trace "drops";
  Sim.Trace.add trace "bytes" 1500.;
  check_float "incr accumulates" 2. (Sim.Trace.get trace "drops");
  check_float "add accumulates" 1500. (Sim.Trace.get trace "bytes");
  check_float "missing is zero" 0. (Sim.Trace.get trace "nope");
  Alcotest.(check (list (pair string (float 0.))))
    "sorted listing"
    [ ("bytes", 1500.); ("drops", 2.) ]
    (Sim.Trace.to_list trace);
  Sim.Trace.reset trace;
  check_float "reset" 0. (Sim.Trace.get trace "drops")

let () =
  Alcotest.run "sim"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick
            test_rng_seed_changes_stream;
          Alcotest.test_case "split deterministic" `Quick
            test_rng_split_deterministic;
          Alcotest.test_case "split label matters" `Quick
            test_rng_split_label_matters;
          Alcotest.test_case "copy" `Quick test_rng_copy_independent;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "choose weighted" `Quick test_rng_choose_weighted;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) rng_props );
      ( "event-queue",
        [ Alcotest.test_case "orders by time" `Quick test_queue_orders_by_time;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_on_ties;
          Alcotest.test_case "peek" `Quick test_queue_peek ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) queue_props );
      ( "engine",
        [ Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "rejects heap timers" `Quick
            test_engine_rejects_heap_timers;
          Alcotest.test_case "rejects non-positive granularity" `Quick
            test_engine_rejects_nonpositive_granularity;
          Alcotest.test_case "rejects NaN granularity" `Quick
            test_engine_rejects_nan_granularity;
          Alcotest.test_case "rejects sub-ns granularity" `Quick
            test_engine_rejects_subns_granularity;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "pending" `Quick test_engine_pending ] );
      ( "timer-wheel",
        [ Alcotest.test_case "orders by key" `Quick test_wheel_orders_by_key;
          Alcotest.test_case "due respects horizon" `Quick
            test_wheel_due_respects_horizon;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "arm below cursor" `Quick
            test_wheel_arm_below_cursor;
          Alcotest.test_case "distant deadline" `Quick
            test_wheel_distant_deadline;
          Alcotest.test_case "physical O(live)" `Quick
            test_wheel_physical_bound ]
        @ List.map (QCheck_alcotest.to_alcotest ~long:false) wheel_props );
      ( "ns-time",
        List.map (QCheck_alcotest.to_alcotest ~long:false) ns_time_props );
      ( "engine-timers",
        [ Alcotest.test_case "cell lifecycle" `Quick test_timer_cell_lifecycle;
          Alcotest.test_case "rearm from own handler" `Quick
            test_timer_rearm_from_own_handler;
          Alcotest.test_case "sub-tick times exact" `Quick
            test_timer_subtick_times_exact;
          Alcotest.test_case "matches reference agenda" `Quick
            test_engine_matches_reference ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false)
            engine_reference_props );
      ( "trace",
        [ Alcotest.test_case "counters" `Quick test_trace_counters;
          Alcotest.test_case "tap runs in registration order" `Quick
            test_trace_tap_ordering;
          Alcotest.test_case "tap armed" `Quick test_trace_tap_armed ] ) ]
