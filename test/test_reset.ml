(* Reset equivalence: a sender or receiver driven through some history
   and then [reset] with a new configuration must be indistinguishable
   from a fresh [create] of that configuration — same actions, window,
   acknowledgements, counters and metrics after every later event. This
   is what lets a connection slot run transfer after transfer on one
   connection (Tcp.Connection.recycle).

   Each property runs program A on one instance, resets it with config′,
   then runs program B on it and on a fresh instance in lockstep. The
   configurations differ in every field a reset re-reads, so a reset
   that forgot to re-read one shows up as a divergence. *)

(* --- configurations --------------------------------------------------- *)

type config_spec = {
  total : int;  (* 0 = unbounded *)
  icwnd : int;
  rcv_buf : int;  (* 0 = unbounded sink *)
  app_rate : bool;  (* paced application reader (needs rcv_buf) *)
  alpha : int;
  beta : int;
  dupthresh : int;
  min_rto : int;
  delayed_ack : bool;
  ewrtt0 : int;
}

let config_of s =
  let rcv_buf = if s.rcv_buf = 0 then None else Some s.rcv_buf in
  { Tcp.Config.default with
    Tcp.Config.total_segments = (if s.total = 0 then None else Some s.total);
    initial_cwnd = float_of_int s.icwnd;
    rcv_buf_segments = rcv_buf;
    rcv_app_rate = (if rcv_buf <> None && s.app_rate then Some 400. else None);
    pr_alpha = 0.9 +. (0.01 *. float_of_int s.alpha);
    pr_beta = 1. +. float_of_int s.beta;
    dupthresh = s.dupthresh;
    min_rto = 0.05 *. float_of_int s.min_rto;
    initial_rto = 0.5;
    delayed_ack = s.delayed_ack;
    pr_initial_ewrtt = 0.05 *. float_of_int s.ewrtt0 }

let spec_gen =
  let open QCheck.Gen in
  int_range 0 60 >>= fun total ->
  int_range 1 4 >>= fun icwnd ->
  int_range 0 24 >>= fun rcv_buf ->
  bool >>= fun app_rate ->
  int_range 0 9 >>= fun alpha ->
  int_range 0 3 >>= fun beta ->
  int_range 1 5 >>= fun dupthresh ->
  int_range 0 10 >>= fun min_rto ->
  bool >>= fun delayed_ack ->
  int_range 1 10 >>= fun ewrtt0 ->
  return
    { total; icwnd; rcv_buf; app_rate; alpha; beta; dupthresh; min_rto;
      delayed_ack; ewrtt0 }

let pp_spec s =
  Printf.sprintf
    "{total=%d icwnd=%d rcv_buf=%d app_rate=%b alpha=%d beta=%d dupthresh=%d \
     min_rto=%d delayed_ack=%b ewrtt0=%d}"
    s.total s.icwnd s.rcv_buf s.app_rate s.alpha s.beta s.dupthresh s.min_rto
    s.delayed_ack s.ewrtt0

(* A program step: an event kind and a choice operand. Kinds are
   weighted so programs move data: deliveries and ACKs dominate, with
   some loss, timer expiries and ACK duplication. *)
let program_gen kinds =
  QCheck.Gen.(
    list_size (int_range 0 400)
      (pair (frequency (List.map (fun (w, k) -> (w, return k)) kinds))
         (int_bound 1_000)))

let pp_program p =
  String.concat ";" (List.map (fun (k, r) -> Printf.sprintf "%d:%d" k r) p)

(* --- sender harness ---------------------------------------------------- *)

(* One sender with the little network it talks to: data and ACKs in
   flight (delivered, dropped or duplicated in program order, so in any
   order the program picks), the armed timers, a real receiver and the
   clock. *)
type side = {
  sender : Tcp.Sender.packed;
  mutable receiver : Tcp.Receiver.t;
  buf : Tcp.Action_buffer.t;
  mutable data : (int * bool) list;
  mutable acks : Tcp.Types.ack list;
  mutable timers : (int * float) list;
  mutable now : float;
}

let side sender config =
  { sender;
    receiver = Tcp.Receiver.create config;
    buf = Tcp.Action_buffer.create ();
    data = [];
    acks = [];
    timers = [];
    now = 0. }

(* [reopen s config ~now] starts a new phase: fresh network and
   receiver, clock at [now]. *)
let reopen s config ~now =
  s.receiver <- Tcp.Receiver.create config;
  s.data <- [];
  s.acks <- [];
  s.timers <- [];
  s.now <- now

let take l i =
  let x = List.nth l i in
  (x, List.filteri (fun j _ -> j <> i) l)

(* [pick l r] is the head of [l] three times in four (in-order
   delivery), else the element [r] selects (reordering). *)
let pick l r = if r mod 4 <> 0 then 0 else r / 4 mod List.length l

(* Execute the actions the last event emitted and return them. *)
let perform s =
  let actions = Tcp.Action_buffer.to_list s.buf in
  Tcp.Action_buffer.clear s.buf;
  List.iter
    (function
      | Tcp.Action.Send { seq; retx } -> s.data <- s.data @ [ (seq, retx) ]
      | Tcp.Action.Set_timer { key; delay } ->
        s.timers <- (key, s.now +. delay) :: List.remove_assoc key s.timers
      | Tcp.Action.Cancel_timer { key } ->
        s.timers <- List.remove_assoc key s.timers)
    actions;
  actions

let max_wait = 100.

let step s (kind, r) =
  s.now <- s.now +. (float_of_int (r mod 7) *. 1e-3);
  (match kind with
  | 0 when s.data <> [] ->
    let (seq, retx), rest = take s.data (pick s.data r) in
    s.data <- rest;
    let ack = Tcp.Receiver.on_data s.receiver ~retx ~now:s.now ~seq () in
    s.acks <- s.acks @ [ ack ]
  | 1 when s.acks <> [] ->
    let ack, rest = take s.acks (pick s.acks r) in
    s.acks <- rest;
    Tcp.Sender.on_ack s.sender ~now:s.now ack s.buf
  | 2 when s.data <> [] -> s.data <- snd (take s.data (r mod List.length s.data))
  | 3 when s.timers <> [] ->
    let timers = List.sort compare s.timers in
    let key, deadline = List.nth timers (r mod List.length timers) in
    (* Held ACKs inflate RTT samples and with them the timers; a timer
       due more than [max_wait] ahead stays pending, so the clock
       stays finite. *)
    if deadline <= s.now +. max_wait then begin
      s.timers <- List.remove_assoc key s.timers;
      if deadline > s.now then s.now <- deadline;
      Tcp.Sender.on_timer s.sender ~now:s.now ~key s.buf
    end
  | 4 when s.acks <> [] -> s.acks <- List.nth s.acks (r mod List.length s.acks) :: s.acks
  | _ -> ());
  perform s

let sender_view s actions =
  ( actions,
    Tcp.Sender.cwnd s.sender,
    Tcp.Sender.acked s.sender,
    Tcp.Sender.finished s.sender,
    Tcp.Sender.metrics s.sender )

let start s =
  Tcp.Sender.start s.sender ~now:s.now s.buf;
  perform s

let sender_program =
  program_gen [ (6, 0); (6, 1); (2, 2); (2, 3); (1, 4) ]

let sender_prop (label, sender) =
  QCheck.Test.make ~count:500
    ~name:(label ^ ": reset = fresh create")
    (QCheck.make
       ~print:(fun (a, b, pa, pb) ->
         Printf.sprintf "config=%s config'=%s A=[%s] B=[%s]" (pp_spec a)
           (pp_spec b) (pp_program pa) (pp_program pb))
       QCheck.Gen.(quad spec_gen spec_gen sender_program sender_program))
    (fun (spec_a, spec_b, prog_a, prog_b) ->
      let config_a = config_of spec_a in
      let config_b =
        let c = config_of spec_b in
        (* A different transfer size than program A ran. *)
        if c.Tcp.Config.total_segments = config_a.Tcp.Config.total_segments
        then
          { c with
            Tcp.Config.total_segments = Some (spec_b.total + 61) }
        else c
      in
      let reused = side (Tcp.Sender.pack sender config_a) config_a in
      ignore (start reused);
      List.iter (fun ev -> ignore (step reused ev)) prog_a;
      let now = reused.now in
      Tcp.Sender.reset reused.sender config_b;
      reopen reused config_b ~now;
      let fresh = side (Tcp.Sender.pack sender config_b) config_b in
      fresh.now <- now;
      let check what a b =
        if sender_view reused a <> sender_view fresh b then
          QCheck.Test.fail_reportf "diverged at %s" what
      in
      check "start" (start reused) (start fresh);
      List.iteri
        (fun i ev ->
          let a = step reused ev in
          let b = step fresh ev in
          check (Printf.sprintf "step %d" i) a b)
        prog_b;
      true)

(* --- receiver ------------------------------------------------------------ *)

let receiver_view r =
  let reorder = Tcp.Receiver.reorder r in
  ( ( Tcp.Receiver.rcv_next r,
      Tcp.Receiver.duplicates r,
      Tcp.Receiver.buffered r,
      Tcp.Receiver.buf_drops r,
      Tcp.Receiver.zero_windows r,
      Tcp.Receiver.needs_drain r ),
    Obs.Metrics.Histogram.buckets (Tcp.Receiver.reorder_depth r),
    ( Obs.Reorder.next_exp reorder,
      Obs.Reorder.arrivals reorder,
      Obs.Reorder.reordered reorder,
      Obs.Reorder.late_retx reorder,
      Obs.Reorder.duplicates reorder,
      Obs.Reorder.extent_capped reorder ),
    ( Obs.Metrics.Histogram.buckets (Obs.Reorder.extent reorder),
      Obs.Metrics.Histogram.buckets (Obs.Reorder.late_offset reorder),
      Obs.Metrics.Histogram.buckets (Obs.Reorder.n_reordering reorder) ) )

type outcome =
  | Disposition of Tcp.Receiver.disposition
  | Update of Tcp.Types.ack option
  | Nothing

(* Most arrivals land at or just above [rcv_next] (in-order delivery
   with small holes, filling a finite buffer); the rest are arbitrary
   sequence numbers below 200 (deep reordering, duplicates) and
   retransmissions. *)
let receiver_step r now (kind, x) =
  let now = float_of_int now *. 1e-3 in
  match kind with
  | 0 ->
    Disposition
      (Tcp.Receiver.receive r ~now ~seq:(Tcp.Receiver.rcv_next r + (x mod 4)) ())
  | 1 -> Disposition (Tcp.Receiver.receive r ~now ~seq:(x mod 200) ())
  | 2 -> Disposition (Tcp.Receiver.receive r ~retx:true ~now ~seq:(x mod 200) ())
  | 3 ->
    Tcp.Receiver.app_drain r;
    Nothing
  | 4 -> Update (Tcp.Receiver.window_update r)
  | _ ->
    Tcp.Receiver.quiesce r;
    Nothing

let receiver_program =
  program_gen [ (8, 0); (2, 1); (1, 2); (3, 3); (1, 4); (1, 5) ]

let receiver_prop =
  QCheck.Test.make ~count:500 ~name:"receiver: reset = fresh create"
    (QCheck.make
       ~print:(fun (a, b, pa, pb) ->
         Printf.sprintf "config=%s config'=%s A=[%s] B=[%s]" (pp_spec a)
           (pp_spec b) (pp_program pa) (pp_program pb))
       QCheck.Gen.(quad spec_gen spec_gen receiver_program receiver_program))
    (fun (spec_a, spec_b, prog_a, prog_b) ->
      let reused = Tcp.Receiver.create (config_of spec_a) in
      List.iteri (fun i ev -> ignore (receiver_step reused i ev)) prog_a;
      let config_b = config_of spec_b in
      Tcp.Receiver.reset reused config_b;
      let fresh = Tcp.Receiver.create config_b in
      List.iteri
        (fun i ev ->
          let a = receiver_step reused i ev in
          let b = receiver_step fresh i ev in
          if a <> b || receiver_view reused <> receiver_view fresh then
            QCheck.Test.fail_reportf "diverged at step %d" i)
        prog_b;
      true)

(* --- connection ------------------------------------------------------------ *)

(* One connection over a one-pair dumbbell whose 8-packet bottleneck
   queue overflows, so transfers see loss and recovery. *)
let dumbbell () =
  Topo.Dumbbell.create (Sim.Engine.create ()) ~pairs:1
    ~bottleneck_bandwidth_bps:2e6 ~queue_capacity:8 ()

let connect d (_, sender) ~probe ~flow ~config =
  Tcp.Connection.create ~probe d.Topo.Dumbbell.network ~flow
    ~src:d.Topo.Dumbbell.sources.(0) ~dst:d.Topo.Dumbbell.sinks.(0) ~sender
    ~config
    ~route_data:(fun () -> Topo.Dumbbell.route_forward d ~pair:0)
    ~route_ack:(fun () -> Topo.Dumbbell.route_reverse d ~pair:0)
    ()

let recording () =
  let probe = Tcp.Probe.create () in
  let lines = ref [] in
  Sim.Trace.on probe (fun ev -> lines := Tcp.Probe.to_line ev :: !lines);
  (probe, lines)

let connection_view c =
  ( ( Tcp.Connection.received_segments c,
      Tcp.Connection.data_packets_sent c,
      Tcp.Connection.timer_fires c,
      Tcp.Connection.delack_timeouts c,
      Tcp.Connection.window_updates_sent c,
      Tcp.Connection.finished_at c ),
    ( Tcp.Connection.receiver_duplicates c,
      Tcp.Connection.receiver_buf_drops c,
      Tcp.Connection.receiver_zero_windows c,
      Tcp.Connection.sender_metrics c ) )

(* A connection that ran one transfer and was recycled for a second,
   under a different configuration (size, MSS, receive buffer, reader
   pace; the first transfer's slow reader forces zero windows and
   window updates), must run the second exactly as
   a fresh connection started at the same instant on an idle network:
   same probe trace, counters and metrics. Packets of the first flow
   arriving after the recycle strand. *)
let test_connection_recycle () =
  let first =
    { Tcp.Config.default with
      Tcp.Config.total_segments = Some 60;
      delayed_ack = true;
      rcv_buf_segments = Some 4;
      rcv_app_rate = Some 20. }
  in
  let second =
    { Tcp.Config.default with
      Tcp.Config.total_segments = Some 150;
      mss = 1460;
      delayed_ack = true;
      rcv_buf_segments = Some 24;
      rcv_app_rate = Some 150. }
  in
  let restart = 100. in
  List.iter
    (fun ((label, _) as variant) ->
      let d = dumbbell () in
      let engine = Net.Network.engine d.Topo.Dumbbell.network in
      let probe, reused_lines = recording () in
      let c = connect d variant ~probe ~flow:0 ~config:first in
      Tcp.Connection.start c ~at:0.;
      Sim.Engine.run engine ~until:restart;
      Alcotest.(check bool) (label ^ ": first transfer quiescent") true
        (Tcp.Connection.quiescent c);
      reused_lines := [];
      Tcp.Connection.recycle c ~flow:1 ~config:second ~on_finish:ignore;
      (* Late packets of the old flow strand at both endpoints. *)
      let late node ~from payload =
        let stranded = Net.Node.stranded node in
        Net.Node.receive node
          (Net.Network.make_packet d.Topo.Dumbbell.network ~flow:0
             ~src:(Net.Node.id from) ~dst:(Net.Node.id node) ~size:40
             ~route:[| Net.Node.id node |] ~born:restart payload);
        Alcotest.(check int) (label ^ ": late packet strands") (stranded + 1)
          (Net.Node.stranded node)
      in
      let src = d.Topo.Dumbbell.sources.(0) and dst = d.Topo.Dumbbell.sinks.(0) in
      late dst ~from:src (Tcp.Types.Data { seq = 3; retx = true });
      late src ~from:dst
        (Tcp.Types.Ack (Tcp.Receiver.on_data (Tcp.Receiver.create first) ~seq:0 ()));
      Tcp.Connection.start c ~at:restart;
      Sim.Engine.run engine ~until:(2. *. restart);
      let d' = dumbbell () in
      let probe', fresh_lines = recording () in
      let c' = connect d' variant ~probe:probe' ~flow:1 ~config:second in
      Tcp.Connection.start c' ~at:restart;
      Sim.Engine.run (Net.Network.engine d'.Topo.Dumbbell.network)
        ~until:(2. *. restart);
      Alcotest.(check bool) (label ^ ": second transfer finished") true
        (Tcp.Connection.finished c');
      Alcotest.(check (list string)) (label ^ ": probe trace")
        (List.rev !fresh_lines) (List.rev !reused_lines);
      Alcotest.(check bool) (label ^ ": counters and metrics") true
        (connection_view c = connection_view c'))
    Experiments.Variants.all

let test_recycle_rejects_busy () =
  let d = dumbbell () in
  let probe, _ = recording () in
  let config =
    { Tcp.Config.default with Tcp.Config.total_segments = Some 20 }
  in
  let c = connect d Experiments.Variants.tcp_pr ~probe ~flow:0 ~config in
  Tcp.Connection.start c ~at:0.;
  Sim.Engine.run (Net.Network.engine d.Topo.Dumbbell.network) ~until:0.05;
  Alcotest.(check bool) "mid-transfer is not quiescent" false
    (Tcp.Connection.quiescent c);
  Alcotest.check_raises "recycling a busy connection"
    (Invalid_argument "Connection.recycle: not quiescent") (fun () ->
      Tcp.Connection.recycle c ~flow:1 ~config ~on_finish:ignore)

let () =
  Alcotest.run "reset"
    [ ( "sender",
        List.map
          (fun v -> QCheck_alcotest.to_alcotest ~long:false (sender_prop v))
          Experiments.Variants.all );
      ("receiver", [ QCheck_alcotest.to_alcotest ~long:false receiver_prop ]);
      ( "connection",
        [ Alcotest.test_case "recycle = fresh create" `Quick
            test_connection_recycle;
          Alcotest.test_case "recycle rejects a busy connection" `Quick
            test_recycle_rejects_busy ] ) ]
