(* Outside-in layer timing: wrappers the benchmark puts around the
   calls it hands to the simulator, never code inside the libraries.

   - [sender] wraps a {!Tcp.Sender.S} variant in a functor that times
     [start] / [on_ack] / [on_timer] and counts the sends and
     retransmissions each call appends to the action buffer;
   - [route] wraps a caller-supplied route closure ([~route_data] /
     [~route_ack]) and times each sample.

   Timings go to sums and log-linear histograms, never one span per
   call: the workloads make tens of millions of calls. Times are
   recorded only while [recording] is set (the measured phase); the
   send/retransmission counts are always kept, so the caller can take
   exact deltas between two simulated instants. Neither wrapper reads
   or changes simulated state, which [test_wrappers.ml] pins. *)

let recording = ref false

type sender = {
  label : string;
  ack_hist : Hist.t;
  mutable ack_ns : int;
  mutable acks : int;
  mutable timer_ns : int;
  mutable timer_calls : int;
  mutable start_ns : int;
  mutable sends : int;
  mutable retx : int;
}

type routing = { mutable calls : int; mutable route_ns : int }

let senders : (string, sender) Hashtbl.t = Hashtbl.create 16

let routing = { calls = 0; route_ns = 0 }

let sender_acc label =
  match Hashtbl.find_opt senders label with
  | Some a -> a
  | None ->
    let a =
      { label;
        ack_hist = Hist.create ();
        ack_ns = 0;
        acks = 0;
        timer_ns = 0;
        timer_calls = 0;
        start_ns = 0;
        sends = 0;
        retx = 0 }
    in
    Hashtbl.replace senders label a;
    a

let count_sends a buf ~from =
  for i = from to Tcp.Action_buffer.length buf - 1 do
    let op = Tcp.Action_buffer.op buf i in
    if op = Tcp.Action_buffer.op_send then a.sends <- a.sends + 1
    else if op = Tcp.Action_buffer.op_send_retx then begin
      a.sends <- a.sends + 1;
      a.retx <- a.retx + 1
    end
  done

let sender ((label, (module M)) : Experiments.Variants.t) :
    (module Tcp.Sender.S) =
  let a = sender_acc label in
  (module struct
    include M

    let start t ~now buf =
      let from = Tcp.Action_buffer.length buf in
      let t0 = Clock.now_ns () in
      M.start t ~now buf;
      if !recording then a.start_ns <- a.start_ns + (Clock.now_ns () - t0);
      count_sends a buf ~from

    let on_ack t ~now ack buf =
      let from = Tcp.Action_buffer.length buf in
      let t0 = Clock.now_ns () in
      M.on_ack t ~now ack buf;
      if !recording then begin
        let dt = Clock.now_ns () - t0 in
        a.ack_ns <- a.ack_ns + dt;
        Hist.record a.ack_hist dt
      end;
      a.acks <- a.acks + 1;
      count_sends a buf ~from

    let on_timer t ~now ~key buf =
      let from = Tcp.Action_buffer.length buf in
      let t0 = Clock.now_ns () in
      M.on_timer t ~now ~key buf;
      if !recording then a.timer_ns <- a.timer_ns + (Clock.now_ns () - t0);
      a.timer_calls <- a.timer_calls + 1;
      count_sends a buf ~from
  end)

let route f () =
  let t0 = Clock.now_ns () in
  let r = f () in
  if !recording then routing.route_ns <- routing.route_ns + (Clock.now_ns () - t0);
  routing.calls <- routing.calls + 1;
  r

let sender_ns a = a.ack_ns + a.timer_ns + a.start_ns

(* Variants in label order, for deterministic output. *)
let sender_list () =
  Hashtbl.fold (fun _ a acc -> a :: acc) senders []
  |> List.sort (fun a b -> compare a.label b.label)
