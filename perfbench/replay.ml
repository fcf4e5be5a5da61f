(* Receiver replay. The receiver sits inside {!Tcp.Connection} and
   cannot be wrapped from outside, so the traced run records the data
   arrival stream of chosen flows through a benchmark-owned
   {!Tcp.Probe} and later feeds it into fresh {!Tcp.Receiver}s (which
   also drive their {!Obs.Reorder} analytics), timing only that loop.

   Recording stops at [stop]: every recorded stream is then a prefix of
   its flow from the first arrival, so a replayed receiver must end in
   exactly the state the live one reported after its last recorded
   arrival — the check [verify] makes. *)

type stream = {
  mutable arrivals : int array;  (* [seq * 2 + retx] per arrival *)
  mutable len : int;
  mutable rcv_next : int;  (* live receiver's [rcv_next] after the last one *)
  mutable dups : int;
  mutable retx_sent : int;
}

type t = {
  keep : int -> bool;
  streams : (int * int, stream) Hashtbl.t;  (* (probe group, flow) *)
  mutable recording : bool;
  mutable groups : int;
}

let create ~keep () =
  { keep; streams = Hashtbl.create 64; recording = true; groups = 0 }

let stop t = t.recording <- false

let stream t key =
  match Hashtbl.find_opt t.streams key with
  | Some s -> s
  | None ->
    let s =
      { arrivals = Array.make 1024 0; len = 0; rcv_next = 0; dups = 0;
        retx_sent = 0 }
    in
    Hashtbl.replace t.streams key s;
    s

let push s v =
  if s.len = Array.length s.arrivals then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.arrivals 0 bigger 0 s.len;
    s.arrivals <- bigger
  end;
  s.arrivals.(s.len) <- v;
  s.len <- s.len + 1

(* [probe t] is a fresh tap recording the kept flows of one connection
   group (flow ids are only unique within a group). *)
let probe t =
  let group = t.groups in
  t.groups <- group + 1;
  let p = Tcp.Probe.create () in
  Sim.Trace.on p (function
    | Tcp.Probe.Data_at_sink { flow; seq; retx; dup; rcv_next_after; _ }
      when t.recording && t.keep flow ->
      let s = stream t (group, flow) in
      push s ((seq * 2) + Bool.to_int retx);
      s.rcv_next <- rcv_next_after;
      if dup then s.dups <- s.dups + 1
    | Tcp.Probe.Sent { flow; retx = true; _ } when t.recording && t.keep flow ->
      let s = stream t (group, flow) in
      s.retx_sent <- s.retx_sent + 1
    | _ -> ());
  p

let streams t =
  Hashtbl.fold (fun key s acc -> (key, s) :: acc) t.streams []
  |> List.sort compare |> List.map snd

(* One pass: a fresh receiver per stream, fed every recorded arrival.
   Returns the receivers and the host nanoseconds spent feeding them. *)
let replay_once config streams =
  let receivers = List.map (fun _ -> Tcp.Receiver.create config) streams in
  let t0 = Clock.now_ns () in
  List.iter2
    (fun r s ->
      for i = 0 to s.len - 1 do
        let v = s.arrivals.(i) in
        ignore (Tcp.Receiver.receive r ~retx:(v land 1 = 1) ~seq:(v lsr 1) ())
      done)
    receivers streams;
  (receivers, Clock.now_ns () - t0)

type result = {
  ns_per_arrival : float;  (* median over passes *)
  receivers : Tcp.Receiver.t list;
  verified : bool;
}

let verify streams receivers =
  List.for_all2
    (fun s r ->
      Tcp.Receiver.rcv_next r = s.rcv_next
      && Tcp.Receiver.duplicates r = s.dups)
    streams receivers

(* Replays every stream [passes] times (at least; more while under
   [min_s] host seconds) and reports the median pass. *)
let run t config ~passes ~min_s =
  let streams = streams t in
  let total = max 1 (List.fold_left (fun acc s -> acc + s.len) 0 streams) in
  let rec loop n spent acc =
    if n >= passes && spent >= min_s then acc
    else begin
      let receivers, ns = replay_once config streams in
      loop (n + 1) (spent +. (float_of_int ns /. 1e9)) ((ns, receivers) :: acc)
    end
  in
  let passes = loop 0 0. [] in
  let times = List.sort compare (List.map fst passes) in
  let median = List.nth times (List.length times / 2) in
  let receivers = snd (List.hd passes) in
  { ns_per_arrival = float_of_int median /. float_of_int total;
    receivers;
    verified = verify streams receivers }

let retx_sent t = List.fold_left (fun acc s -> acc + s.retx_sent) 0 (streams t)
