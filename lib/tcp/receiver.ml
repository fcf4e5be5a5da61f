type disposition =
  | Ack_now of Types.ack
  | Defer of Types.ack
  | Drop of Types.ack

(* [recent] (sequence numbers of recent out-of-order arrivals, most
   recent first, ordering SACK blocks by recency as RFC 2018 requires)
   is self-pruning: building the SACK list truncates it to the seqs
   contributing the (at most [max_sack_blocks]) reported blocks, and
   every arrival builds the list. So it lives in a tiny fixed array —
   the old [int list] re-filtered per arrival allocated a fresh list
   for every out-of-order packet. *)
let recent_cap = Types.max_sack_blocks + 1

type t = {
  mutable config : Config.t;
  mutable rcv_next : int;
  out_of_order : Interval_buf.t;
  recent : int array;
  mutable recent_len : int;
  (* Scratch for SACK-block assembly, reused across arrivals. *)
  block_first : int array;
  block_last : int array;
  mutable duplicates : int;
  (* Delayed ACKs: true while one in-order segment is awaiting
     acknowledgement. *)
  mutable ack_deferred : bool;
  (* Generation counter stamped on every acknowledgement (TCP-DOOR's
     ACK duplication sequence number). *)
  mutable serial : int;
  (* How far ahead of [rcv_next] each out-of-order arrival landed — the
     reordering depth actually seen by this sink. *)
  reorder_depth : Obs.Metrics.Histogram.t;
  (* Streaming RFC 4737 metrics over the admitted arrival stream:
     extent, late-offset density, n-reordering. Always on — integer
     state only, within the per-packet allocation budget. *)
  reorder : Obs.Reorder.t;
  (* Finite receive socket buffer — [None] (the default) is the paper's
     idealised unbounded sink and keeps every path below byte-identical
     to the seed. *)
  mutable buf : Rcv_buffer.t option;
  (* [true] = the application reads in-order data the instant it
     arrives (no [rcv_app_rate]); in-order bytes then never occupy the
     buffer. *)
  mutable app_instant : bool;
  (* A zero window has been advertised and no later data-driven
     acknowledgement has reopened it; the app-drain timer keeps
     re-announcing the window while this is set, so a lost window
     update cannot deadlock the flow. *)
  mutable zero_window_advertised : bool;
}

(* Returns [t] to its initial state under [config], in place, keeping
   the reassembly arrays and histograms (cleared). A configured socket
   buffer is rebuilt: it is host-stack state, off by default. *)
let reset t config =
  Config.validate config;
  t.config <- config;
  t.rcv_next <- 0;
  Interval_buf.clear t.out_of_order;
  t.recent_len <- 0;
  t.duplicates <- 0;
  t.ack_deferred <- false;
  t.serial <- 0;
  Obs.Metrics.Histogram.reset t.reorder_depth;
  Obs.Reorder.reset t.reorder;
  t.buf <-
    (match config.Config.rcv_buf_segments with
    | None -> None
    | Some capacity_segments ->
      Some
        (Rcv_buffer.create ~mss:config.Config.mss ~capacity_segments
           ~max_segments:config.Config.rcv_buf_max_segments
           ~autotune:config.Config.rcv_autotune));
  t.app_instant <- config.Config.rcv_app_rate = None;
  t.zero_window_advertised <- false

let create config =
  let t =
    { config;
      rcv_next = 0;
      out_of_order = Interval_buf.create ();
      recent = Array.make recent_cap 0;
      recent_len = 0;
      block_first = Array.make Types.max_sack_blocks 0;
      block_last = Array.make Types.max_sack_blocks 0;
      duplicates = 0;
      ack_deferred = false;
      serial = 0;
      reorder_depth = Obs.Metrics.Histogram.create ();
      reorder = Obs.Reorder.create ();
      buf = None;
      app_instant = true;
      zero_window_advertised = false }
  in
  reset t config;
  t

let rcv_next t = t.rcv_next

let in_order_segments t = t.rcv_next

let duplicates t = t.duplicates

let buffered t = Interval_buf.cardinal t.out_of_order

let reorder_depth t = t.reorder_depth

let reorder t = t.reorder

let buffer t = t.buf

let buf_drops t = match t.buf with Some b -> Rcv_buffer.drops b | None -> 0

let zero_windows t =
  match t.buf with Some b -> Rcv_buffer.zero_windows b | None -> 0

(* Up to [max_sack_blocks] blocks: the block containing the most recent
   arrival first, then blocks containing earlier arrivals, without
   repeats. Stale entries (already cumulatively acked or merged) are
   pruned as a side effect; entries beyond the block limit are dropped
   with them, keeping [recent] within its fixed capacity. *)
let sack_blocks t =
  let nb = ref 0 in
  let kept = ref 0 in
  let i = ref 0 in
  while !i < t.recent_len && !nb < Types.max_sack_blocks do
    let seq = t.recent.(!i) in
    let idx = Interval_buf.find t.out_of_order seq in
    if idx >= 0 then begin
      let first = Interval_buf.first t.out_of_order idx in
      let last = Interval_buf.last t.out_of_order idx in
      let dup = ref false in
      for j = 0 to !nb - 1 do
        if t.block_first.(j) = first && t.block_last.(j) = last then
          dup := true
      done;
      if not !dup then begin
        t.block_first.(!nb) <- first;
        t.block_last.(!nb) <- last;
        incr nb;
        t.recent.(!kept) <- seq;
        incr kept
      end
    end;
    incr i
  done;
  t.recent_len <- !kept;
  let rec build j acc =
    if j < 0 then acc
    else
      build (j - 1)
        ({ Types.first = t.block_first.(j); last = t.block_last.(j) } :: acc)
  in
  build (!nb - 1) []

(* Move [seq] to the front of [recent], dropping any existing
   occurrence ([recent_len < recent_cap] always holds here: the
   previous arrival's SACK build left at most [max_sack_blocks]
   entries). *)
let touch_recent t seq =
  let pos = ref (-1) in
  for k = 0 to t.recent_len - 1 do
    if t.recent.(k) = seq then pos := k
  done;
  let shift_from = if !pos >= 0 then !pos else t.recent_len in
  for k = shift_from downto 1 do
    t.recent.(k) <- t.recent.(k - 1)
  done;
  t.recent.(0) <- seq;
  if !pos < 0 then t.recent_len <- t.recent_len + 1

(* Advertised window for the next acknowledgement. Tracks the
   zero-window flag as a side effect: set when a zero window goes out,
   cleared once a data-driven acknowledgement reopens it. *)
let advertised_rwnd t =
  match t.buf with
  | None -> Types.rwnd_unbounded
  | Some buf ->
    let rwnd = Rcv_buffer.rwnd_segments buf in
    if rwnd = 0 then begin
      if not t.zero_window_advertised then begin
        t.zero_window_advertised <- true;
        Rcv_buffer.note_zero_window buf
      end
    end
    else t.zero_window_advertised <- false;
    rwnd

let receive t ?(retx = false) ?(now = 0.) ~seq () =
  assert (seq >= 0);
  let buffered_before = not (Interval_buf.is_empty t.out_of_order) in
  let duplicate = seq < t.rcv_next || Interval_buf.mem t.out_of_order seq in
  let in_order = (not duplicate) && seq = t.rcv_next in
  (* Socket-buffer admission. Duplicates occupy no new memory;
     everything else must find room (out-of-order data only below the
     pressure threshold). With the buffer disabled this is one match on
     an immediate [None]. *)
  let admitted =
    match t.buf with
    | None -> true
    | Some buf ->
      if duplicate then true
      else if in_order then Rcv_buffer.admit_in_order buf
      else Rcv_buffer.admit_out_of_order buf
  in
  if not admitted then begin
    (* Dropped at the socket: acknowledge the arrival without
       advancing, advertising whatever window remains — the sender's
       cue to slow down rather than a silent loss. [for_seq = -1]: the
       segment was NOT accepted, so this acknowledgement is "for"
       nothing — a sender acknowledging packets individually by
       [for_seq] (TCP-PR) must not take it as delivery, and the
       timestamp-echo consumers (RACK, Eifel) must not sample it. *)
    let serial = t.serial in
    t.serial <- serial + 1;
    t.ack_deferred <- false;
    Drop
      { Types.next = t.rcv_next;
        sacks = sack_blocks t;
        dsack = None;
        for_seq = -1;
        for_retx = false;
        serial;
        rwnd = advertised_rwnd t }
  end
  else begin
    (* RFC 4737 evaluation of the admitted arrival: duplicates are
       counted once and not re-evaluated; a retransmitted hole filler
       arrives with [seq < next_exp] and counts as a LATE arrival for
       density, not as a fresh reordering event — the [retx] echo makes
       the distinction (see Obs.Reorder). *)
    if duplicate then Obs.Reorder.observe_duplicate t.reorder
    else Obs.Reorder.observe t.reorder ~retx ~seq ();
    if duplicate then t.duplicates <- t.duplicates + 1
    else if in_order then begin
      t.rcv_next <- t.rcv_next + 1;
      (* Drain any out-of-order run that is now contiguous. *)
      let idx = Interval_buf.find t.out_of_order t.rcv_next in
      if idx >= 0 then t.rcv_next <- Interval_buf.last t.out_of_order idx + 1;
      Interval_buf.remove_below t.out_of_order t.rcv_next;
      match t.buf with
      | None -> ()
      | Some buf ->
        let delivered = t.rcv_next - seq in
        (* The hole-plugging segment was admitted as in-order; the run
           behind it moves from parked to readable. *)
        Rcv_buffer.promote buf ~segments:(delivered - 1);
        Rcv_buffer.on_delivered buf ~now
          ~bytes:(delivered * t.config.Config.mss);
        if t.app_instant then
          Rcv_buffer.app_read buf ~segments:(Rcv_buffer.unread_segments buf)
    end
    else begin
      (* Neither a duplicate nor [rcv_next] itself, so the depth is
         strictly positive — the histogram must never see the
         underflow bucket from this site. *)
      let depth = seq - t.rcv_next in
      assert (depth > 0);
      Obs.Metrics.Histogram.record t.reorder_depth depth;
      Interval_buf.add t.out_of_order seq;
      touch_recent t seq
    end;
    let dsack =
      if duplicate then Some { Types.first = seq; last = seq } else None
    in
    let serial = t.serial in
    t.serial <- serial + 1;
    let ack =
      { Types.next = t.rcv_next;
        sacks = sack_blocks t;
        dsack;
        for_seq = seq;
        for_retx = retx;
        serial;
        rwnd = advertised_rwnd t }
    in
    (* RFC 1122/5681: only a lone, in-order, non-hole-filling segment may
       have its acknowledgement deferred; everything else — duplicates,
       gaps, arrivals draining the buffer, or a second in-order segment —
       is acknowledged at once. *)
    if
      t.config.Config.delayed_ack && in_order && (not buffered_before)
      && ack.Types.sacks = []
      && not t.ack_deferred
    then begin
      t.ack_deferred <- true;
      Defer ack
    end
    else begin
      t.ack_deferred <- false;
      Ack_now ack
    end
  end

let on_data t ?retx ?now ~seq () =
  match receive t ?retx ?now ~seq () with
  | Ack_now ack | Defer ack | Drop ack -> ack

(* --- application-drain hooks (enabled mode only) -------------------- *)

let needs_drain t =
  match t.buf with
  | None -> false
  | Some buf -> Rcv_buffer.unread_segments buf > 0 || t.zero_window_advertised

let app_drain t =
  match t.buf with
  | None -> ()
  | Some buf ->
    if Rcv_buffer.unread_segments buf > 0 then
      Rcv_buffer.app_read buf ~segments:1

(* Reopen announcement: a fresh acknowledgement carrying the current
   window, emitted by the app-drain timer while a zero window stands.
   [for_seq = -1] lies outside every sender's active span, so no
   variant mistakes it for a data acknowledgement; the fresh [serial]
   keeps sink-side emission strictly increasing for the conservation
   monitor. The flag deliberately stays set — only a data arrival
   clears it — so announcements repeat until the sender audibly
   resumes, making the reopen robust to ACK loss. *)
(* Called by the connection on app-drain ticks after the transfer has
   completed: once the application has read everything out of the
   socket, the standing zero-window flag is dropped so the reopen
   announcements — and with them the drain timer — wind down. While a
   transfer is live the flag survives an empty buffer deliberately:
   only a data arrival proves the sender heard a reopen. *)
let quiesce t =
  match t.buf with
  | None -> ()
  | Some buf ->
    if Rcv_buffer.used_bytes buf = 0 then t.zero_window_advertised <- false

let window_update t =
  match t.buf with
  | None -> None
  | Some buf ->
    if t.zero_window_advertised && Rcv_buffer.rwnd_segments buf > 0 then begin
      let serial = t.serial in
      t.serial <- serial + 1;
      t.ack_deferred <- false;
      Some
        { Types.next = t.rcv_next;
          sacks = [];
          dsack = None;
          for_seq = -1;
          for_retx = false;
          serial;
          rwnd = Rcv_buffer.rwnd_segments buf }
    end
    else None
