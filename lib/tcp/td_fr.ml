let name = "TD-FR"

type t = Sack_core.t

(* TD-FR as studied by Blanton–Allman: the SACK engine with loss
   declaration delayed by max(srtt / 2, DT) from the first duplicate
   ACK. (A NewReno-based variant also exists in Newreno_core, kept for
   the ablation benches.) *)
let create config =
  Sack_core.create ~response:Sack_core.plain_sack ~trigger:Sack_core.Time_delayed
    config

let reset = Sack_core.reset

let start = Sack_core.start

let on_ack = Sack_core.on_ack

let on_timer = Sack_core.on_timer

let cwnd = Sack_core.cwnd

let acked = Sack_core.acked

let finished = Sack_core.finished

let metrics = Sack_core.metrics
