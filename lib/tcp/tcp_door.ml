let name = "TCP-DOOR"

type t = Sack_core.t

let create config = Sack_core.create ~response:Sack_core.plain_sack ~door:true config

let reset = Sack_core.reset

let start = Sack_core.start

let on_ack = Sack_core.on_ack

let on_timer = Sack_core.on_timer

let cwnd = Sack_core.cwnd

let acked = Sack_core.acked

let finished = Sack_core.finished

let metrics = Sack_core.metrics
