type ctl_outcome =
  | C_cond of { taken : bool; mispredicted : bool }
  | C_indirect of { target : int; hit : bool }
  | C_stalled

let cond_tt = C_cond { taken = true; mispredicted = true }
let cond_tf = C_cond { taken = true; mispredicted = false }
let cond_ft = C_cond { taken = false; mispredicted = true }
let cond_ff = C_cond { taken = false; mispredicted = false }

let cond ~taken ~mispredicted =
  if taken then if mispredicted then cond_tt else cond_tf
  else if mispredicted then cond_ft
  else cond_ff

type t = {
  cache_load : now:int -> int;
  cache_store : now:int -> unit;
  fetch_control : unit -> ctl_outcome;
  rollback : index:int -> unit;
}
