(** The decisions behind [swsd serve], apart from its command line. *)

let topology ~shards ~replicas ~replicate ~follow ~promote_from =
  if shards >= 2 then
    if replicate || follow <> None || replicas > 0 || promote_from <> None then
      Error
        "serve: --shards cannot be combined with \
         --replicate/--follow/--replicas/--promote-from (shard stores are \
         replicated individually)"
    else Ok (Some (Supervisor.Sharded shards))
  else if replicas > 0 then Ok (Some (Supervisor.Replicated replicas))
  else Ok None

let worker_flags ~no_obs ~flush_linger_ms ~flush_max_batch ~fsync_delay_ms =
  (if no_obs then [ "--no-obs" ] else [])
  @ [
      "--flush-linger-ms";
      string_of_float flush_linger_ms;
      "--flush-max-batch";
      string_of_int flush_max_batch;
    ]
  @
  if fsync_delay_ms > 0.0 then
    [ "--fsync-delay-ms"; string_of_float fsync_delay_ms ]
  else []

type writer = {
  promoted : (int * (string * (unit, string) result) list) option;
  adopted : int option;
  era : int;
  replicate : bool;
}

let writer ?io ?promote_from ~replicate ~era dir =
  let promoted =
    match promote_from with
    | None -> Ok None
    | Some src -> Result.map Option.some (Replication.promote ~src ~dst:dir ())
  in
  Result.map
    (fun promoted ->
      let floor =
        max era (match promoted with Some (e, _) -> e | None -> 0)
      in
      let stored =
        match Repository.Repo.open_dir ?io dir with
        | Ok repo -> Repository.Repo.max_era repo
        | Error _ | (exception _) -> 0
      in
      {
        promoted;
        adopted = (if stored > floor then Some stored else None);
        era = max floor stored;
        replicate = replicate || promote_from <> None;
      })
    promoted
