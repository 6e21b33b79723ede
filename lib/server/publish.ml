(** Lock-free snapshot publication with epoch counters (see the interface
    for the contract).

    Representation: a copy-on-write string map behind one [Atomic], one
    entry per variant ever opened.  Entries are never removed — keeping
    the entry is what lets [seq], [epoch] and the kept part of the last
    value survive session eviction.  The published cell holds the
    value {e together with} its stamp so a reader can never pair a new
    snapshot with an old stamp (or vice versa): the pair is one immutable
    allocation behind one atomic load. *)

module SMap = Map.Make (String)

type ('a, 'r) entry = {
  cell : ('a * int) option Atomic.t;  (** published (value, stamp) *)
  kept : 'r option Atomic.t;
      (** what the writer keeps of the newest value; survives [retract] *)
  seq : int Atomic.t;  (** last issued stamp; monotone *)
  epoch : int Atomic.t;  (** retract count; monotone *)
  readers : int Atomic.t;  (** threads inside [with_snapshot] *)
  touched : float Atomic.t;  (** last read-path activity (reaper input) *)
}

type ('a, 'r) t = {
  entries : ('a, 'r) entry SMap.t Atomic.t;
  keep : 'a -> 'r;  (** the part of a value its entry keeps *)
}

let create ~keep () = { entries = Atomic.make SMap.empty; keep }

let find t key = SMap.find_opt key (Atomic.get t.entries)

(* Find-or-create via CAS retry: creation races build two entries, one
   wins, the loser's allocation is garbage.  Rare (once per variant name)
   and harmless. *)
let rec entry t key =
  let m = Atomic.get t.entries in
  match SMap.find_opt key m with
  | Some e -> e
  | None ->
      let e =
        {
          cell = Atomic.make None;
          kept = Atomic.make None;
          seq = Atomic.make 0;
          epoch = Atomic.make 0;
          readers = Atomic.make 0;
          touched = Atomic.make 0.;
        }
      in
      if Atomic.compare_and_set t.entries m (SMap.add key e m) then e
      else entry t key

let read t key =
  match find t key with None -> None | Some e -> Atomic.get e.cell

let with_snapshot t key f =
  match find t key with
  | None -> None
  | Some e -> (
      Atomic.incr e.readers;
      Fun.protect
        ~finally:(fun () -> Atomic.decr e.readers)
        (fun () ->
          match Atomic.get e.cell with
          | None -> None
          | Some pair -> Some (f pair)))

let publish t key ?at build =
  let e = entry t key in
  let stamp =
    match at with
    | None -> 1 + Atomic.fetch_and_add e.seq 1
    | Some stamp ->
        (* pin the stamp to the caller's (the follower's replay thread
           pins the leader's) rather than minting one; [seq] only
           ratchets forward *)
        let rec bump () =
          let cur = Atomic.get e.seq in
          if stamp > cur && not (Atomic.compare_and_set e.seq cur stamp) then
            bump ()
        in
        bump ();
        stamp
  in
  (* single writer per key: no other thread reads [kept] or builds *)
  let v = build ~stamp (Atomic.get e.kept) in
  Atomic.set e.kept (Some (t.keep v));
  Atomic.set e.cell (Some (v, stamp));
  stamp

let retract t key =
  match find t key with
  | None -> ()
  | Some e ->
      Atomic.set e.cell None;
      Atomic.incr e.epoch

let seq t key = match find t key with None -> 0 | Some e -> Atomic.get e.seq
let epoch t key = match find t key with None -> 0 | Some e -> Atomic.get e.epoch

let readers t key =
  match find t key with None -> 0 | Some e -> Atomic.get e.readers

let touch t key ~now =
  match find t key with None -> () | Some e -> Atomic.set e.touched now

let last_touched t key =
  match find t key with None -> 0. | Some e -> Atomic.get e.touched
