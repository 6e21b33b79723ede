(** Injectable IO for the repository layer.

    Every syscall the durable repository performs goes through a first-class
    record of operations, so tests can substitute an in-memory filesystem
    with write-back-cache semantics and a fault injector that crashes the
    writer at any syscall.  Production code uses {!unix}.

    Durability model: data written with {!field-write}/{!field-append} is
    volatile until {!field-fsync} succeeds on the file; {!field-rename} and
    the other metadata operations are treated as immediately durable (the
    metadata-journaling behaviour of common Linux filesystems).  A file's
    directory entry is considered durable once the file has been fsync'd. *)

exception Crash
(** Raised by a {!faulty} IO at its injected crash point. *)

type t = {
  read_file : string -> string;  (** whole contents; [Sys_error] if absent *)
  write : string -> string -> unit;  (** create/truncate; NOT durable *)
  append : string -> string -> unit;  (** append, creating; NOT durable *)
  fsync : string -> unit;  (** make the file's current contents durable *)
  rename : string -> string -> unit;  (** atomic replace *)
  truncate : string -> int -> unit;  (** cut to a length, then fsync *)
  remove : string -> unit;
  file_exists : string -> bool;
  is_directory : string -> bool;  (** [false] on dangling symlinks *)
  mkdir : string -> unit;  (** one level; succeeds if it already exists *)
  readdir : string -> string list;
}

(* --- the real filesystem ------------------------------------------------- *)

(** [retry_eintr f] runs [f ()] again whenever it is interrupted by a
    signal (EINTR).  Every syscall {!unix} performs goes through this one
    loop, so a SIGCHLD/SIGALRM landing mid-write in the threaded server
    never surfaces as a spurious IO failure. *)
let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* Map the remaining Unix errors to the [Sys_error] the rest of the
   repository layer expects (EINTR never reaches this point). *)
let sys_error path = function
  | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  | e -> raise e

let with_fd path flags perm f =
  let fd = try retry_eintr (fun () -> Unix.openfile path flags perm)
           with e -> sys_error path e in
  Fun.protect
    ~finally:(fun () -> retry_eintr (fun () -> Unix.close fd))
    (fun () -> try f fd with e -> sys_error path e)

let read_all fd =
  let chunk = 65536 in
  let buf = Bytes.create chunk in
  let b = Buffer.create chunk in
  let rec go () =
    let n = retry_eintr (fun () -> Unix.read fd buf 0 chunk) in
    if n > 0 then begin
      Buffer.add_subbytes b buf 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

(* A short write (interrupted or against a full pipe of the fs cache) is
   resumed from where it stopped; EINTR before any byte is a plain retry. *)
let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      let n = retry_eintr (fun () -> Unix.write fd b off (len - off)) in
      go (off + n)
  in
  go 0

let unix : t =
  {
    read_file =
      (fun path -> with_fd path [ Unix.O_RDONLY ] 0 read_all);
    write =
      (fun path contents ->
        with_fd path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          (fun fd -> write_all fd contents));
    append =
      (fun path contents ->
        with_fd path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
          (fun fd -> write_all fd contents));
    fsync =
      (fun path ->
        with_fd path [ Unix.O_RDONLY ] 0 (fun fd ->
            retry_eintr (fun () -> Unix.fsync fd)));
    rename =
      (fun a b ->
        try retry_eintr (fun () -> Unix.rename a b) with e -> sys_error a e);
    truncate =
      (fun path len ->
        with_fd path [ Unix.O_WRONLY ] 0 (fun fd ->
            retry_eintr (fun () -> Unix.ftruncate fd len);
            retry_eintr (fun () -> Unix.fsync fd)));
    remove =
      (fun p ->
        try retry_eintr (fun () -> Unix.unlink p) with e -> sys_error p e);
    file_exists = (fun p -> retry_eintr (fun () -> Sys.file_exists p));
    is_directory =
      (fun path ->
        try retry_eintr (fun () -> Sys.is_directory path)
        with Sys_error _ -> false);
    mkdir =
      (fun path ->
        try retry_eintr (fun () -> Unix.mkdir path 0o755) with
        | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
        | e -> sys_error path e);
    readdir =
      (* sorted, so every directory listing is deterministic across
         filesystems (readdir order is arbitrary on ext4/btrfs/tmpfs) *)
      (fun path ->
        retry_eintr (fun () -> Sys.readdir path)
        |> Array.to_list |> List.sort compare);
  }

(* --- derived operations -------------------------------------------------- *)

(** [mkdir_p io dir] creates [dir] and any missing parents; tolerant of the
    directory already existing (including concurrent creation: {!field-mkdir}
    treats EEXIST as success). *)
let rec mkdir_p io dir =
  if dir = "" || dir = "." || dir = "/" || io.is_directory dir then ()
  else begin
    mkdir_p io (Filename.dirname dir);
    io.mkdir dir
  end

let tmp_suffix = ".tmp"

(** Write-to-temp, fsync, atomically rename into place.  A crash at any
    point leaves either the old contents or the new, never a mixture, and
    the new contents are durable once [atomic_write] returns. *)
let atomic_write io path contents =
  let tmp = path ^ tmp_suffix in
  io.write tmp contents;
  io.fsync tmp;
  io.rename tmp path

(* --- in-memory filesystem with write-back-cache semantics ---------------- *)

(* A file's contents: [len] bytes of [buf], or [text] alone — the string a
   write stored, or the last read's copy.  An append grows [buf] by
   doubling, so a journal appended to record by record costs amortised
   O(record), not a copy of the whole file per append.  A file value is
   only ever appended to: a write makes a new one. *)
type file = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable text : string option;  (** the contents, when known as a string *)
}

let file_of_string c = { buf = Bytes.empty; len = String.length c; text = Some c }

let contents f =
  match f.text with
  | Some c -> c
  | None ->
      let c = Bytes.sub_string f.buf 0 f.len in
      f.text <- Some c;
      c

let file_append f c =
  let n = String.length c in
  if f.len + n > Bytes.length f.buf then begin
    let buf = Bytes.create (max 64 (2 * (f.len + n))) in
    (match f.text with
    | Some t when Bytes.length f.buf < f.len -> Bytes.blit_string t 0 buf 0 f.len
    | _ -> Bytes.blit f.buf 0 buf 0 f.len);
    f.buf <- buf
  end;
  Bytes.blit_string c 0 f.buf f.len n;
  f.len <- f.len + n;
  f.text <- None

type mem = {
  files : (string, file) Hashtbl.t;  (** current (volatile) view *)
  synced : (string, file * int) Hashtbl.t;
      (** what survives a crash: the first [n] bytes of that file value,
          which appends never change *)
  dirs : (string, unit) Hashtbl.t;
}

let mem_create () =
  { files = Hashtbl.create 16; synced = Hashtbl.create 16; dirs = Hashtbl.create 4 }

let synced_text (f, n) = String.sub (contents f) 0 n

let mem_io (m : mem) : t =
  let get tbl p = Hashtbl.find_opt tbl p in
  {
    read_file =
      (fun p ->
        match get m.files p with
        | Some f -> contents f
        | None -> raise (Sys_error (p ^ ": No such file or directory")));
    write = (fun p c -> Hashtbl.replace m.files p (file_of_string c));
    append =
      (fun p c ->
        match get m.files p with
        | Some f -> file_append f c
        | None -> Hashtbl.replace m.files p (file_of_string c));
    fsync =
      (fun p ->
        match get m.files p with
        | Some f -> Hashtbl.replace m.synced p (f, f.len)
        | None -> raise (Sys_error (p ^ ": No such file or directory")));
    rename =
      (fun a b ->
        if Hashtbl.mem m.dirs a then begin
          (* directory rename: on a real filesystem this is the same single
             metadata operation as a file rename — the entries keep their
             inodes — so here every key under the old prefix moves at once *)
          let prefix = a ^ "/" in
          let plen = String.length prefix in
          let rewrite p =
            if p = a then Some b
            else if String.length p > plen && String.sub p 0 plen = prefix then
              Some (b ^ "/" ^ String.sub p plen (String.length p - plen))
            else None
          in
          let move tbl =
            let moved =
              Hashtbl.fold
                (fun p c acc ->
                  match rewrite p with
                  | Some p' -> (p, p', c) :: acc
                  | None -> acc)
                tbl []
            in
            List.iter
              (fun (p, p', c) ->
                Hashtbl.remove tbl p;
                Hashtbl.replace tbl p' c)
              moved
          in
          move m.files;
          move m.synced;
          move m.dirs
        end
        else begin
        (match get m.files a with
        | Some c ->
            Hashtbl.replace m.files b c;
            Hashtbl.remove m.files a
        | None -> raise (Sys_error (a ^ ": No such file or directory")));
        (* the rename itself is durable metadata; the content of [b] after a
           crash is whatever of inode [a] had reached the disk *)
        (match get m.synced a with
        | Some c -> Hashtbl.replace m.synced b c
        | None -> Hashtbl.remove m.synced b);
        Hashtbl.remove m.synced a
        end);
    truncate =
      (fun p len ->
        match get m.files p with
        | Some f ->
            (* a new file value (appends never shrink one), durable at once *)
            let f = file_of_string (String.sub (contents f) 0 (min len f.len)) in
            Hashtbl.replace m.files p f;
            Hashtbl.replace m.synced p (f, f.len)
        | None -> raise (Sys_error (p ^ ": No such file or directory")));
    remove =
      (fun p ->
        Hashtbl.remove m.files p;
        Hashtbl.remove m.synced p);
    file_exists = (fun p -> Hashtbl.mem m.files p || Hashtbl.mem m.dirs p);
    is_directory = (fun p -> Hashtbl.mem m.dirs p);
    mkdir = (fun p -> Hashtbl.replace m.dirs p ());
    readdir =
      (fun d ->
        let under tbl =
          Hashtbl.fold
            (fun p _ acc ->
              if Filename.dirname p = d then Filename.basename p :: acc else acc)
            tbl []
        in
        List.sort_uniq compare (under m.files @ under m.dirs));
  }

(** Simulate power loss: un-fsync'd data partially reaches the disk.  For
    each dirty file a deterministic rule keyed on [flush] decides how much
    of the pending delta survives — nothing, a torn prefix, or all of it —
    then the volatile view is reset to the survivors. *)
let mem_crash ?(flush = 0) (m : mem) =
  let keep cur syn =
    match flush mod 3 with
    | 0 -> syn
    | 2 -> Some cur
    | _ ->
        (* a torn prefix: synced part plus half of the pending delta *)
        let s = Option.value ~default:"" syn in
        let sl = String.length s and cl = String.length cur in
        if cl > sl && String.length s <= cl && String.sub cur 0 sl = s then
          Some (String.sub cur 0 (sl + ((cl - sl) / 2)))
        else if cl = 0 then Some ""
        else Some (String.sub cur 0 (cl / 2))
  in
  let survivors =
    Hashtbl.fold
      (fun p cur acc ->
        let cur = contents cur in
        let syn = Option.map synced_text (Hashtbl.find_opt m.synced p) in
        if syn = Some cur then (p, cur) :: acc
        else
          match keep cur syn with
          | Some c -> (p, c) :: acc
          | None -> acc)
      m.files []
  in
  Hashtbl.reset m.files;
  Hashtbl.reset m.synced;
  List.iter
    (fun (p, c) ->
      let f = file_of_string c in
      Hashtbl.replace m.files p f;
      Hashtbl.replace m.synced p (f, f.len))
    survivors

(* --- concurrency wrappers ------------------------------------------------- *)

(** [locked io] serializes every operation of [io] through one mutex.  The
    in-memory filesystem is plain hashtables, so any concurrent use (the
    multi-session service, the chaos harness) must go through this. *)
let locked io =
  let m = Mutex.create () in
  let guard f =
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f
  in
  {
    read_file = (fun p -> guard (fun () -> io.read_file p));
    write = (fun p c -> guard (fun () -> io.write p c));
    append = (fun p c -> guard (fun () -> io.append p c));
    fsync = (fun p -> guard (fun () -> io.fsync p));
    rename = (fun a b -> guard (fun () -> io.rename a b));
    truncate = (fun p n -> guard (fun () -> io.truncate p n));
    remove = (fun p -> guard (fun () -> io.remove p));
    file_exists = (fun p -> guard (fun () -> io.file_exists p));
    is_directory = (fun p -> guard (fun () -> io.is_directory p));
    mkdir = (fun p -> guard (fun () -> io.mkdir p));
    readdir = (fun p -> guard (fun () -> io.readdir p));
  }

(** [protected io] wraps every operation of [io] in {!retry_eintr} — the
    same loop {!unix} uses internally, exposed so tests can drive it
    against {!eintr_faulty}. *)
let protected io =
  {
    read_file = (fun p -> retry_eintr (fun () -> io.read_file p));
    write = (fun p c -> retry_eintr (fun () -> io.write p c));
    append = (fun p c -> retry_eintr (fun () -> io.append p c));
    fsync = (fun p -> retry_eintr (fun () -> io.fsync p));
    rename = (fun a b -> retry_eintr (fun () -> io.rename a b));
    truncate = (fun p n -> retry_eintr (fun () -> io.truncate p n));
    remove = (fun p -> retry_eintr (fun () -> io.remove p));
    file_exists = (fun p -> retry_eintr (fun () -> io.file_exists p));
    is_directory = (fun p -> retry_eintr (fun () -> io.is_directory p));
    mkdir = (fun p -> retry_eintr (fun () -> io.mkdir p));
    readdir = (fun p -> retry_eintr (fun () -> io.readdir p));
  }

(** [observed ~now ~record io] times each write-path operation of [io] and
    reports it as [record op seconds] with [op] one of ["write"],
    ["append"], ["fsync"], ["rename"].  Reads, metadata queries and the
    rare [truncate] (a journal writer restoring its tail after a failed
    append) pass through untimed — the syscalls of every commit are the
    ones whose latency distribution matters.  Nothing is recorded when
    the operation raises: a failed fsync's duration would pollute the
    latency histogram that feeds the p99 alerts. *)
let observed ~now ~record io =
  let timed op f =
    let t0 = now () in
    let r = f () in
    record op (now () -. t0);
    r
  in
  {
    io with
    write = (fun p c -> timed "write" (fun () -> io.write p c));
    append = (fun p c -> timed "append" (fun () -> io.append p c));
    fsync = (fun p -> timed "fsync" (fun () -> io.fsync p));
    rename = (fun a b -> timed "rename" (fun () -> io.rename a b));
  }

(** The device model of a slower disk: every fsync first sleeps [delay]
    seconds, then syncs; writes, renames and reads keep their speed.  A
    non-positive delay leaves [io] as it is.  [Unix.sleepf], not
    [Thread.delay]: this library does not link threads. *)
let with_fsync_delay delay io =
  if delay <= 0.0 then io
  else { io with fsync = (fun p -> Unix.sleepf delay; io.fsync p) }

(* --- fault injection ----------------------------------------------------- *)

(** Count every effectful syscall (write, append, fsync, rename, truncate,
    remove, mkdir) going through the IO; the second component reads the
    count. *)
let counting io =
  let n = ref 0 in
  let tick () = incr n in
  ( {
      io with
      write = (fun p c -> tick (); io.write p c);
      append = (fun p c -> tick (); io.append p c);
      fsync = (fun p -> tick (); io.fsync p);
      rename = (fun a b -> tick (); io.rename a b);
      truncate = (fun p n -> tick (); io.truncate p n);
      remove = (fun p -> tick (); io.remove p);
      mkdir = (fun p -> tick (); io.mkdir p);
    },
    fun () -> !n )

(** [eintr_faulty ~eintr_at io] raises [Unix_error (EINTR, ...)] in place
    of each effectful syscall whose (0-based) index is listed in
    [eintr_at]; the syscall has no effect at the injection point, like a
    signal landing before the kernel did any work.  Composed under
    {!protected} (or behind {!unix}'s own loops) the interrupted call is
    retried and must succeed; the second component reads how many
    interrupts were delivered. *)
let eintr_faulty ~eintr_at io =
  let n = ref 0 in
  let delivered = ref 0 in
  let gate f =
    let i = !n in
    incr n;
    if List.mem i eintr_at then begin
      incr delivered;
      raise (Unix.Unix_error (Unix.EINTR, "injected", ""))
    end
    else f ()
  in
  ( {
      io with
      write = (fun p c -> gate (fun () -> io.write p c));
      append = (fun p c -> gate (fun () -> io.append p c));
      fsync = (fun p -> gate (fun () -> io.fsync p));
      rename = (fun a b -> gate (fun () -> io.rename a b));
      truncate = (fun p n -> gate (fun () -> io.truncate p n));
      remove = (fun p -> gate (fun () -> io.remove p));
      mkdir = (fun p -> gate (fun () -> io.mkdir p));
    },
    fun () -> !delivered )

type fault = Power_loss | Lands_then_fails

(** [faulty ~fault ~crash_at io] fails the [crash_at]-th (0-based)
    effectful syscall.  [Power_loss] (the default) raises {!Crash} in its
    place: a crashing [write]/[append] first lands a torn prefix of its
    data (half), modelling a partial write, and the other syscalls have no
    effect at the crash point.  [Lands_then_fails] runs the syscall whole,
    then raises [Sys_error], as a disk does whose fsync reports an error
    after the data reached it: the caller cannot tell what took effect. *)
let faulty ?(fault = Power_loss) ~crash_at io =
  let n = ref 0 in
  let gate path partial f =
    let i = !n in
    incr n;
    if i <> crash_at then f ()
    else
      match fault with
      | Power_loss ->
          partial ();
          raise Crash
      | Lands_then_fails ->
          f ();
          raise (Sys_error (path ^ ": Input/output error (injected)"))
  in
  let nothing () = () in
  let half c = String.sub c 0 (String.length c / 2) in
  ( {
      io with
      write =
        (fun p c -> gate p (fun () -> io.write p (half c)) (fun () -> io.write p c));
      append =
        (fun p c ->
          gate p (fun () -> io.append p (half c)) (fun () -> io.append p c));
      fsync = (fun p -> gate p nothing (fun () -> io.fsync p));
      rename = (fun a b -> gate a nothing (fun () -> io.rename a b));
      truncate = (fun p k -> gate p nothing (fun () -> io.truncate p k));
      remove = (fun p -> gate p nothing (fun () -> io.remove p));
      mkdir = (fun p -> gate p nothing (fun () -> io.mkdir p));
    },
    fun () -> !n )
