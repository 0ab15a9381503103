type state = S_open | S_poisoned | S_closed

type 'a t = {
  mutex : Mutex.t;
  q : 'a Queue.t;
  depth : int Atomic.t;
      (* [Queue.length q], written under [mutex], read without it: the
         lock-free [length] and the spin in [wait] poll it. *)
  mutable sleeping : bool;
  mutable served : bool;
      (* Consumer only: the last [drain] returned a message. *)
  mutable state : state;
  rd : Unix.file_descr;
  wr : Unix.file_descr;
}

type send_result = Sent | Poisoned | Closed

let create () =
  let rd, wr = Unix.pipe () in
  Unix.set_nonblock rd;
  {
    mutex = Mutex.create ();
    q = Queue.create ();
    depth = Atomic.make 0;
    sleeping = false;
    served = false;
    state = S_open;
    rd;
    wr;
  }

let wake_byte = Bytes.make 1 '\001'

(* The self-pipe wake must actually land: a producer that swallows EINTR or a
   0-byte write leaves the consumer parked in [select] until its timer fires,
   which under load turns a sub-millisecond handoff into a full timeout.  Retry
   those; treat EPIPE/EBADF (consumer tore the pipe down concurrently) and a
   full pipe (a wake byte is already in flight) as success. *)
let rec write_wake t =
  match Unix.write t.wr wake_byte 0 1 with
  | 0 -> write_wake t
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_wake t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) -> ()

let send t x =
  Mutex.lock t.mutex;
  match t.state with
  | S_poisoned ->
    Mutex.unlock t.mutex;
    Poisoned
  | S_closed ->
    Mutex.unlock t.mutex;
    Closed
  | S_open ->
    Queue.push x t.q;
    Atomic.set t.depth (Queue.length t.q);
    (* Claim the wake: the first producer after the consumer parks writes the
       byte; later ones see [sleeping = false] and skip it. *)
    let wake = t.sleeping in
    t.sleeping <- false;
    Mutex.unlock t.mutex;
    if wake then write_wake t;
    Sent

(* Fire-and-forget: a push to a poisoned or closed mailbox is dropped, the
   same loss semantics as a message to a crashed site — the Vm retransmission
   machinery is what heals it.  Producers that need to distinguish a dead
   consumer use [send]. *)
let push t x = ignore (send t x)

let length t = Atomic.get t.depth

let take t =
  Mutex.lock t.mutex;
  let acc = ref [] in
  while not (Queue.is_empty t.q) do
    acc := Queue.pop t.q :: !acc
  done;
  Atomic.set t.depth 0;
  Mutex.unlock t.mutex;
  List.rev !acc

let drain t =
  let batch = take t in
  t.served <- batch <> [];
  batch

let poison t =
  Mutex.lock t.mutex;
  if t.state = S_open then t.state <- S_poisoned;
  Mutex.unlock t.mutex

let unpoison t =
  Mutex.lock t.mutex;
  if t.state = S_poisoned then t.state <- S_open;
  Mutex.unlock t.mutex

let sweep t = take t

let is_poisoned t =
  Mutex.lock t.mutex;
  let p = t.state = S_poisoned in
  Mutex.unlock t.mutex;
  p

(* Swallow stale wake bytes so a byte from a previous cycle cannot turn a
   future [wait] into a busy spin. *)
let drain_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.rd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* How long a consumer that has just served traffic polls [depth] before it
   parks.  Most of a remote-value round trip's hops land inside it, and each
   one caught here skips the wake byte, the [select] and the pipe read.  On
   a 2-core host a transfer-durable remote decrement's p50/p75 read
   26.7/60.9 us with a 10 us window, 19.7/22.2 us with 30 us, and
   21.2/24.5 us with 100 us, where the spinning sites also took cycles from
   the client and a share of remote decrements failed. *)
let spin_window = 30e-6

(* On one core a spin only delays the producer it waits for. *)
let can_spin = Domain.recommended_domain_count () > 1

(* Poll [depth] for at most [window] seconds, reading the clock once every
   32 polls.  Returns the time spent, or [-1.0] once a message is queued. *)
let spin t ~window =
  let t0 = Unix.gettimeofday () in
  let rec go i =
    if Atomic.get t.depth > 0 then -1.0
    else
      let spun = if i land 31 = 0 then Unix.gettimeofday () -. t0 else 0.0 in
      if spun >= window then spun
      else begin
        Domain.cpu_relax ();
        go (i + 1)
      end
  in
  go 1

let park t ~timeout =
  Mutex.lock t.mutex;
  if not (Queue.is_empty t.q) then Mutex.unlock t.mutex
  else begin
    t.sleeping <- true;
    Mutex.unlock t.mutex;
    (try ignore (Unix.select [ t.rd ] [] [] timeout)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Mutex.lock t.mutex;
    t.sleeping <- false;
    Mutex.unlock t.mutex;
    drain_pipe t
  end

(* Only a consumer whose last [drain] was non-empty spins: a domain that has
   just started, or that a timer woke, parks at once.  An idle domain
   spinning while its sibling initialised slowed [Cluster.create] by
   70-87 us on 2 cores. *)
let wait t ~timeout =
  if Atomic.get t.depth = 0 then
    if not (can_spin && t.served) then park t ~timeout
    else
      let window = if timeout < 0.0 then spin_window else Float.min spin_window timeout in
      let spun = spin t ~window in
      if spun >= 0.0 then
        if timeout < 0.0 then park t ~timeout
        else if timeout > spun then park t ~timeout:(timeout -. spun)

let close t =
  Mutex.lock t.mutex;
  let was = t.state in
  t.state <- S_closed;
  Mutex.unlock t.mutex;
  if was <> S_closed then begin
    Unix.close t.rd;
    Unix.close t.wr
  end
