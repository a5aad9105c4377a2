(* Domain parallelism: one batch scheduler and one persistent pool.

   [stream] is the batch engine. It runs a whole batch on a fixed set of
   domains that exists only for the batch, and [map_result] is the
   list-shaped collector over it. [Pool] is for processes that outlive
   any one batch (the serve daemon): [Pool.create] spawns the workers
   once, [Pool.submit] enqueues a task and returns a future,
   [Pool.await] blocks on its completion, and [Pool.shutdown] drains the
   queue and joins the workers (graceful: queued work still runs). *)

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let clamp_jobs jobs =
  let most = default_jobs () in
  if jobs <= most then jobs
  else begin
    Printf.eprintf "note: --jobs %d is above this machine's %d recommended domain(s); using %d\n%!"
      jobs most most;
    most
  end

module Pool = struct
  type t = {
    m : Mutex.t;
    nonempty : Condition.t;
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable domains : unit Domain.t list;
    jobs : int;  (** worker domain count *)
  }

  type 'a state = Pending | Value of 'a | Exn of exn

  type 'a future = {
    fm : Mutex.t;
    fc : Condition.t;
    mutable state : 'a state;
  }

  let jobs t = t.jobs

  let worker t =
    let rec loop () =
      Mutex.lock t.m;
      while Queue.is_empty t.queue && not t.stopping do
        Condition.wait t.nonempty t.m
      done;
      (* on shutdown, keep draining until the queue is empty *)
      if Queue.is_empty t.queue then Mutex.unlock t.m
      else begin
        let task = Queue.pop t.queue in
        Mutex.unlock t.m;
        task ();
        loop ()
      end
    in
    loop ()

  let create ?jobs () =
    let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
    let t =
      {
        m = Mutex.create ();
        nonempty = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        domains = [];
        jobs;
      }
    in
    t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
    t

  let submit t f =
    let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
    let task () =
      let r = match f () with v -> Value v | exception e -> Exn e in
      Mutex.lock fut.fm;
      fut.state <- r;
      Condition.broadcast fut.fc;
      Mutex.unlock fut.fm
    in
    Mutex.lock t.m;
    if t.stopping then begin
      Mutex.unlock t.m;
      invalid_arg "Parallel.Pool.submit: pool is shut down"
    end;
    Queue.push task t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.m;
    fut

  let await fut =
    Mutex.lock fut.fm;
    let rec wait () =
      match fut.state with
      | Pending ->
          Condition.wait fut.fc fut.fm;
          wait ()
      | Value v -> Ok v
      | Exn e -> Error e
    in
    let r = wait () in
    Mutex.unlock fut.fm;
    r

  let shutdown t =
    Mutex.lock t.m;
    if t.stopping then Mutex.unlock t.m
    else begin
      t.stopping <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.m;
      List.iter Domain.join t.domains;
      t.domains <- []
    end
end

(* -- the batch scheduler --------------------------------------------------- *)

(* [stream] runs [f 0 .. f (n-1)] over a fixed worker set and hands each
   result to [emit] in strict input order, holding at most [window]
   results (plus in-flight tasks) at any instant — so a corpus-sized
   batch never accumulates O(corpus) outputs.

   Scheduling: indices are admitted into per-worker deques round-robin
   as the emission watermark advances (the admission window is what
   bounds memory). A worker whose deque runs dry takes the *back* half
   of the longest peer deque: the victim keeps its imminent, ordering-
   critical front while the thief carries work far from the watermark,
   which is exactly the work a straggler would otherwise strand.

   All scheduler state lives under one mutex. That is deliberate: tasks
   here are whole-app analyses (milliseconds and up), so the lock is
   cold; a lock-free deque would buy nothing and cost the determinism
   argument. [emit] runs under the same mutex — it is serialized, in
   input order, and must not call back into the scheduler. *)

let window = 256

let stream ?jobs ~n (f : int -> 'b) (emit : int -> ('b, exn) result -> unit) : unit =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if n <= 0 then ()
  else if jobs = 1 || n = 1 then
    for i = 0 to n - 1 do
      emit i (match f i with v -> Ok v | exception e -> Error e)
    done
  else begin
    let jobs = min jobs n in
    let window = max window (2 * jobs) in
    let m = Mutex.create () in
    let work = Condition.create () in
    let deques = Array.init jobs (fun _ -> Queue.create ()) in
    let admitted = ref 0 and emit_next = ref 0 in
    let buf : (int, ('b, exn) result) Hashtbl.t = Hashtbl.create (2 * window) in
    let failed = ref None in
    (* with [m] held: top the deques up to the admission window *)
    let admit () =
      while !admitted < n && !admitted - !emit_next < window do
        Queue.push !admitted deques.(!admitted mod jobs);
        incr admitted
      done
    in
    (* with [m] held: emit every ready result at the watermark *)
    let drain () =
      let continue = ref true in
      while !continue && !failed = None do
        match Hashtbl.find_opt buf !emit_next with
        | None -> continue := false
        | Some r -> (
            Hashtbl.remove buf !emit_next;
            match emit !emit_next r with
            | () -> incr emit_next
            | exception e ->
                failed := Some e;
                incr emit_next)
      done
    in
    (* with [m] held: next index for worker [w] — own deque first, then
       the back half of the longest peer deque *)
    let pop w =
      if not (Queue.is_empty deques.(w)) then Some (Queue.pop deques.(w))
      else begin
        let victim = ref (-1) and best = ref 0 in
        Array.iteri
          (fun i q ->
            let l = Queue.length q in
            if i <> w && l > !best then begin
              victim := i;
              best := l
            end)
          deques;
        if !victim < 0 then None
        else begin
          let q = deques.(!victim) in
          (* take the back half, at least one — a lone queued item is
             still worth stealing, the reorder buffer owns ordering *)
          let keep = Queue.length q - max 1 (Queue.length q / 2) in
          let front = Queue.create () in
          for _ = 1 to keep do
            Queue.push (Queue.pop q) front
          done;
          Queue.transfer q deques.(w);
          Queue.transfer front q;
          Some (Queue.pop deques.(w))
        end
      end
    in
    let rec worker w =
      Mutex.lock m;
      let rec get () =
        if !failed <> None || !emit_next >= n then None
        else
          match pop w with
          | Some i -> Some i
          | None ->
              Condition.wait work m;
              get ()
      in
      match get () with
      | None -> Mutex.unlock m
      | Some i ->
          Mutex.unlock m;
          let r = match f i with v -> Ok v | exception e -> Error e in
          Mutex.lock m;
          Hashtbl.replace buf i r;
          let before = !admitted in
          drain ();
          admit ();
          (* a waiter can only be unblocked by newly admitted work,
             termination, or failure — don't wake the house otherwise *)
          if !admitted > before || !emit_next >= n || !failed <> None then
            Condition.broadcast work;
          Mutex.unlock m;
          worker w
    in
    Mutex.lock m;
    admit ();
    Mutex.unlock m;
    let domains = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
    worker 0;
    List.iter Domain.join domains;
    match !failed with Some e -> raise e | None -> ()
  end

let map_result ?jobs (f : 'a -> 'b) (xs : 'a list) : ('b, exn) result list =
  let arr = Array.of_list xs in
  let out = Array.make (Array.length arr) None in
  stream ?jobs ~n:(Array.length arr) (fun i -> f arr.(i)) (fun i r -> out.(i) <- Some r);
  Array.to_list (Array.map Option.get out)
