(* String interning: Datalog constants are small integers; this table maps
   them back and forth to human-readable names.

   Analyses encode their domains (methods, fields, allocation sites,
   abstract threads...) as interned strings, mirroring how Chord maps
   program entities into bddbddb domains.

   Concurrency: a warm serve daemon interns from several domains at
   once, so writes ([intern]) are mutex-guarded — including the
   [by_id] resize — while [name]/[size] reads stay lock-free on the hot
   path. Publication order makes the lock-free read safe: the slot and
   (on growth) the new array are written {e before} [next] is bumped
   (an [Atomic] release), so any reader that learned an id through a
   synchronised hand-off (domain join, a mutex) observes
   the slot it indexes. A reader holding a stale [by_id] (resized after
   it was read) falls back to a locked read instead of faulting. *)

type t = {
  by_name : (string, int) Hashtbl.t;  (* guarded by [m], reads included *)
  mutable by_id : string array;  (* grow-only; republished under [m] *)
  next : int Atomic.t;
  m : Mutex.t;
}

let create () =
  {
    by_name = Hashtbl.create 256;
    by_id = Array.make 256 "";
    next = Atomic.make 0;
    m = Mutex.create ();
  }

let intern t name =
  Mutex.lock t.m;
  let id =
    match Hashtbl.find_opt t.by_name name with
    | Some id -> id
    | None ->
        let id = Atomic.get t.next in
        if id >= Array.length t.by_id then begin
          let bigger = Array.make (2 * Array.length t.by_id) "" in
          Array.blit t.by_id 0 bigger 0 (Array.length t.by_id);
          t.by_id <- bigger
        end;
        t.by_id.(id) <- name;
        Hashtbl.add t.by_name name id;
        (* publish last: a reader that sees [next > id] sees the slot *)
        Atomic.set t.next (id + 1);
        id
  in
  Mutex.unlock t.m;
  id

let find_opt t name =
  Mutex.lock t.m;
  let r = Hashtbl.find_opt t.by_name name in
  Mutex.unlock t.m;
  r

let name t id =
  if id < 0 || id >= Atomic.get t.next then
    invalid_arg (Printf.sprintf "Symbol.name: bad id %d" id);
  let arr = t.by_id in
  if id < Array.length arr then arr.(id)
  else begin
    (* raced with a resize: re-read the array under the lock *)
    Mutex.lock t.m;
    let v = t.by_id.(id) in
    Mutex.unlock t.m;
    v
  end

let size t = Atomic.get t.next
