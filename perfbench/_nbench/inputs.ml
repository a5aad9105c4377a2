(* Seeded inputs of the four workloads. Everything here is a pure
   function of the workload seed, generated before any clock starts; the
   analysing processes only ever see the materialized sources and the
   pre-rendered request lines. *)

module Pipeline = Nadroid_core.Pipeline
module Corpus = Nadroid_corpus.Corpus
module Megacorpus = Nadroid_corpus.Megacorpus
module Protocol = Nadroid_serve.Protocol

type app = { name : string; source : string }

(* Load is sized for a 2-CPU host: 2 worker slots, 2 client
   connections, 2 supervised worker processes. *)
let jobs = 2

let paper () =
  Array.of_list
    (List.map
       (fun (a : Corpus.app) -> { name = a.Corpus.name; source = a.Corpus.source })
       (Lazy.force Corpus.all))

let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* corpus-seq: the 27 paper apps, in a seeded order per batch; with a
   different order in every batch the run's median peak RSS does not
   hinge on one order's GC timing. *)
let corpus ~seed ~batch =
  let a = paper () in
  shuffle (Random.State.make [| 0xc0de; seed; batch |]) a;
  a

(* fleet-par / batch-supervised: a Megacorpus plan, stratified so that
   its cost does not depend on the seed. An unstratified plan of this
   size varies 2x in total cost between seeds, because a handful of
   heavy-tailed stragglers carry half of it. Here every Table 1 LOC value
   is drawn equally often (with Megacorpus's own ±20% jitter), and the
   2% [Synth.adversarial] stragglers take Megacorpus's size law
   [8 + 22u²] at the midpoints of equal strata of [u], largest first and
   spread evenly through the plan. The seed still picks every app's
   content, jitter, name and position. *)
let fleet_rounds = 9

let fleet_stragglers = 5

let fleet ~seed =
  let loc = Array.map (fun a -> Pipeline.count_loc a.source) (paper ()) in
  let rs = Random.State.make [| 0xf1ee; seed |] in
  let bases = Array.init (Array.length loc * fleet_rounds) (fun i -> loc.(i mod Array.length loc)) in
  shuffle rs bases;
  let normal =
    Array.map
      (fun base ->
        let jitter = 0.8 +. Random.State.float rs 0.4 in
        Megacorpus.Normal (max 30 (int_of_float (float_of_int base *. jitter))))
      bases
  in
  let k = fleet_stragglers in
  let n = Array.length normal + k in
  let kinds = Array.make n (Megacorpus.Normal 0) in
  for j = 0 to k - 1 do
    let u = (float_of_int (k - 1 - j) +. 0.5) /. float_of_int k in
    kinds.((((2 * j) + 1) * n) / (2 * k)) <- Megacorpus.Adversarial (8 + int_of_float (22.0 *. u *. u))
  done;
  let next = ref 0 in
  Array.mapi
    (fun i kind ->
      let kind =
        match kind with
        | Megacorpus.Adversarial _ -> kind
        | Megacorpus.Normal _ ->
            incr next;
            normal.(!next - 1)
      in
      let app =
        {
          Megacorpus.mc_index = i;
          mc_name = Printf.sprintf "mc%d_%05d" seed i;
          mc_app_seed = seed lxor (0x5bd1e995 * (i + 1));
          mc_kind = kind;
        }
      in
      { name = app.Megacorpus.mc_name; source = Megacorpus.source app })
    kinds

(* serve-cached: closed-loop IDE/CI re-analysis traffic over the paper
   apps. Each connection owns a fixed, LOC-balanced half of the apps, so
   one app's revisions are always ordered on one connection and whether
   a request hits the cache never depends on how the two connections
   interleave. Every app is requested [repeats] times, [revisions] of
   them as a new revision: a trailing comment, so a new cache key (miss,
   store, eviction of the superseded entry) with an unchanged report;
   the rest re-send the current revision (hits). Fixing the counts per
   app keeps the miss-latency mix, and so p90, the same for every seed;
   the seed picks the order and which requests revise. *)
type request = {
  r_name : string;
  r_source : string;
  r_line : string;  (** the pre-rendered protocol line *)
}

type serve_plan = {
  warm : request array array;  (** per connection: base revisions, untimed *)
  timed : request array array;  (** per connection: the measured sequence *)
}

let repeats = 7

let revisions = 2

let revise source rev =
  if rev = 0 then source else source ^ Printf.sprintf "\n// revision %d\n" rev

(* The line [Protocol.render_analyze] renders for an inline source with
   the cache on; the daemon and [Protocol.parse_request] read it. *)
let request name source =
  let esc = Protocol.escape_string in
  {
    r_name = name;
    r_source = source;
    r_line = Printf.sprintf "{\"op\":\"analyze\",\"source\":%s,\"file\":%s,\"cache\":true}" (esc source) (esc name);
  }

let partition apps =
  let by_size = Array.copy apps in
  Array.stable_sort
    (fun a b -> compare (String.length b.source) (String.length a.source))
    by_size;
  let load = Array.make jobs 0 and parts = Array.make jobs [] in
  Array.iter
    (fun a ->
      let c = ref 0 in
      Array.iteri (fun i l -> if l < load.(!c) then c := i) load;
      load.(!c) <- load.(!c) + String.length a.source;
      parts.(!c) <- a :: parts.(!c))
    by_size;
  Array.map (fun l -> Array.of_list (List.rev l)) parts

let serve ~seed =
  let parts = partition (paper ()) in
  let warm = Array.map (Array.map (fun a -> request a.name a.source)) parts in
  let timed =
    Array.mapi
      (fun c part ->
        let rs = Random.State.make [| 0x5e7e; seed; c |] in
        (* (app, revises) for every request of the connection, shuffled *)
        let slots =
          Array.concat
            (List.init (Array.length part) (fun i ->
                 Array.init repeats (fun r -> (i, r < revisions))))
        in
        shuffle rs slots;
        let rev = Array.make (Array.length part) 0 in
        Array.map
          (fun (i, revises) ->
            if revises then rev.(i) <- rev.(i) + 1;
            request part.(i).name (revise part.(i).source rev.(i)))
          slots)
      parts
  in
  { warm; timed }
