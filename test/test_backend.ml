(* The back end (escape, threadification, detection join) against the
   algorithms it replaced (Backend_oracle), and its scaling with the
   number of callbacks. *)

open Nadroid_analysis
module Pipeline = Nadroid_core.Pipeline
module Threadify = Nadroid_core.Threadify
module Detect = Nadroid_core.Detect
module Corpus = Nadroid_corpus.Corpus
module Synth = Nadroid_corpus.Synth
module Clock = Nadroid_clock.Clock

(* The Browser pattern, widened: one Activity with [n] Data fields, an
   onCreate making [n] service-connection registrations (each connection
   allocates its field on connect and frees it on disconnect), and an
   onResume with [n] guarded uses — 2n modeled callbacks. *)
let wide_source n =
  let b = Buffer.create (n * 250) in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "class Data {";
  line "  field int v;";
  line "  method void use() { v = v + 1; }";
  line "}";
  line "";
  line "class WideActivity extends Activity {";
  for i = 0 to n - 1 do
    line "  field Data f%d;" i
  done;
  line "  method void onCreate() {";
  for i = 0 to n - 1 do
    line "    this.bindService(new ServiceConnection() {";
    line "      method void onServiceConnected(Binder b) { f%d = new Data(); }" i;
    line "      method void onServiceDisconnected() { f%d = null; }" i;
    line "    });"
  done;
  line "  }";
  line "  method void onResume() {";
  for i = 0 to n - 1 do
    line "    if (f%d != null) { f%d.use(); }" i i
  done;
  line "  }";
  line "}";
  Buffer.contents b

(* A thread whose API edges are discovered out of instance order:
   onCreate's post of [later] resolves only after [prepare] (a later
   instance in the same thread) has stored the runnable and made its own
   post, so the edge list holds onCreate's edge before prepare's while
   instance order puts prepare's first. Children must follow the edge
   list. *)
let late_post_source =
  {|class Data {
  field int v;
  method void use() { v = v + 1; }
}

class OrderActivity extends Activity {
  field Handler h;
  field Runnable later;
  field Data d;
  method void onCreate() {
    h = new Handler();
    d = new Data();
    this.prepare();
    h.post(later);
  }
  method void prepare() {
    later = new Runnable() {
      method void run() { d.use(); }
    };
    h.post(new Runnable() {
      method void run() { d = null; }
    });
  }
}
|}

(* The first disagreement with the oracles, if any. *)
let disagreement (t : Pipeline.t) : string option =
  let pta = t.Pipeline.pta in
  if not (Pta.IntSet.equal t.Pipeline.esc.Escape.escaping (Backend_oracle.escaping pta)) then
    Some "escaping sets differ"
  else if t.Pipeline.threads.Threadify.threads <> Backend_oracle.threads pta then
    Some "thread arrays differ"
  else if
    Detect.run t.Pipeline.threads t.Pipeline.esc
    <> Backend_oracle.detect ~join:Backend_oracle.string_join t.Pipeline.threads t.Pipeline.esc
  then Some "warning lists differ"
  else None

let check_agrees name t =
  match disagreement t with None -> () | Some what -> Alcotest.failf "%s: %s" name what

let agrees_on_corpus () =
  List.iter
    (fun (app : Corpus.app) ->
      check_agrees app.Corpus.name (Pipeline.analyze ~file:app.Corpus.name app.Corpus.source))
    (Lazy.force Corpus.all)

let agrees_on_synth =
  QCheck2.Test.make ~name:"back end equals the oracles on generated apps" ~count:200
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let src, _ = Synth.render (Synth.generate ~seed) in
      disagreement (Pipeline.analyze ~file:"synth" src) = None)

let agrees_on_adversarial () =
  for size = 8 to 25 do
    check_agrees
      (Printf.sprintf "adversarial size %d" size)
      (Pipeline.analyze ~file:"adv" (Synth.adversarial ~seed:0 ~size))
  done

let agrees_on_wide () =
  List.iter
    (fun n ->
      check_agrees (Printf.sprintf "wide %d" n) (Pipeline.analyze ~file:"wide" (wide_source n)))
    [ 500; 1000; 2000 ]

let agrees_on_late_post () =
  check_agrees "late post" (Pipeline.analyze ~file:"late" late_post_source)

(* Escape and threadification must not grow with callbacks squared. On
   the 2,000-registration wide app (4,000 callbacks) the quadratic
   versions took 73-132 and 139-233 ms, the linear ones 6-10 and 3-6 ms
   (best of 3, on a 2-CPU host whose speed swings by up to 2x); the
   25 ms bound sits about 3x from both. Escape runs first, as in
   [Pipeline], so it pays for the intra-thread closures. *)
let wide_app_is_linear () =
  let prog = Nadroid_ir.Prog.of_source ~file:"wide" (wide_source 2000) in
  let ms f =
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (f ()));
    1000.0 *. (Clock.now () -. t0)
  in
  let best_esc = ref infinity and best_thr = ref infinity in
  for _ = 1 to 3 do
    let pta = Pta.run prog in
    best_esc := Float.min !best_esc (ms (fun () -> Escape.run pta));
    best_thr := Float.min !best_thr (ms (fun () -> Threadify.run pta))
  done;
  if !best_esc >= 25.0 then Alcotest.failf "Escape.run took %.1f ms (bound 25)" !best_esc;
  if !best_thr >= 25.0 then Alcotest.failf "Threadify.run took %.1f ms (bound 25)" !best_thr

let suite =
  [
    ( "backend-equivalence",
      [
        Alcotest.test_case "escape, threadify and detect equal the oracles on the corpus" `Quick
          agrees_on_corpus;
        QCheck_alcotest.to_alcotest agrees_on_synth;
        Alcotest.test_case "and on adversarial apps of sizes 8 to 25" `Quick agrees_on_adversarial;
        Alcotest.test_case "and on wide apps of 500, 1,000 and 2,000 registrations" `Quick
          agrees_on_wide;
        Alcotest.test_case "and on a thread whose posts resolve out of instance order" `Quick
          agrees_on_late_post;
      ] );
    ( "backend-scaling",
      [
        Alcotest.test_case "escape and threadify stay under 25 ms on a 4,000-callback app" `Quick
          wide_app_is_linear;
      ] );
  ]
