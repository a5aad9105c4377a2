(* Seeded mega-corpus: cheap plan, lazy per-app materialization.

   Everything is derived from [Random.State.make] over an (tag, corpus
   seed, app index) triple, so any single app can be regenerated in
   isolation — the resume/journal path and the scheduler-equivalence
   tests both rely on [source] being a pure function of the descriptor,
   independent of which domain materializes it or in what order. *)

type kind = Normal of int | Adversarial of int

type app = { mc_index : int; mc_name : string; mc_app_seed : int; mc_kind : kind }

type spec = {
  mc_seed : int;
  mc_apps : int;
  mc_adversarial : float;
  mc_loc_scale : float;
}

let default = { mc_seed = 0; mc_apps = 5000; mc_adversarial = 0.02; mc_loc_scale = 1.0 }

(* The empirical Table 1 LOC distribution: the 27 corpus apps' own line
   counts. Forced once; ~ms. *)
let corpus_loc : int array Lazy.t =
  lazy
    (Array.of_list
       (List.map
          (fun (a : Corpus.app) -> Nadroid_core.Pipeline.count_loc a.Corpus.source)
          (Lazy.force Corpus.all)))

let plan (spec : spec) : app array =
  let loc = Lazy.force corpus_loc in
  Array.init spec.mc_apps (fun i ->
      let rs = Random.State.make [| 0x8eed; spec.mc_seed; i |] in
      let adversarial = Random.State.float rs 1.0 < spec.mc_adversarial in
      let kind =
        if adversarial then begin
          (* heavy tail: mostly small stragglers, occasionally a large
             one (s² warnings) — u² keeps the mass near 8 *)
          let u = Random.State.float rs 1.0 in
          Adversarial (8 + int_of_float (22.0 *. u *. u))
        end
        else begin
          let base = loc.(Random.State.int rs (Array.length loc)) in
          let jitter = 0.8 +. Random.State.float rs 0.4 in
          Normal (max 30 (int_of_float (float_of_int base *. jitter *. spec.mc_loc_scale)))
        end
      in
      {
        mc_index = i;
        mc_name = Printf.sprintf "mc%d_%05d" spec.mc_seed i;
        mc_app_seed = spec.mc_seed lxor (0x5bd1e995 * (i + 1));
        mc_kind = kind;
      })

(* Pattern pool for normal apps: the benign corpus idioms plus a sprinkle
   of true-bug patterns so fleet reports are non-trivial. Weighted the
   way apps_test.ml is: guards and MHB idioms dominate. *)
let pattern_pool : Spec.pattern array =
  [|
    Spec.P_guarded; Spec.P_guarded; Spec.P_guarded; Spec.P_guarded;
    Spec.P_mhb_lifecycle; Spec.P_mhb_lifecycle; Spec.P_mhb_lifecycle;
    Spec.P_intra_alloc; Spec.P_intra_alloc;
    Spec.P_ma; Spec.P_ur; Spec.P_tt; Spec.P_phb;
    Spec.P_safe; Spec.P_safe;
    Spec.P_ec_pc_uaf; Spec.P_pc_pc_uaf; Spec.P_guarded_locked;
  |]

let normal_spec ~rs ~name ~padding target : Spec.t =
  let nact = 1 + min 2 (target / 700) in
  let npat = max 2 (target / 55) in
  let activities =
    List.init nact (fun a ->
        let mine = npat / nact + (if a < npat mod nact then 1 else 0) in
        {
          Spec.act_name = Printf.sprintf "Act%d" a;
          patterns =
            List.init mine (fun _ ->
                pattern_pool.(Random.State.int rs (Array.length pattern_pool)));
        })
  in
  { Spec.app_name = name; activities; services = Random.State.int rs 2; padding }

let source (app : app) : string =
  match app.mc_kind with
  | Adversarial size -> Synth.adversarial ~seed:app.mc_app_seed ~size
  | Normal target ->
      (* two-pass: render unpadded, measure, then pad to the target
         (each padding class is 11 LOC). The pattern draws must not
         depend on the measured base, so both passes re-derive the spec
         from a fresh state of the same seed. *)
      let draw () = Random.State.make [| 0x50ec; app.mc_app_seed |] in
      let bare = normal_spec ~rs:(draw ()) ~name:app.mc_name ~padding:0 target in
      let src0, _ = Gen.generate bare in
      let base = Nadroid_core.Pipeline.count_loc src0 in
      if base >= target then src0
      else begin
        let padding = (target - base + 5) / 11 in
        let padded = normal_spec ~rs:(draw ()) ~name:app.mc_name ~padding target in
        fst (Gen.generate padded)
      end
