(* The evaluation corpus: 27 apps (7 train + 20 test, Table 1) and the
   8 artificially-injected variants used by the false-negative study
   (Table 2). *)

type group = Train | Test

type app = {
  name : string;
  group : group;
  source : string;
  seeded : Spec.seeded list;  (** ground truth for generated patterns *)
}

let of_train (name, (hand, spec)) : app =
  let generated, seeded = Gen.generate spec in
  { name; group = Train; source = hand ^ "\n" ^ generated; seeded }

let of_test (spec : Spec.t) : app =
  let generated, seeded = Gen.generate spec in
  { name = spec.Spec.app_name; group = Test; source = generated; seeded }

let train : app list Lazy.t = lazy (List.map of_train Apps_train.all)

let test : app list Lazy.t = lazy (List.map of_test Apps_test.all)

let all : app list Lazy.t = lazy (Lazy.force train @ Lazy.force test)

let find name =
  List.find_opt (fun a -> String.equal a.name name) (Lazy.force all)

(* Analyze a batch of apps on a domain pool. The detection join's
   symbol table is hash-consed once per batch and shared by every
   worker (it is thread-safe, and engine iteration is insertion-ordered
   so sharing never changes a report); everything else is per-analysis
   state, so apps parallelize freely. Results come back in input order,
   independent of [jobs]. Failures are isolated per app: one poisoned
   source yields a structured [Fault.t] in its own slot while the rest
   of the batch completes. *)
let analyze_all ?config ?jobs (apps : app list) :
    (app * (Nadroid_core.Pipeline.t, Nadroid_core.Fault.t) result) list =
  (* the builtin framework program is a global lazy: force it before
     spawning so domains never race on the thunk *)
  ignore (Lazy.force Nadroid_lang.Builtins.program);
  let interner = Nadroid_core.Pipeline.create_interner () in
  List.combine apps
    (List.map
       (Result.map_error Nadroid_core.Fault.of_exn)
       (Nadroid_core.Parallel.map_result ?jobs
          (fun a -> Nadroid_core.Pipeline.analyze ?config ~interner ~file:a.name a.source)
          apps))

(* -- Table 2: artificial UAF injection ----------------------------------- *)

(* The nominal origin category each injected pattern is reported under. *)
let injected_category (p : Spec.pattern) : Nadroid_core.Classify.category =
  match p with
  | Spec.P_ec_ec_uaf | Spec.P_chb_error_path -> Nadroid_core.Classify.EC_EC
  | Spec.P_ec_pc_uaf | Spec.P_inj_unmodeled -> Nadroid_core.Classify.EC_PC
  | Spec.P_pc_pc_uaf -> Nadroid_core.Classify.PC_PC
  | Spec.P_c_rt_uaf -> Nadroid_core.Classify.C_RT
  | Spec.P_c_nt_uaf -> Nadroid_core.Classify.C_NT
  | Spec.P_guarded | Spec.P_guarded_locked | Spec.P_intra_alloc | Spec.P_mhb_service
  | Spec.P_mhb_lifecycle | Spec.P_mhb_async | Spec.P_rhb | Spec.P_chb | Spec.P_phb | Spec.P_ma
  | Spec.P_ur | Spec.P_tt | Spec.P_fp_path | Spec.P_fp_missing_hb | Spec.P_safe ->
      Nadroid_core.Classify.EC_EC

(* Injection mix per app, mirroring Table 2's 28 UAFs: EC-EC 4, EC-PC 11,
   PC-PC 5, C-RT 1, C-NT 7; 2 missed by detection (unanalysed
   framework-mediated path, in Mms), 3 pruned by the unsound CHB filter
   (1 in Puzzles, 2 in Browser). *)
let injections : (string * Spec.pattern list) list =
  [
    ("Tomdroid", [ Spec.P_ec_pc_uaf ]);
    ( "SGTPuzzles",
      [
        Spec.P_ec_pc_uaf;
        Spec.P_ec_pc_uaf;
        Spec.P_ec_pc_uaf;
        Spec.P_ec_pc_uaf;
        Spec.P_c_nt_uaf;
        Spec.P_c_nt_uaf;
        Spec.P_c_nt_uaf;
        Spec.P_c_nt_uaf;
        Spec.P_chb_error_path;
      ] );
    ("Aard", [ Spec.P_ec_ec_uaf ]);
    ( "Music",
      [ Spec.P_ec_pc_uaf; Spec.P_ec_pc_uaf; Spec.P_ec_pc_uaf; Spec.P_ec_pc_uaf; Spec.P_c_nt_uaf; Spec.P_c_nt_uaf ]
    );
    ( "Mms",
      [
        Spec.P_pc_pc_uaf;
        Spec.P_pc_pc_uaf;
        Spec.P_pc_pc_uaf;
        Spec.P_c_rt_uaf;
        Spec.P_inj_unmodeled;
        Spec.P_inj_unmodeled;
      ] );
    ("Browser", [ Spec.P_chb_error_path; Spec.P_chb_error_path; Spec.P_pc_pc_uaf ]);
    ("MyTracks_2", [ Spec.P_pc_pc_uaf ]);
    ("K9Mail", [ Spec.P_c_nt_uaf ]);
  ]

type injected_app = {
  inj_base : app;
  inj_source : string;  (** base source + injected activity *)
  inj_seeded : Spec.seeded list;  (** ground truth of the injected UAFs only *)
}

let inject (base : app) (patterns : Spec.pattern list) : injected_app =
  let spec =
    {
      Spec.app_name = base.name ^ "+inj";
      activities = [ { Spec.act_name = "InjectedActivity"; patterns } ];
      services = 0;
      padding = 0;
    }
  in
  let generated, seeded = Gen.generate spec in
  (* the generated chunk re-emits the Data helper; drop it when the base
     already contains one *)
  let generated =
    if
      Astring.String.is_infix ~affix:"class Data {" base.source
      (* corpus sources always come from Gen for test apps *)
    then
      match String.index_opt generated '\n' with
      | Some _ ->
          (* remove the first class block (Data) by finding its end *)
          let marker = "class InjectedActivity" in
          let idx =
            match Astring.String.find_sub ~sub:marker generated with
            | Some i -> i
            | None -> 0
          in
          String.sub generated idx (String.length generated - idx)
      | None -> generated
    else generated
  in
  { inj_base = base; inj_source = base.source ^ "\n" ^ generated; inj_seeded = seeded }

let injected : injected_app list Lazy.t =
  lazy
    (List.filter_map
       (fun (name, patterns) ->
         match find name with
         | Some base -> Some (inject base patterns)
         | None -> None)
       injections)
