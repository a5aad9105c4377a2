(* Datalog engine tests: fixpoints, stratified negation, range
   restriction, and a qcheck property comparing the semi-naive engine
   against a reference naive evaluator on random graphs. *)

open Nadroid_datalog

let v x = Engine.Var x

let path_db edges =
  let db = Engine.create () in
  List.iter (fun (a, b) -> Engine.fact db "edge" [ a; b ]) edges;
  Engine.add_rule db (Engine.atom "path" [ v "x"; v "y" ])
    [ Engine.Pos (Engine.atom "edge" [ v "x"; v "y" ]) ];
  Engine.add_rule db (Engine.atom "path" [ v "x"; v "z" ])
    [
      Engine.Pos (Engine.atom "path" [ v "x"; v "y" ]);
      Engine.Pos (Engine.atom "edge" [ v "y"; v "z" ]);
    ];
  db

let tests =
  [
    Alcotest.test_case "transitive closure" `Quick (fun () ->
        let db = path_db [ ("a", "b"); ("b", "c"); ("c", "d") ] in
        Alcotest.(check bool) "a->d" true (Engine.mem db "path" [ "a"; "d" ]);
        Alcotest.(check bool) "no back" false (Engine.mem db "path" [ "d"; "a" ]);
        Alcotest.(check int) "count" 6 (Engine.cardinal db "path"));
    Alcotest.test_case "cycle closure terminates" `Quick (fun () ->
        let db = path_db [ ("a", "b"); ("b", "a") ] in
        Alcotest.(check bool) "self via cycle" true (Engine.mem db "path" [ "a"; "a" ]);
        Alcotest.(check int) "count" 4 (Engine.cardinal db "path"));
    Alcotest.test_case "constants in rule bodies" `Quick (fun () ->
        let db = path_db [ ("a", "b"); ("b", "c"); ("x", "y") ] in
        Engine.add_rule db (Engine.atom "from_a" [ v "y" ])
          [ Engine.Pos { Engine.pred = "path"; args = [ Engine.const db "a"; v "y" ] } ];
        Alcotest.(check int) "reachable from a" 2 (Engine.cardinal db "from_a"));
    Alcotest.test_case "stratified negation" `Quick (fun () ->
        let db = path_db [ ("a", "b"); ("b", "c") ] in
        List.iter (fun n -> Engine.fact db "node" [ n ]) [ "a"; "b"; "c"; "z" ];
        Engine.add_rule db (Engine.atom "isolated" [ v "x" ])
          [
            Engine.Pos (Engine.atom "node" [ v "x" ]);
            Engine.Neg (Engine.atom "path" [ Engine.const db "a"; v "x" ]);
          ];
        Alcotest.(check bool) "z isolated" true (Engine.mem db "isolated" [ "z" ]);
        Alcotest.(check bool) "b not isolated" false (Engine.mem db "isolated" [ "b" ]);
        (* a is isolated from a: no self-path without a cycle *)
        Alcotest.(check bool) "a isolated from a" true (Engine.mem db "isolated" [ "a" ]));
    Alcotest.test_case "negation through two strata" `Quick (fun () ->
        let db = Engine.create () in
        Engine.fact db "p" [ "1" ];
        Engine.fact db "q" [ "1" ];
        Engine.fact db "q" [ "2" ];
        Engine.add_rule db (Engine.atom "not_p" [ v "x" ])
          [ Engine.Pos (Engine.atom "q" [ v "x" ]); Engine.Neg (Engine.atom "p" [ v "x" ]) ];
        Engine.add_rule db (Engine.atom "top" [ v "x" ])
          [ Engine.Pos (Engine.atom "q" [ v "x" ]); Engine.Neg (Engine.atom "not_p" [ v "x" ]) ];
        Alcotest.(check bool) "not_p(2)" true (Engine.mem db "not_p" [ "2" ]);
        Alcotest.(check bool) "top(1)" true (Engine.mem db "top" [ "1" ]);
        Alcotest.(check bool) "top(2)" false (Engine.mem db "top" [ "2" ]));
    Alcotest.test_case "unstratifiable program rejected" `Quick (fun () ->
        let db = Engine.create () in
        Engine.fact db "seed" [ "a" ];
        Engine.add_rule db (Engine.atom "p" [ v "x" ])
          [ Engine.Pos (Engine.atom "seed" [ v "x" ]); Engine.Neg (Engine.atom "q" [ v "x" ]) ];
        Engine.add_rule db (Engine.atom "q" [ v "x" ])
          [ Engine.Pos (Engine.atom "seed" [ v "x" ]); Engine.Neg (Engine.atom "p" [ v "x" ]) ];
        Alcotest.check_raises "negative cycle"
          (Invalid_argument "Datalog program is not stratifiable (negative cycle)") (fun () ->
            Engine.solve db));
    Alcotest.test_case "unbound head variable rejected" `Quick (fun () ->
        let db = Engine.create () in
        ignore (Engine.relation db "e" ~arity:1);
        Alcotest.(check bool) "raises" true
          (try
             Engine.add_rule db (Engine.atom "p" [ v "x"; v "y" ])
               [ Engine.Pos (Engine.atom "e" [ v "x" ]) ];
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "unbound negated variable rejected" `Quick (fun () ->
        let db = Engine.create () in
        ignore (Engine.relation db "e" ~arity:1);
        ignore (Engine.relation db "q" ~arity:1);
        Alcotest.(check bool) "raises" true
          (try
             Engine.add_rule db (Engine.atom "p" [ v "x" ])
               [ Engine.Pos (Engine.atom "e" [ v "x" ]); Engine.Neg (Engine.atom "q" [ v "z" ]) ];
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        let db = Engine.create () in
        Engine.fact db "e" [ "a"; "b" ];
        Alcotest.(check bool) "raises" true
          (try
             ignore (Engine.relation db "e" ~arity:3);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "incremental facts re-solve" `Quick (fun () ->
        let db = path_db [ ("a", "b") ] in
        Alcotest.(check bool) "before" false (Engine.mem db "path" [ "a"; "c" ]);
        Engine.fact db "edge" [ "b"; "c" ];
        Alcotest.(check bool) "after" true (Engine.mem db "path" [ "a"; "c" ]));
    Alcotest.test_case "query returns rows" `Quick (fun () ->
        let db = path_db [ ("a", "b") ] in
        match Engine.query db "path" with
        | [ [| "a"; "b" |] ] -> ()
        | rows -> Alcotest.failf "unexpected rows (%d)" (List.length rows));
    Alcotest.test_case "query_ids gives query's rows in query's order" `Quick (fun () ->
        let db = path_db [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "e") ] in
        let rows = Engine.query db "path" in
        Alcotest.(check int) "10 rows" 10 (List.length rows);
        Alcotest.(check (list (array string)))
          "same rows, same order" rows
          (List.map (Array.map (Symbol.name (Engine.symbols db))) (Engine.query_ids db "path")));
  ]

(* Reference naive evaluator for reachability, to compare against. *)
let naive_reach edges =
  let nodes = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let reach = Hashtbl.create 16 in
  List.iter (fun (a, b) -> Hashtbl.replace reach (a, b) ()) edges;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            List.iter
              (fun z ->
                if
                  Hashtbl.mem reach (x, y) && Hashtbl.mem reach (y, z)
                  && not (Hashtbl.mem reach (x, z))
                then begin
                  Hashtbl.replace reach (x, z) ();
                  changed := true
                end)
              nodes)
          nodes)
      nodes
  done;
  reach

let gen_edges =
  QCheck2.Gen.(
    list_size (int_bound 20)
      (pair (map string_of_int (int_bound 6)) (map string_of_int (int_bound 6))))

let closure_matches_naive =
  QCheck2.Test.make ~name:"semi-naive closure = naive closure" ~count:200 gen_edges
    (fun edges ->
      let db = path_db edges in
      let reference = naive_reach edges in
      let engine_count = Engine.cardinal db "path" in
      let naive_count = Hashtbl.length reference in
      engine_count = naive_count
      && Hashtbl.fold (fun (a, b) () acc -> acc && Engine.mem db "path" [ a; b ]) reference true)

let monotone_under_new_facts =
  QCheck2.Test.make ~name:"adding facts never removes derived tuples" ~count:100
    QCheck2.Gen.(pair gen_edges (pair (map string_of_int (int_bound 6)) (map string_of_int (int_bound 6))))
    (fun (edges, extra) ->
      let db = path_db edges in
      Engine.solve db;
      let before = Engine.cardinal db "path" in
      Engine.fact db "edge" [ fst extra; snd extra ];
      Engine.cardinal db "path" >= before)

(* [Relation.add] must maintain existing column indexes in place: after
   inserts, lookups through a pre-built index see exactly the tuples a
   fresh scan would, and the index is neither dropped nor duplicated. *)
let index_survives_inserts () =
  let r = Relation.create ~name:"t" ~arity:2 () in
  ignore (Relation.add r [| 1; 10 |]);
  ignore (Relation.add r [| 2; 20 |]);
  (* build indexes on both columns, then insert more tuples *)
  let lookup0 k = Relation.lookup r ~cols:[ 0 ] ~key:[ k ] in
  let lookup1 k = Relation.lookup r ~cols:[ 1 ] ~key:[ k ] in
  Alcotest.(check int) "col0 pre-insert" 1 (List.length (lookup0 1));
  Alcotest.(check int) "col1 pre-insert" 1 (List.length (lookup1 20));
  Alcotest.(check int) "two live indexes" 2 (Relation.n_indexes r);
  Alcotest.(check bool) "insert is new" true (Relation.add r [| 1; 30 |]);
  Alcotest.(check bool) "duplicate rejected" false (Relation.add r [| 1; 30 |]);
  ignore (Relation.add r [| 3; 20 |]);
  Alcotest.(check int) "indexes survive inserts" 2 (Relation.n_indexes r);
  let sorted l = List.sort compare (List.map Array.to_list l) in
  Alcotest.(check (list (list int)))
    "col0 bucket updated in place"
    [ [ 1; 10 ]; [ 1; 30 ] ]
    (sorted (lookup0 1));
  Alcotest.(check (list (list int)))
    "col1 bucket updated in place"
    [ [ 2; 20 ]; [ 3; 20 ] ]
    (sorted (lookup1 20));
  Alcotest.(check (list (list int))) "fresh bucket visible" [ [ 3; 20 ] ] (sorted (lookup0 3));
  Alcotest.(check (list (list int))) "absent key still empty" [] (sorted (lookup0 99));
  Alcotest.(check int) "lookups created no extra indexes" 2 (Relation.n_indexes r);
  (* a full unindexed scan agrees with the maintained indexes *)
  Alcotest.(check int) "cardinal" 4 (Relation.cardinal r);
  Alcotest.(check (list (list int)))
    "index union = relation"
    (sorted (Relation.to_list r))
    (sorted (List.concat_map lookup0 [ 1; 2; 3 ]))

(* Concurrent interning: N domains racing overlapping name sets (more
   distinct names than the initial 256-slot [by_id], so resize races are
   exercised too) must agree on one bijection — same name, same id;
   dense ids; [name] inverting [intern]. *)
let symbol_concurrent_bijection =
  QCheck2.Test.make ~name:"concurrent interning yields a consistent bijection" ~count:10
    QCheck2.Gen.(pair (int_range 300 700) (int_bound 1000))
    (fun (distinct, salt) ->
      let names = Array.init distinct (fun i -> Printf.sprintf "sym-%d-%d" salt i) in
      let sym = Symbol.create () in
      let order d =
        (* each domain interns every name, in its own rotation *)
        let rot = d * (distinct / 4) in
        List.init distinct (fun i -> names.((i + rot) mod distinct))
      in
      let domains =
        List.init 4 (fun d ->
            let mine = order d in
            Domain.spawn (fun () -> List.map (fun n -> (n, Symbol.intern sym n)) mine))
      in
      let per_domain = List.map Domain.join domains in
      (* one consistent bijection: idempotent re-interning agrees with
         what every domain saw, names invert, ids are dense *)
      Symbol.size sym = distinct
      && List.for_all
           (List.for_all (fun (n, id) ->
                Symbol.intern sym n = id
                && Symbol.find_opt sym n = Some id
                && String.equal (Symbol.name sym id) n))
           per_domain
      && List.sort_uniq compare
           (List.map (fun (_, id) -> id) (List.concat per_domain))
         = List.init distinct Fun.id)

let suite =
  [
    ("datalog", tests @ [ Alcotest.test_case "indexes survive inserts" `Quick index_survives_inserts ]);
    ( "datalog-properties",
      List.map QCheck_alcotest.to_alcotest
        [ closure_matches_naive; monotone_under_new_facts; symbol_concurrent_bijection ]
    );
  ]
