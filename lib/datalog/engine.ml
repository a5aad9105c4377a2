(* Semi-naive Datalog evaluation with stratified negation.

   This is the fixpoint substrate standing in for Chord's bddbddb solver:
   analyses declare relations, load base facts (EDB), state rules, and
   call {!solve}. Evaluation is stratified (negated predicates must be
   fully computed in an earlier stratum) and semi-naive (each iteration
   joins against the delta of the previous one).

   Terms are integers produced by {!Symbol} interning. *)

type term = Var of string | Const of int

type atom = { pred : string; args : term list }

type literal = Pos of atom | Neg of atom

type rule = { head : atom; body : literal list }

type t = {
  sym : Symbol.t;
  relations : (string, Relation.t) Hashtbl.t;
  budget : Relation.budget option;
      (* shared by all persistent relations: one database-wide ceiling *)
  mutable rules : rule list;
  mutable solved : bool;
}

(* [symbols] lets a batch of engines share one hash-consed interning
   table (it is thread-safe): the common strings — field keys, framework
   entity names — are interned once per batch instead of once per app.
   Safe for determinism because no engine output depends on id values:
   relations iterate in insertion order (see {!Relation.iter}) and
   {!query} restores names. *)
let create ?symbols ?max_tuples () =
  {
    sym = (match symbols with Some s -> s | None -> Symbol.create ());
    relations = Hashtbl.create 32;
    budget = Option.map (fun limit -> Relation.budget ~limit) max_tuples;
    rules = [];
    solved = false;
  }

let symbols t = t.sym

let const t name = Const (Symbol.intern t.sym name)

let relation t name ~arity =
  match Hashtbl.find_opt t.relations name with
  | Some r ->
      if Relation.arity r <> arity then
        invalid_arg (Printf.sprintf "relation %s redeclared with arity %d (was %d)" name arity (Relation.arity r));
      r
  | None ->
      let r = Relation.create ?budget:t.budget ~name ~arity () in
      Hashtbl.add t.relations name r;
      r

let fact t name args =
  let r = relation t name ~arity:(List.length args) in
  ignore (Relation.add r (Array.of_list (List.map (Symbol.intern t.sym) args)));
  t.solved <- false

(* Bulk EDB loading: one relation lookup for the whole batch. *)
let facts t name tuples =
  match tuples with
  | [] -> ()
  | first :: _ ->
      let r = relation t name ~arity:(List.length first) in
      List.iter
        (fun args ->
          ignore (Relation.add r (Array.of_list (List.map (Symbol.intern t.sym) args))))
        tuples;
      t.solved <- false

(* Id-level bulk loading for clients that already hold their columns
   as ints (e.g. a join staging thousands of accesses): skips the
   per-tuple string traffic. Each array is consumed as the stored tuple.
   A column need not hold interned symbols when nothing reads it back by
   name ({!mem}, {!query}): the engine only compares column values, so a
   column read back with {!query_ids} may carry any ints, such as row
   indices of the client's own arrays. *)
let facts_ids t name tuples =
  match tuples with
  | [] -> ()
  | first :: _ ->
      let r = relation t name ~arity:(Array.length first) in
      List.iter (fun tup -> ignore (Relation.add r tup)) tuples;
      t.solved <- false

let atom pred args = { pred; args }

let add_rule t head body =
  (* declare relations eagerly so arity errors surface at rule creation *)
  ignore (relation t head.pred ~arity:(List.length head.args));
  List.iter
    (fun lit ->
      let a = match lit with Pos a | Neg a -> a in
      ignore (relation t a.pred ~arity:(List.length a.args)))
    body;
  (* range restriction: every head variable must occur in a positive body atom *)
  let positive_vars =
    List.concat_map
      (function
        | Pos a -> List.filter_map (function Var v -> Some v | Const _ -> None) a.args
        | Neg _ -> [])
      body
  in
  List.iter
    (function
      | Var v when not (List.mem v positive_vars) ->
          invalid_arg
            (Printf.sprintf "rule for %s: head variable %s not bound by a positive body atom"
               head.pred v)
      | Var _ | Const _ -> ())
    head.args;
  (* same restriction for variables under negation *)
  List.iter
    (function
      | Neg a ->
          List.iter
            (function
              | Var v when not (List.mem v positive_vars) ->
                  invalid_arg
                    (Printf.sprintf
                       "rule for %s: variable %s under negation not bound positively" head.pred v)
              | Var _ | Const _ -> ())
            a.args
      | Pos _ -> ())
    body;
  t.rules <- { head; body } :: t.rules;
  t.solved <- false

(* -- stratification ----------------------------------------------------- *)

module SMap = Map.Make (String)

(* Strata are computed by a longest-path style fixpoint over the predicate
   dependency graph: an edge P -> Q (Q depends on P) forces
   stratum(Q) >= stratum(P), strictly greater when Q uses [not P].
   A negative cycle means the program is not stratifiable. *)
let stratify t : rule list list =
  let preds = Hashtbl.fold (fun name _ acc -> name :: acc) t.relations [] in
  let stratum = ref (List.fold_left (fun m p -> SMap.add p 0 m) SMap.empty preds) in
  let n_preds = List.length preds in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    incr rounds;
    if !rounds > n_preds + 1 then invalid_arg "Datalog program is not stratifiable (negative cycle)";
    List.iter
      (fun rule ->
        let head_s = SMap.find rule.head.pred !stratum in
        List.iter
          (fun lit ->
            let dep, strict =
              match lit with Pos a -> (a.pred, false) | Neg a -> (a.pred, true)
            in
            let dep_s = SMap.find dep !stratum in
            let required = if strict then dep_s + 1 else dep_s in
            if head_s < required then begin
              stratum := SMap.add rule.head.pred required !stratum;
              changed := true
            end)
          rule.body)
      t.rules
  done;
  let max_stratum = SMap.fold (fun _ s acc -> max s acc) !stratum 0 in
  List.init (max_stratum + 1) (fun i ->
      List.filter (fun r -> SMap.find r.head.pred !stratum = i) t.rules)

(* -- rule evaluation ----------------------------------------------------- *)

(* A binding environment during body evaluation. *)
type env = int SMap.t

let match_tuple (env : env) (args : term list) (tup : int array) : env option =
  let rec go env i = function
    | [] -> Some env
    | Const c :: rest -> if tup.(i) = c then go env (i + 1) rest else None
    | Var v :: rest -> (
        match SMap.find_opt v env with
        | Some bound -> if tup.(i) = bound then go env (i + 1) rest else None
        | None -> go (SMap.add v tup.(i) env) (i + 1) rest)
  in
  go env 0 args

(* Columns of [args] already determined by [env] (or constant), with the
   key they must equal: used to exploit relation indexes. *)
let bound_cols (env : env) (args : term list) : int list * int list =
  let cols, keys =
    List.fold_left
      (fun (cols, keys) (i, arg) ->
        match arg with
        | Const c -> (i :: cols, c :: keys)
        | Var v -> (
            match SMap.find_opt v env with
            | Some c -> (i :: cols, c :: keys)
            | None -> (cols, keys)))
      ([], [])
      (List.mapi (fun i a -> (i, a)) args)
  in
  (List.rev cols, List.rev keys)

let eval_atom t (env : env) (a : atom) ~(delta : Relation.t option) : env list =
  let rel = match delta with Some d -> d | None -> Hashtbl.find t.relations a.pred in
  let cols, key = bound_cols env a.args in
  let candidates = Relation.lookup rel ~cols ~key in
  List.filter_map (fun tup -> match_tuple env a.args tup) candidates

let term_value (env : env) = function
  | Const c -> c
  | Var v -> (
      match SMap.find_opt v env with
      | Some c -> c
      | None -> invalid_arg ("unbound variable in head or negation: " ^ v))

(* Evaluate the body with at most one atom read from a delta relation
   (semi-naive): [delta_at] is the index of the positive atom to source
   from [deltas] instead of the full relation. *)
let eval_rule t (rule : rule) ~(deltas : (string, Relation.t) Hashtbl.t) ~(delta_at : int option) :
    int array list =
  let rec go env i lits acc =
    match lits with
    | [] ->
        let tup = Array.of_list (List.map (term_value env) rule.head.args) in
        tup :: acc
    | Pos a :: rest ->
        (* when this atom is the designated delta position, source it from
           the delta relation; a predicate with no delta contributes
           nothing this round *)
        let delta =
          match delta_at with
          | Some j when j = i -> (
              match Hashtbl.find_opt deltas a.pred with
              | Some d -> Some d
              | None -> Some (Relation.create ~name:"#empty" ~arity:(List.length a.args) ()))
          | Some _ | None -> None
        in
        List.fold_left
          (fun acc env' -> go env' (i + 1) rest acc)
          acc
          (eval_atom t env a ~delta)
    | Neg a :: rest ->
        let cols, key = bound_cols env a.args in
        if List.length cols <> List.length a.args then
          invalid_arg ("negated atom with unbound variable in rule for " ^ rule.head.pred);
        let rel = Hashtbl.find t.relations a.pred in
        let tup = Array.of_list key in
        ignore cols;
        if Relation.mem rel tup then acc else go env (i + 1) rest acc
  in
  go SMap.empty 0 rule.body []

(* Count positive atoms, to know which delta positions exist. *)
let positive_positions rule =
  List.filter_map
    (fun (i, lit) -> match lit with Pos _ -> Some i | Neg _ -> None)
    (List.mapi (fun i l -> (i, l)) rule.body)

let solve_stratum t (rules : rule list) =
  (* deltas: tuples added in the previous iteration, per predicate *)
  let heads = List.sort_uniq String.compare (List.map (fun r -> r.head.pred) rules) in
  let mk_delta () =
    let h = Hashtbl.create 8 in
    List.iter
      (fun p ->
        let arity = Relation.arity (Hashtbl.find t.relations p) in
        (* deltas mirror tuples already charged to the persistent
           relations, so they stay unbudgeted to avoid double-counting *)
        Hashtbl.replace h p (Relation.create ~name:(p ^ "#d") ~arity ()))
      heads;
    h
  in
  (* Deltas that derived nothing contribute nothing next round; dropping
     them lets the loop skip the whole rule-position evaluation (which
     would otherwise enumerate the full join prefix before reaching the
     empty delta atom). Pruning never changes which tuples are derived or
     their derivation order, only skips provably empty evaluations. *)
  let prune h =
    let keep = Hashtbl.create 8 in
    Hashtbl.iter (fun p d -> if Relation.cardinal d > 0 then Hashtbl.replace keep p d) h;
    keep
  in
  (* cache per-rule positive positions; stable across iterations *)
  let rule_positions = List.map (fun rule -> (rule, positive_positions rule)) rules in
  (* naive first round: evaluate every rule on full relations *)
  let delta = mk_delta () in
  List.iter
    (fun rule ->
      let rel = Hashtbl.find t.relations rule.head.pred in
      List.iter
        (fun tup ->
          if Relation.add rel tup then ignore (Relation.add (Hashtbl.find delta rule.head.pred) tup))
        (eval_rule t rule ~deltas:(Hashtbl.create 0) ~delta_at:None))
    rules;
  let current = ref (prune delta) in
  while Hashtbl.length !current > 0 do
    let next = mk_delta () in
    List.iter
      (fun (rule, positions) ->
        List.iter
          (fun pos ->
            (* only source from a delta that actually has new tuples *)
            let a =
              match List.nth rule.body pos with
              | Pos a -> a
              | Neg _ -> assert false
            in
            if Hashtbl.mem !current a.pred then
              let rel = Hashtbl.find t.relations rule.head.pred in
              List.iter
                (fun tup ->
                  if Relation.add rel tup then
                    ignore (Relation.add (Hashtbl.find next rule.head.pred) tup))
                (eval_rule t rule ~deltas:!current ~delta_at:(Some pos)))
          positions)
      rule_positions;
    current := prune next
  done

let solve t =
  if not t.solved then begin
    let strata = stratify t in
    List.iter (fun rules -> solve_stratum t rules) strata;
    t.solved <- true
  end

(* -- queries ------------------------------------------------------------- *)

let mem t pred args =
  solve t;
  match Hashtbl.find_opt t.relations pred with
  | None -> false
  | Some rel -> Relation.mem rel (Array.of_list (List.map (Symbol.intern t.sym) args))

let query t pred : string array list =
  solve t;
  match Hashtbl.find_opt t.relations pred with
  | None -> []
  | Some rel ->
      Relation.fold
        (fun acc tup -> Array.map (Symbol.name t.sym) tup :: acc)
        [] rel

(* {!query}'s rows in {!query}'s order (last inserted first), without
   the names: clients that derive an order from the rows rely on it. *)
let query_ids t pred : int array list =
  solve t;
  match Hashtbl.find_opt t.relations pred with
  | None -> []
  | Some rel -> Relation.fold (fun acc tup -> tup :: acc) [] rel

let cardinal t pred =
  solve t;
  match Hashtbl.find_opt t.relations pred with None -> 0 | Some rel -> Relation.cardinal rel
