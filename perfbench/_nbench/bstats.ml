(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quantile [q] in [0, 1] of a sorted, non-empty array, linearly
   interpolated between the closest ranks. *)
let at q a =
  let n = Array.length a in
  let pos = Float.min 1.0 (Float.max 0.0 q) *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* 0 for no samples. *)
let median xs = match sorted xs with [||] -> 0.0 | a -> at 0.5 a

(* The mean of the quantiles [q - 0.05], [q - 0.04], ..., [q + 0.05]: a
   quantile that moves smoothly when the samples fall in clusters (a
   few dozen inputs, each with its own cost), where the plain quantile
   jumps across the gap between two clusters whenever a few samples
   change sides. 0 for no samples. *)
let smooth_quantile q xs =
  match sorted xs with
  | [||] -> 0.0
  | a -> List.fold_left (fun acc i -> acc +. at (q +. (float_of_int (i - 5) /. 100.0)) a) 0.0 (List.init 11 Fun.id) /. 11.0

let sum xs = List.fold_left ( +. ) 0.0 xs

(* [num / den], 0 when nothing was measured. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
