(* Order statistics over measured samples. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  match Array.length a with
  | 0 -> nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   eleventh-largest sample, at percentile 100 (n - 10) / n.  Below
   twenty samples that percentile would fall under the median, so the
   maximum is reported instead (as percentile 100). *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n < 20 then (100.0, if n = 0 then nan else a.(n - 1))
  else (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let sum = List.fold_left ( +. ) 0.0
