(* Growable sample buffers with exact quantiles, and the small helpers
   the report needs. Samples are nanoseconds (or any int). *)

type t = { mutable a : int array; mutable n : int }

let create () = { a = Array.make 4096 0; n = 0 }
let length t = t.n

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let add64 t x = add t (Int64.to_int x)

(* Samples [i, j) as a buffer of their own. *)
let sub t i j = { a = Array.sub t.a i (j - i); n = j - i }

(* Nearest-rank quantile: the sample of rank ceil(p * n); 0 when empty. *)
let quantile t p =
  if t.n = 0 then 0
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
    s.(max 0 (min (t.n - 1) (rank - 1)))
  end

(* Share of samples at or below [limit]; 0 when empty. *)
let share_within t limit =
  if t.n = 0 then 0.0
  else begin
    let k = ref 0 in
    for i = 0 to t.n - 1 do
      if t.a.(i) <= limit then incr k
    done;
    float_of_int !k /. float_of_int t.n
  end

let us ns = float_of_int ns /. 1000.0
let q_us t p = us (quantile t p)
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
