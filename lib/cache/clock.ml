(* CLOCK (second-chance) replacement, the paper's default manager for the
   basic condition parts stored in a PMV (Section 3.2).

   Resident keys live in a circular array of slots, each with a reference
   bit. A hit sets the bit; admission fills a free slot if one exists,
   otherwise sweeps the hand, clearing bits, and evicts the first slot
   found with a clear bit. *)

type 'k slot = { mutable key : 'k option; mutable refbit : bool }

(* Key -> slot index. Chained buckets hashed and compared as in a
   polymorphic Stdlib.Hashtbl, but [find] answers -1 for an absent key:
   a hit (every resident buffer-pool page access) boxes no option, and
   a miss raises nothing, which would cost more than the lookup. The
   bucket count is a power of two that doubles once keys outnumber it
   twice over. *)
module Pos = struct
  type 'k bucket = Nil | Cons of { key : 'k; mutable slot : int; mutable next : 'k bucket }
  type 'k t = { mutable buckets : 'k bucket array; mutable size : int }

  let create n =
    let rec pow2 b = if b >= n then b else pow2 (2 * b) in
    { buckets = Array.make (pow2 16) Nil; size = 0 }

  let index t k = Hashtbl.hash k land (Array.length t.buckets - 1)

  let rec find_in k = function
    | Nil -> -1
    | Cons c -> if compare c.key k = 0 then c.slot else find_in k c.next

  let find t k = find_in k t.buckets.(index t k)
  let mem t k = find t k >= 0
  let length t = t.size

  let grow t =
    let old = t.buckets in
    t.buckets <- Array.make (2 * Array.length old) Nil;
    let rec reinsert = function
      | Nil -> ()
      | Cons c ->
          let next = c.next in
          let i = index t c.key in
          c.next <- t.buckets.(i);
          t.buckets.(i) <- Cons c;
          reinsert next
    in
    Array.iter reinsert old

  let rec set_in k slot = function
    | Nil -> false
    | Cons c -> if compare c.key k = 0 then (c.slot <- slot; true) else set_in k slot c.next

  let replace t k slot =
    let i = index t k in
    if not (set_in k slot t.buckets.(i)) then begin
      t.buckets.(i) <- Cons { key = k; slot; next = t.buckets.(i) };
      t.size <- t.size + 1;
      if t.size > 2 * Array.length t.buckets then grow t
    end

  (* unlink [k]'s cell, writing only the one link that changes *)
  let rec remove_in t i k prev = function
    | Nil -> ()
    | Cons c as b ->
        if compare c.key k = 0 then begin
          t.size <- t.size - 1;
          match prev with Nil -> t.buckets.(i) <- c.next | Cons p -> p.next <- c.next
        end
        else remove_in t i k b c.next

  let remove t k =
    let i = index t k in
    remove_in t i k Nil t.buckets.(i)

  let iter f t =
    let rec chain = function Nil -> () | Cons c -> f c.key; chain c.next in
    Array.iter chain t.buckets
end

type 'k state = {
  mutable slots : 'k slot array;
  pos : 'k Pos.t;
  mutable hand : int;
  mutable free : int list;  (* empty slot indexes *)
  mutable on_evict : 'k -> unit;
  stats : Cache_stats.t;
}

(* Sweep the hand until a slot with a clear reference bit is found,
   clearing bits on the way. Terminates: after one full revolution every
   bit is clear. Only called when no slot is free, so every slot holds a
   key. *)
let find_victim st =
  let n = Array.length st.slots in
  let rec sweep () =
    let i = st.hand in
    st.hand <- (st.hand + 1) mod n;
    let s = st.slots.(i) in
    if s.refbit then begin
      s.refbit <- false;
      sweep ()
    end
    else i
  in
  sweep ()

let evict_at st i =
  let s = st.slots.(i) in
  match s.key with
  | None -> ()
  | Some k ->
      s.key <- None;
      s.refbit <- false;
      Pos.remove st.pos k;
      st.stats.Cache_stats.evictions <- st.stats.Cache_stats.evictions + 1;
      st.on_evict k

let admit st k =
  let i =
    match st.free with
    | i :: rest ->
        st.free <- rest;
        i
    | [] ->
        let i = find_victim st in
        evict_at st i;
        i
  in
  let s = st.slots.(i) in
  s.key <- Some k;
  s.refbit <- true;
  Pos.replace st.pos k i

(* Rebuild the circular array at the new size. Shrinking first evicts
   by the normal hand sweep until the survivors fit; the rebuild packs
   surviving slots in hand order (so second-chance order is preserved)
   and resets the hand to the front. *)
let resize st n =
  let old_n = Array.length st.slots in
  if n <> old_n then begin
    while Pos.length st.pos > n do
      evict_at st (find_victim st)
    done;
    let slots = Array.init n (fun _ -> { key = None; refbit = false }) in
    let filled = ref 0 in
    for d = 0 to old_n - 1 do
      let s = st.slots.((st.hand + d) mod old_n) in
      match s.key with
      | Some k ->
          slots.(!filled).key <- Some k;
          slots.(!filled).refbit <- s.refbit;
          Pos.replace st.pos k !filled;
          incr filled
      | None -> ()
    done;
    st.slots <- slots;
    st.hand <- 0;
    st.free <- List.init (n - !filled) (fun i -> n - 1 - i)
  end

let create ~capacity : 'k Policy.t =
  if capacity <= 0 then invalid_arg "Clock.create: capacity must be positive";
  let st =
    {
      slots = Array.init capacity (fun _ -> { key = None; refbit = false });
      pos = Pos.create (2 * capacity);
      hand = 0;
      free = List.init capacity (fun i -> i);
      on_evict = ignore;
      stats = Cache_stats.create ();
    }
  in
  let mem k = Pos.mem st.pos k in
  let reference k =
    st.stats.Cache_stats.references <- st.stats.Cache_stats.references + 1;
    let i = Pos.find st.pos k in
    if i >= 0 then begin
      st.slots.(i).refbit <- true;
      st.stats.Cache_stats.hits <- st.stats.Cache_stats.hits + 1;
      `Resident
    end
    else begin
      st.stats.Cache_stats.rejections <- st.stats.Cache_stats.rejections + 1;
      `Rejected
    end
  in
  let admit k =
    if not (Pos.mem st.pos k) then begin
      admit st k;
      st.stats.Cache_stats.admissions <- st.stats.Cache_stats.admissions + 1
    end
  in
  let remove k =
    let i = Pos.find st.pos k in
    if i >= 0 then begin
      let s = st.slots.(i) in
      s.key <- None;
      s.refbit <- false;
      Pos.remove st.pos k;
      st.free <- i :: st.free
    end
  in
  let size () = Pos.length st.pos in
  let iter f = Pos.iter f st.pos in
  let set_on_evict f = st.on_evict <- f in
  {
    Policy.name = "clock";
    capacity;
    admit_on_fill = true;
    mem;
    reference;
    admit;
    remove;
    size;
    iter;
    set_on_evict;
    resize = (fun n -> resize st n);
    stats = st.stats;
  }
