(* Min-heap ordered by (time, insertion sequence) over three parallel
   arrays: ties resolve in insertion order, which keeps simulations
   deterministic. Sifts move a hole instead of swapping, writing each
   displaced event once. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { times = [||]; seqs = [||]; payloads = [||]; size = 0; next_seq = 0 }

let size t = t.size

let is_empty t = t.size = 0

let resize t capacity =
  let times = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let payloads = Array.make capacity 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.payloads 0 payloads 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

(* Event [src] moves into slot [dst]. *)
let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.payloads.(dst) <- t.payloads.(src)

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: nan time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size >= Array.length t.times then resize t (max 16 (2 * Array.length t.times));
  (* The new event's sequence number exceeds every queued one, so it
     rises past a parent only on a strictly earlier time. *)
  let i = ref t.size in
  while !i > 0 && time < t.times.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.payloads.(!i) <- payload;
  t.size <- t.size + 1

let[@inline] top_time t =
  if t.size = 0 then invalid_arg "Event_queue.top_time: empty queue";
  t.times.(0)

(* Halve the backing arrays once they are no more than a quarter full,
   so a queue that briefly spiked does not pin its peak-sized arrays. *)
let maybe_shrink t =
  let capacity = Array.length t.times in
  if capacity > 16 && t.size <= capacity / 4 then resize t (capacity / 2)

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let payload = t.payloads.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* Sift the last event down from the root. *)
    let time = t.times.(last) and seq = t.seqs.(last) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let left = (2 * !i) + 1 in
      if left >= last then sifting := false
      else begin
        let right = left + 1 in
        let child =
          if
            right < last
            && (t.times.(right) < t.times.(left)
               || (t.times.(right) = t.times.(left) && t.seqs.(right) < t.seqs.(left)))
          then right
          else left
        in
        if t.times.(child) < time || (t.times.(child) = time && t.seqs.(child) < seq) then begin
          move t ~src:child ~dst:!i;
          i := child
        end
        else sifting := false
      end
    done;
    move t ~src:last ~dst:!i
  end;
  maybe_shrink t;
  payload

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take t)
