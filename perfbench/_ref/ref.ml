(* The benchmark's fixed reference load. It shares no code with the
   repository and is built in a dune workspace of its own, so no change to
   the program or to its build flags moves it; only the speed of the core it
   runs on does. It builds a finger table over a ring of 2^15 nodes and
   routes pseudo-random pairs greedily on it, as the overlay and routing
   layers do. Prints the total hop count, which is fixed for a given number
   of pairs. *)

let bits = 15
let n = 1 lsl bits

let () =
  let pairs = int_of_string Sys.argv.(1) in
  let state = ref 0x1E3779B97F4A7C15 in
  let next () =
    state := !state + 0x1E3779B97F4A7C15;
    let z = !state in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int
  in
  let table = Array.make (n * bits) 0 in
  for i = 0 to n - 1 do
    for j = 0 to bits - 1 do
      let span = 1 lsl j in
      table.((i * bits) + j) <- (i + span + (next () mod span)) land (n - 1)
    done
  done;
  let hops = ref 0 in
  for _ = 1 to pairs do
    let dst = next () land (n - 1) in
    let cur = ref (next () land (n - 1)) in
    let path = ref [] in
    while !cur <> dst do
      let gap = (dst - !cur) land (n - 1) in
      let best = ref ((!cur + 1) land (n - 1)) in
      for j = bits - 1 downto 0 do
        let f = table.((!cur * bits) + j) in
        let step = (f - !cur) land (n - 1) in
        if step <= gap && step > (!best - !cur) land (n - 1) then best := f
      done;
      cur := !best;
      path := !cur :: !path;
      incr hops
    done;
    ignore (Sys.opaque_identity !path)
  done;
  Printf.printf "%d\n" !hops
