let check o ~key ~count =
  let n = Overlay.Sparse.node_count o in
  let bits = Overlay.Sparse.bits o in
  if count < 0 || count > n then
    invalid_arg "Placement: count outside [0, node_count]";
  if key < 0 || key >= 1 lsl bits then
    invalid_arg "Placement: key outside the identifier space"

(* Successor-list placement: the first [count] nodes clockwise from the
   key (inclusive), i.e. consecutive indexes in the sorted id array
   starting at [successor_index]. *)
let successor_set o ~key ~count =
  let n = Overlay.Sparse.node_count o in
  let first = Overlay.Sparse.successor_index o key in
  Array.init count (fun k -> (first + k) mod n)

(* Neighbourhood placement: the [count] nodes XOR-closest to the key,
   found by trie descent over the sorted id array. At prefix depth
   [level] the nodes sharing the key's [level]-bit prefix form one
   contiguous index range; every node in the half that matches the
   key's next bit is XOR-closer than any node in the other half, so we
   recurse near-half first and fill the remainder from the far half.
   O(count · bits) range lookups, each O(log n). *)
let closest_set o ~key ~count =
  let bits = Overlay.Sparse.bits o in
  let acc = Array.make count 0 in
  let filled = ref 0 in
  let take lo hi =
    for i = lo to hi - 1 do
      acc.(!filled) <- i;
      incr filled
    done
  in
  let rec go pattern level need =
    if need > 0 then begin
      let lo, hi = Overlay.Sparse.prefix_range o ~pattern ~prefix_len:level in
      let size = hi - lo in
      if size <= need then take lo hi
      else begin
        let next = level + 1 in
        let bit = 1 lsl (bits - next) in
        let near = pattern land lnot bit lor (key land bit) in
        let before = !filled in
        go near next need;
        go (near lxor bit) next (need - (!filled - before))
      end
    end
  in
  go key 0 count;
  (* Subtree collection preserves index order, not distance order;
     sort by XOR distance to the key. Ids are distinct, so distances
     are too, and sorting (distance lsl 30) lor index — both below
     2^30 — as plain ints gives the distance order, each distance
     read once from the off-heap ids. *)
  let ids = Overlay.Sparse.ids o in
  let keyed =
    Array.map
      (fun i -> ((Int32.to_int (Bigarray.Array1.unsafe_get ids i) lxor key) lsl 30) lor i)
      acc
  in
  Array.sort Int.compare keyed;
  Array.map (fun k -> k land ((1 lsl 30) - 1)) keyed

(* Custom-family placement styles: a plugin picks which of the two
   placement structures its family uses (the structures themselves are
   geometry-independent — both work on any sorted id array). *)
type style = [ `Successors | `Closest ]

let custom_styles : (string, style) Hashtbl.t = Hashtbl.create 8

let register_custom_style ~family style =
  if Hashtbl.mem custom_styles family then
    invalid_arg
      (Printf.sprintf "Placement.register_custom_style: %S already registered" family);
  Hashtbl.replace custom_styles family style

let candidates o ~key ~count =
  check o ~key ~count;
  match Overlay.Sparse.geometry o with
  | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> successor_set o ~key ~count
  | Rcm.Geometry.Tree | Rcm.Geometry.Xor -> closest_set o ~key ~count
  | Rcm.Geometry.Hypercube ->
      invalid_arg "Placement.candidates: no sparse hypercube overlay exists"
  | Rcm.Geometry.Custom { family; _ } -> (
      match Hashtbl.find_opt custom_styles family with
      | Some `Successors -> successor_set o ~key ~count
      | Some `Closest -> closest_set o ~key ~count
      | None ->
          invalid_arg
            (Printf.sprintf
               "Placement.candidates: family %S has no registered placement style"
               family))

let replica_set o ~key ~r = candidates o ~key ~count:r
