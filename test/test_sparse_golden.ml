(* Golden pins for the sparse overlays and the storage plane riding
   them. Each value below is an MD5 of a canonical text rendering,
   recorded once from the OCaml reference implementation; any change to
   the sparse draw order, to a contact, to the post-build PRNG state, to
   a sparse route or to replica placement changes a digest. The values
   must never be edited to make a test pass: a mismatch means the
   sparse build or route no longer reproduces the reference stream. *)

let families =
  [
    ("tree", Rcm.Geometry.Tree);
    ("xor", Rcm.Geometry.Xor);
    ("ring", Rcm.Geometry.Ring);
    ("symphony", Rcm.Geometry.default_symphony);
    ("record:h=4", Geom_record.geometry ~h:4 ());
  ]

(* One dense-regime size (2 * nodes >= 2^bits: the shuffle sampler)
   and one sparse-regime size (the rejection sampler, with empty prefix
   ranges and so [missing] contacts). *)
let sizes = [ ("dense", 8, 200); ("sparse", 12, 300) ]

let build_digest geometry ~bits ~nodes =
  let rng = Prng.Splitmix.create ~seed:0x601d in
  let t = Overlay.Sparse.build ~rng ~bits ~nodes geometry in
  let b = Buffer.create 65536 in
  for v = 0 to Overlay.Sparse.node_count t - 1 do
    Printf.bprintf b "%d:" (Overlay.Sparse.id_of t v);
    Array.iter (Printf.bprintf b "%d,") (Overlay.Sparse.contacts t v);
    Buffer.add_char b '\n'
  done;
  Printf.bprintf b "state=%Ld\n" (Prng.Splitmix.state rng);
  Digest.to_hex (Digest.string (Buffer.contents b))

let storage_config =
  {
    Storage.Failure_sim.bits = 10;
    nodes = 300;
    keys = 64;
    reads = 400;
    zipf_s = 0.8;
    quorum = Storage.Quorum.majority ~r:3;
    trials = 2;
  }

(* The whole result record plus the loadmap the run fills: routes,
   repairs and reads land in it node by node. *)
let storage_digest geometry =
  let lm = Obs.Loadmap.create ~nodes:storage_config.nodes in
  let r =
    Obs.Loadmap.with_sink lm (fun () ->
        Storage.Failure_sim.run geometry storage_config ~q:0.3 ~seed:17)
  in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %d %d %s %h %h %d %d %d %d %h %d\n"
    r.Storage.Failure_sim.attempted r.quorum_reads r.degraded_reads r.failed_reads
    r.no_client
    (match r.availability with None -> "none" | Some a -> Printf.sprintf "%h" a)
    r.survival r.mean_alive r.probe_routes r.repair_routes r.repair_transfers r.load_max
    r.load_mean r.load_p99;
  List.iter
    (fun kind ->
      Array.iter (Printf.bprintf b "%d,") (Obs.Loadmap.counts lm kind);
      Buffer.add_char b '\n')
    Obs.Loadmap.all_kinds;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_build =
  [
    (("tree", "dense"), "e3d6c6c15d8128e72c0a7b9a5f544e51");
    (("tree", "sparse"), "a6f66a5572c5563f02dcc2e04474b790");
    (("xor", "dense"), "e3d6c6c15d8128e72c0a7b9a5f544e51");
    (("xor", "sparse"), "a6f66a5572c5563f02dcc2e04474b790");
    (("ring", "dense"), "fb94b5873f94c429c0af64636c9d86b7");
    (("ring", "sparse"), "f9646904231dba1799c0ebe360729c09");
    (("symphony", "dense"), "5268692e0c304dc396ef8ecf3ef2e1d3");
    (("symphony", "sparse"), "01b63313d4b75f29aad0568195b9fd7d");
    (("record:h=4", "dense"), "6c1f9afb5744a94e486fc3348726ef5f");
    (("record:h=4", "sparse"), "c6b6fa05948e76cd8c89143f2ce8be18");
  ]

let expected_storage =
  [
    ("tree", "35018a72feb2a22b0a7e46db0307ea98");
    ("xor", "47c90989727a49a282fe2f7aefe3901d");
    ("ring", "febf4ac817b89d346ccd0239f2e1445d");
    ("symphony", "c15932bee36e5d2bcb5bfa7ec763e847");
    ("record:h=4", "a69fcd8cce62b404a090abc050208951");
  ]

(* Every mismatch is reported, not just the first, so one run shows
   the whole extent of a divergence. *)
let check_all what cases =
  let bad =
    List.filter_map
      (fun (label, expected, actual) ->
        if String.equal expected actual then None
        else Some (Printf.sprintf "%s: expected %S, got %S" label expected actual))
      cases
  in
  if bad <> [] then Alcotest.failf "%s digests differ:\n%s" what (String.concat "\n" bad)

let test_build () =
  check_all "sparse build"
    (List.concat_map
       (fun (name, geometry) ->
         List.map
           (fun (regime, bits, nodes) ->
             ( Printf.sprintf "%s %s (bits=%d nodes=%d)" name regime bits nodes,
               List.assoc (name, regime) expected_build,
               build_digest geometry ~bits ~nodes ))
           sizes)
       families)

let test_storage () =
  check_all "failure sim"
    (List.map
       (fun (name, geometry) ->
         (name, List.assoc name expected_storage, storage_digest geometry))
       families)

let suite =
  [
    ("sparse build contacts + rng state", `Quick, test_build);
    ("failure sim result + loadmap", `Quick, test_storage);
  ]
