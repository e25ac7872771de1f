(* The [extend] workload: a base corpus ingested once, then a sequence
   of deltas each folded in by the CLI [extend] cycle — load the
   checkpoint, dedup the delta through a [Corpus.Store], extend the
   segment forest, save the checkpoint. The delta backend is the one
   [Backend.select] picks for the delta's size, so small deltas take
   the all-to-all path and large ones the tree path. *)

module BG = Batchgcd.Batch_gcd
module B = Batchgcd.Backend
module Inc = Batchgcd.Incremental

let state_path dir = Filename.concat dir "incremental.ckpt"

let save_state dir inc =
  let path = state_path dir in
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Inc.save oc inc);
  Sys.rename tmp path

let load_state dir = In_channel.with_open_bin (state_path dir) Inc.load

let dedup inc delta =
  let old = Inc.corpus inc in
  let store = Corpus.Store.create ~size:(2 * Array.length old) () in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m : int)) old;
  let fresh = ref [] in
  Array.iter
    (fun m ->
      let before = Corpus.Store.size store in
      if Corpus.Store.intern store m >= before then fresh := m :: !fresh)
    delta;
  Array.of_list (List.rev !fresh)

let cycle dir delta =
  let inc, load_s =
    Span.measure "corpus.ckpt_load" (fun () -> load_state dir)
  in
  let fresh, dedup_s =
    Span.measure "corpus.dedup" (fun () -> dedup inc delta)
  in
  let pick = (B.select ~purpose:`Delta ~n:(Array.length fresh) ()).B.name in
  let inc, extend_s =
    Span.measure "batchgcd.extend" (fun () ->
        Inc.extend ~backend:pick inc fresh)
  in
  let (), save_s =
    Span.measure "corpus.ckpt_save" (fun () -> save_state dir inc)
  in
  ( inc,
    Out.Obj
      [
        ("load_s", Out.Num load_s);
        ("dedup_s", Out.Num dedup_s);
        ("extend_s", Out.Num extend_s);
        ("save_s", Out.Num save_s);
        ("fresh", Out.Int (Array.length fresh));
        ("pick", Out.Str pick);
        ("findings", Out.Int (List.length (Inc.findings inc)));
      ] )

let run ~base_file ~deltas_file ~dir ~trace =
  let base, deltas =
    Span.span "fixture.read" (fun () ->
        ( Bulk.parse_hex (Bulk.read_lines base_file),
          List.map
            (fun line -> Bulk.parse_hex (String.split_on_char ',' line))
            (Bulk.read_lines deltas_file) ))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let (), setup_s =
    Span.measure "setup.base_ingest" (fun () ->
        let inc =
          Span.span "batchgcd.create" (fun () ->
              Inc.create ~k:B.default_subsets base)
        in
        Span.span "corpus.ckpt_save" (fun () -> save_state dir inc))
  in
  (* Only the latest forest is kept alive; each cycle reloads it. *)
  let final, cycles =
    List.fold_left
      (fun (_, acc) delta ->
        let (inc, row), s =
          Span.measure "extend.cycle" (fun () -> cycle dir delta)
        in
        (Some inc, (s, row) :: acc))
      (None, []) deltas
  in
  let final = Option.get final and cycles = List.rev cycles in
  let base_out =
    [
      ("setup_s", Out.Num setup_s);
      ("cycle_s", Out.List (List.map (fun (s, _) -> Out.Num s) cycles));
      ("cycles", Out.List (List.map snd cycles));
      ("segments", Out.Int (Inc.segment_count final));
      ("corpus_moduli", Out.Int (Inc.corpus_size final));
      ("ckpt_bytes", Out.Int (Unix.stat (state_path dir)).Unix.st_size);
      ("findings_list", Out.findings (Inc.findings final));
    ]
  in
  if not trace then base_out
  else
    let agree =
      Span.span "check.from_scratch_tree" (fun () ->
          BG.findings_equal (Inc.findings final)
            (B.factor B.tree (Inc.corpus final)))
    in
    base_out @ [ ("from_scratch_agree", Out.Bool agree) ]
