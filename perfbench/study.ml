(* The [study] workload: the [weakkeys report] path — world build,
   scan campaigns, the staged pipeline, report rendering — for one
   world seed and scale. *)

module W = Netsim.World
module P = Weakkeys.Pipeline
module R = Weakkeys.Report

let sections : (string * (P.t -> string)) list =
  [
    ("table1", R.table1);
    ("table2", fun _ -> R.table2 ());
    ("table3", R.table3);
    ("table4", R.table4);
    ("table5", R.table5);
    ("figure1", R.figure1);
    ("figure2", R.figure2);
    ("figure3", R.figure3);
    ("figure4", R.figure4);
    ("figure5", R.figure5);
    ("figure6", R.figure6);
    ("figure7", R.figure7);
    ("figure8", R.figure8);
    ("figure9", R.figure9);
    ("figure10", R.figure10);
    ("rimon_section", R.rimon_section);
    ("bit_error_section", R.bit_error_section);
    ("overlap_section", R.overlap_section);
    ("response_correlation_section", R.response_correlation_section);
  ]

(* Findings equal the ground truth restricted to the corpus: a corpus
   modulus is weak iff one of its primes divides another corpus
   modulus. Moduli the world never generated (bit errors) may be
   flagged too. Finding indexes are corpus positions. *)
let findings_match_truth (p : P.t) =
  let factors = W.factors_of p.P.world in
  let primes = Corpus.Store.create ~size:4096 () in
  let ids =
    Array.map
      (fun m ->
        Option.map
          (fun (a, b) ->
            (Corpus.Store.intern primes a, Corpus.Store.intern primes b))
          (factors m))
      p.P.corpus
  in
  let uses = Array.make (Corpus.Store.size primes) 0 in
  let bump i = uses.(i) <- uses.(i) + 1 in
  Array.iter (Option.iter (fun (a, b) -> bump a; bump b)) ids;
  let weak =
    Array.map
      (function Some (a, b) -> uses.(a) >= 2 || uses.(b) >= 2 | None -> false)
      ids
  in
  List.for_all
    (fun (f : Batchgcd.Batch_gcd.finding) ->
      let i = f.Batchgcd.Batch_gcd.index in
      weak.(i) || ids.(i) = None)
    p.P.findings
  && Array.for_all2
       (fun w m -> (not w) || P.is_vulnerable p m)
       weak p.P.corpus

(* Stage completions arrive through the pipeline's progress callback
   as "stage NAME ..." lines, in the same order as [P.t.timings]. The
   callback time is the stage's end; its start is end minus the
   recorded seconds. Attribution passes ("pass:NAME") run concurrently
   inside the attribution stage and get no span of their own. *)
let stage_spans ends (timings : Weakkeys.Stage.timing list) =
  List.iter2
    (fun (stop, parent) (tm : Weakkeys.Stage.timing) ->
      let name = tm.Weakkeys.Stage.stage in
      if not (String.starts_with ~prefix:"pass:" name) then
        Span.add ~parent ("core.stage." ^ name)
          ~start:(stop -. tm.Weakkeys.Stage.seconds) ~stop)
    ends timings

let num x = Out.Num x

let run ~seed ~scale ~trace =
  let config = { W.default_config with W.seed; scale } in
  let alloc0 = Out.allocated_mb () in
  let world, world_s =
    Span.measure "netsim.world_build" (fun () -> W.build config)
  in
  let alloc1 = Out.allocated_mb () in
  let scans, scans_s =
    Span.measure "netsim.scan_campaigns" (fun () ->
        Netsim.Scanner.run_all world)
  in
  let ends = ref [] in
  let progress msg =
    if trace && String.starts_with ~prefix:"stage " msg then
      ends := (Span.now (), Span.current ()) :: !ends
  in
  let p, pipeline_s =
    Span.measure "core.pipeline" (fun () -> P.of_scans ~progress world scans)
  in
  let alloc2 = Out.allocated_mb () in
  let report, report_s, section_times =
    if trace then begin
      let parts, report_s =
        Span.measure "report.total" (fun () ->
            List.map
              (fun (name, f) ->
                Span.measure ("report." ^ name) (fun () -> f p))
              sections)
      in
      ( String.concat "\n" (List.map fst parts),
        report_s,
        List.map2 (fun (name, _) (_, s) -> (name, num s)) sections parts )
    end
    else
      let report, report_s =
        Span.measure "report.total" (fun () -> R.full_report p)
      in
      (report, report_s, [])
  in
  let alloc3 = Out.allocated_mb () in
  if trace then stage_spans (List.rev !ends) p.P.timings;
  let truth_ok =
    Span.span "check.ground_truth" (fun () -> findings_match_truth p)
  in
  let digest =
    Span.span "check.report_digest" (fun () ->
        Hashes.Sha256.hexdigest report)
  in
  [
    ("total_s", num (world_s +. scans_s +. pipeline_s +. report_s));
    ("setup_s", num world_s);
    ("world_s", num world_s);
    ("scan_campaigns_s", num scans_s);
    ("pipeline_s", num pipeline_s);
    ("report_s", num report_s);
    ("corpus_moduli", Out.Int (Array.length p.P.corpus));
    ("findings", Out.Int (List.length p.P.findings));
    ("report_bytes", Out.Int (String.length report));
    ("report_sha256", Out.Str digest);
    ("truth_ok", Out.Bool truth_ok);
    ( "stages",
      Out.Obj
        (List.map
           (fun (tm : Weakkeys.Stage.timing) ->
             (tm.Weakkeys.Stage.stage, num tm.Weakkeys.Stage.seconds))
           p.P.timings) );
    ("sections", Out.Obj section_times);
    ( "alloc_mb",
      Out.Obj
        [
          ("world", num (alloc1 -. alloc0));
          ("pipeline", num (alloc2 -. alloc1));
          ("report", num (alloc3 -. alloc2));
        ] );
  ]
