(* Month-over-month snapshot traffic of a netsim world, the stream a
   monthly [extend] folds in. For every scan month, in order: the
   distinct moduli the month's scans carry, how many of them no earlier
   month carried (the fresh moduli a delta adds), and how many fresh
   moduli share a prime with a modulus seen earlier or in the same
   month. The [extend] workload's delta sizes and rates are derived
   from these counts (see README.md). Not timed. *)

module W = Netsim.World
module Sc = Netsim.Scanner

let month (s : Sc.scan) =
  let y, m, _ = X509lite.Date.to_ymd s.Sc.scan_date in
  (y * 100) + m

let run ~seed ~scale =
  let world = W.build { W.default_config with W.seed; scale } in
  let scans = Sc.run_all world in
  let months = List.sort_uniq compare (List.map month scans) in
  let seen = Corpus.Store.create ~size:4096 () in
  let primes = Corpus.Store.create ~size:4096 () in
  let row ym =
    let month_moduli = Corpus.Store.create ~size:1024 () in
    List.iter
      (fun s ->
        if month s = ym then
          Array.iter
            (fun (r : Sc.host_record) ->
              ignore
                (Corpus.Store.intern month_moduli
                   r.Sc.cert.X509lite.Certificate.public_key.Rsa.Keypair.n
                  : int))
            s.Sc.records)
      scans;
    let moduli = Corpus.Store.to_array month_moduli in
    let fresh = ref 0 and shared = ref 0 in
    Array.iter
      (fun m ->
        let before = Corpus.Store.size seen in
        if Corpus.Store.intern seen m >= before then begin
          incr fresh;
          match W.factors_of world m with
          | None -> ()
          | Some (p, q) ->
            let known = Corpus.Store.mem primes in
            if known p || known q then incr shared;
            ignore (Corpus.Store.intern primes p : int);
            ignore (Corpus.Store.intern primes q : int)
        end)
      moduli;
    Out.Obj
      [
        ("month", Out.Int ym);
        ("distinct", Out.Int (Array.length moduli));
        ("fresh", Out.Int !fresh);
        ("shared", Out.Int !shared);
      ]
  in
  [ ("months", Out.List (List.map row months)) ]
