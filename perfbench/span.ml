(* In-memory span recorder for one benchmark pass.

   Spans are recorded from the benchmark's own code, around calls into
   the library's public functions; nothing inside the library is
   instrumented. Times are seconds on the monotonic clock since the
   process started. When tracing is off, [measure] still returns the
   duration (the untraced passes need it) but records nothing. *)

type t = { name : string; start : float; stop : float; parent : int }

let origin = Monotonic_clock.now ()

let now () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

let tracing = ref false
let next_id = ref 0
let stack : int list ref = ref []

(* Ids are assigned at span start, so a parent always has a smaller id
   than its children; [all] returns spans sorted by id, which makes a
   span's position in that list its id. *)
let slots : (int * t) list ref = ref []

let current () = match !stack with id :: _ -> id | [] -> -1

(* A span whose interval was measured elsewhere (e.g. a pipeline stage
   reported through a callback). *)
let add ~parent name ~start ~stop =
  if !tracing then begin
    slots := (!next_id, { name; start; stop; parent }) :: !slots;
    incr next_id
  end

let measure name f =
  let start = now () in
  if not !tracing then begin
    let v = f () in
    (v, now () -. start)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = current () in
    stack := id :: !stack;
    let finish () =
      stack := List.tl !stack;
      let stop = now () in
      slots := (id, { name; start; stop; parent }) :: !slots;
      stop -. start
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish () : float);
      raise e
  end

let span name f = fst (measure name f)

let all () =
  List.map snd (List.sort (fun (a, _) (b, _) -> Int.compare a b) !slots)
