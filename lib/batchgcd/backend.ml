module N = Bignum.Nat
module BG = Batch_gcd

type caps = { incremental : bool; sharded : bool }

type t = {
  name : string;
  doc : string;
  caps : caps;
  factor :
    ?pool:Parallel.Pool.t -> ?domains:int -> N.t array -> BG.finding list;
}

exception Unknown_backend of string

let default_subsets = 16

let tree =
  {
    name = "tree";
    doc = "Bernstein product/remainder trees (one tree, complement descent)";
    caps = { incremental = true; sharded = true };
    factor = BG.factor_batch;
  }

let ksubset_k k =
  {
    name = "ksubset";
    doc =
      Printf.sprintf
        "the paper's k-subset split (k=%d trees, k^2 reduction jobs)" k;
    caps = { incremental = false; sharded = false };
    factor = (fun ?pool ?domains moduli -> BG.factor_subsets ?pool ?domains ~k moduli);
  }

let ksubset = ksubset_k default_subsets

let all_to_all =
  {
    name = "all_to_all";
    doc = "Pelofske all-to-all node-pair pruning (no remainder trees)";
    caps = { incremental = true; sharded = true };
    factor = All_to_all.factor;
  }

let builtin = [ tree; ksubset; all_to_all ]

let names () = List.map (fun b -> b.name) builtin
let find name = List.find_opt (fun b -> String.equal b.name name) builtin

let get name =
  match find name with Some b -> b | None -> raise (Unknown_backend name)

let factor b = b.factor

(* ------------------------------------------------------------------ *)
(* Selection policy                                                    *)
(* ------------------------------------------------------------------ *)

let env_var = "WEAKKEYS_BACKEND"
let threshold_var = "WEAKKEYS_ALL_TO_ALL_THRESHOLD"
let default_all_to_all_threshold = 48

let all_to_all_threshold () =
  match Sys.getenv_opt threshold_var with
  | None | Some "" -> default_all_to_all_threshold
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v >= 0 -> v
    | _ ->
      invalid_arg
        (Printf.sprintf "%s must be a non-negative integer, got `%s`"
           threshold_var s))

let of_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some name -> Some (get name)

let capable purpose b =
  match purpose with
  | `Shard -> b.caps.sharded
  | `Delta -> b.caps.incremental

let select ?override ~purpose ~n () =
  match override with
  | Some name ->
    let b = get name in
    if capable purpose b then b
    else
      invalid_arg
        (Printf.sprintf
           "Batchgcd.Backend: `%s` cannot run as a %s backend" name
           (match purpose with `Shard -> "per-shard" | `Delta -> "delta"))
  | None -> (
    match of_env () with
    | Some b when capable purpose b -> b
    | Some _ | None ->
      if n <= all_to_all_threshold () then all_to_all else tree)
