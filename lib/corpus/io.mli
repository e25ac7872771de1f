(** Binary channel serialization helpers for checkpoint files.

    Minimal length-prefixed encodings shared by the incremental-GCD
    checkpoint ({!Batchgcd.Incremental}) and the stage runner
    ([Weakkeys.Stage]). All integers are written with
    [output_binary_int] (big-endian 32-bit), bignums as
    length-prefixed big-endian bytes. Readers raise {!Corrupt} on any
    malformed record rather than returning garbage. *)

exception Corrupt of string

val write_int : out_channel -> int -> unit
(** @raise Invalid_argument outside the 32-bit non-negative range. *)

val read_int : in_channel -> int
(** @raise Corrupt on a negative value (truncated / not ours).
    @raise End_of_file at end of channel. *)

val read_count : in_channel -> min_bytes:int -> int
(** [read_count ic ~min_bytes] reads an element count whose elements
    take at least [min_bytes] bytes each on disk, before the caller
    allocates anything from it.
    @raise Corrupt when the count cannot fit in the rest of a file
    channel, or is negative.
    @raise End_of_file at end of channel. *)

val write_string : out_channel -> string -> unit
val read_string : in_channel -> string

val write_nat : out_channel -> Bignum.Nat.t -> unit
val read_nat : in_channel -> Bignum.Nat.t
