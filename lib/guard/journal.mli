(** Length-prefixed, checksummed record framing for crash-safe journals.

    Byte layout of one record:

    {v
    u32 LE  payload length
    u64 LE  FNV-1a 64 checksum of the payload
    bytes   payload
    v}

    Every {!append} flushes, so a process killed mid-run leaves a valid
    prefix followed by at most one torn frame. {!load} stops at the
    first frame that fails its length or checksum test and reports the
    truncation; {!rewrite} then restores a clean file before replay
    appends resume. Payload contents are opaque to this module — the
    serve layer defines its own record encoding on top.

    Naming: this module is the {e generic framing} layer only. The
    crash-safe serve log itself (job records, fingerprints, recovery) is
    owned by {!Exochi_serving.Serve_journal}, which writes through this
    framing. *)

type writer

(** Truncate/create [path] for writing. *)
val create_writer : string -> writer

(** Frame, write and flush one record. Raises [Invalid_argument] on
    payloads over 16 MiB (such a length in a header is treated as
    corruption by {!load}). *)
val append : writer -> string -> unit

val close_writer : writer -> unit

type load = {
  records : string list;  (** valid prefix, in append order *)
  truncated : bool;  (** trailing torn/corrupt frame was dropped *)
}

(** Read the valid record prefix of [path]. A missing file loads as
    zero records, not truncated. *)
val load : string -> load

(** Replace [path] with exactly [records], freshly framed. *)
val rewrite : string -> string list -> unit
