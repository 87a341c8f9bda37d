(** Content-addressed caching for the compiler and the runtime.

    Two layers, one instance:

    - a generic mutex-protected {!Memo} table for in-process
      memoization of OCaml values (cleaned-up regions, backend
      statistics), keyed by a structural hash with a caller-supplied
      equality check so hash collisions can never alias;
    - a persistent, namespaced string-keyed store of {!Json} values,
      loaded from and flushed to [<dir>/<namespace>.json] when a cache
      directory is configured, and purely in-memory otherwise.

    Keys follow the content-addressed scheme of the multi-versioning
    cache: an alpha-invariant region hash ([Instr.hash_block
    ~closed:true]) joined with the target descriptor name and any
    launch parameters, so a cache directory can be shared across
    targets and programs — an entry is only ever found again for
    structurally identical code on the same target. Every operation on
    a [disabled] cache is a no-op, so instrumented call sites need no
    conditionals. All operations are thread-safe: candidate expansion
    consults the cache from several domains concurrently. *)

module Json = Pgpu_trace.Json

(** In-process memoization of OCaml values. *)
module Memo : sig
  type ('a, 'b) t

  val create : unit -> ('a, 'b) t

  (** [find_or_add_hit m ~hash ~equal key compute] returns the
      memoized value for a key equal to [key] (with [true]), or runs
      [compute] and records the result (with [false]). [compute] runs
      outside the lock: two domains racing on the same key may both
      compute it (the table keeps one result) — wasted work, never a
      wrong answer. The hit flag lets callers of region-valued memos
      know when the result is shared and must be cloned. *)
  val find_or_add_hit :
    ('a, 'b) t -> hash:int -> equal:('a -> 'a -> bool) -> 'a -> (unit -> 'b) -> 'b * bool

  val find_or_add :
    ('a, 'b) t -> hash:int -> equal:('a -> 'a -> bool) -> 'a -> (unit -> 'b) -> 'b

  val hits : ('a, 'b) t -> int
  val misses : ('a, 'b) t -> int

  (** Number of entries stored since creation or the last {!clear}. *)
  val length : ('a, 'b) t -> int

  val clear : ('a, 'b) t -> unit
end

type t

(** The shared no-op cache: never finds, never stores. *)
val disabled : t

(** A fresh cache. Without [dir] it is memory-only (still useful: it
    memoizes within a process, e.g. across the repeated compiles of a
    benchmark sweep). With [dir] each namespace is backed by
    [<dir>/<namespace>.json], loaded lazily on first access and
    written back by {!flush}. *)
val create : ?dir:string -> unit -> t

val enabled : t -> bool
val dir : t -> string option

(** Look up [key] in [ns], counting a hit or a miss. Always [None] on
    a disabled cache (without counting). *)
val find : t -> ns:string -> string -> Json.t option

val add : t -> ns:string -> string -> Json.t -> unit

(** Write every dirty namespace back to its file (no-op without a
    cache directory). Entries are sorted by key so cache files are
    deterministic and diff-friendly. *)
val flush : t -> unit

(** Per-namespace (hits, misses, stores). *)
val ns_stats : t -> string -> int * int * int

val hits : t -> ns:string -> int
val misses : t -> ns:string -> int

(** Total (hits, misses, stores) over every namespace touched. *)
val totals : t -> int * int * int

(** Machine-readable report: per-namespace entry counts and hit/miss/
    store counters, plus the backing directory. The CI cache smoke step
    uploads this. *)
val stats_json : t -> Json.t
