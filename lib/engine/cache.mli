(** Persistent on-disk result cache (curves, candidate libraries).

    One file per entry under {!dir} (default [_cache/], overridable with
    the [ISECUSTOM_CACHE_DIR] environment variable), written with an
    atomic temp-file-plus-rename so a crash never leaves a half-written
    entry visible.  Every entry is versioned ({!format_version}) and
    digest-checked on load; truncated, corrupt or outdated files read as
    misses instead of raising, each with a {!Log.warn} naming the file
    and the damage so the recompute is explained.  Lookups report
    ["cache.hits"] / ["cache.misses"] (and ["cache.corrupt"]) into
    [Obs.Metrics].

    The cache is best-effort in both directions: a failing write
    (ENOSPC, a read-only directory, the ["cache.write"] fault point)
    closes and unlinks its temp file, counts ["cache.write_failed"],
    warns and returns — the process simply continues without the disk
    entry.  The ["cache.read"] and ["cache.truncate"] {!Fault} points
    exercise the corruption path on demand.

    Values are stored with [Marshal]; callers are responsible for using
    a distinct [namespace] per value type (the namespace and full key
    are verified on load, so a key collision across namespaces cannot
    alias).

    {b Cross-process coherence.}  The cache directory may be shared by
    a resident daemon and concurrent [batch]/CLI writer processes.
    Three mechanisms keep that safe: entry publication ({!store}'s
    rename) and {!clear}'s sweep serialise on an exclusive advisory
    lock ([<dir>/.lock], [Unix.lockf] — within one process the lock is
    additionally mutex-serialised, since fcntl locks only arbitrate
    between processes); {!clear} bumps a monotone {!generation} stamp
    ([<dir>/.generation]) under that lock so processes holding warm
    in-memory copies can notice the invalidation ({!Memo.revalidate});
    and {!sweep_stale_tmp} reaps [*.tmp.<pid>] orphans left by writers
    killed mid-write (never touching a file whose writer pid is still
    alive).  All of it is best-effort like the rest of the cache: a
    directory where the lock file cannot be created degrades to the
    old lockless behaviour. *)

val format_version : int
(** Bumped whenever the stored value layout changes; older entries then
    read as misses. *)

val dir : unit -> string
val set_dir : string -> unit

val enabled : unit -> bool
val set_enabled : bool -> unit
(** When disabled, {!find} returns [None] without touching the disk or
    telemetry and {!store} is a no-op (the CLI's [--no-cache]). *)

val file_of : namespace:string -> key:string -> string
(** Path an entry lives at (exposed for tests and [cache show]). *)

val find : namespace:string -> key:string -> unit -> 'a option
(** Typed load.  The caller must request the same type it stored under
    this namespace — the usual [Marshal] contract. *)

val store : namespace:string -> key:string -> 'a -> unit

val store_versioned : version:int -> namespace:string -> key:string -> 'a -> unit
(** Like {!store} with an explicit format version — exposed so tests can
    fabricate outdated entries and migrations can backfill. *)

type entry = { namespace : string; key : string; file : string; size : int }

val entries : unit -> entry list
(** Everything in the cache directory, including unreadable files
    (reported with namespace ["<unreadable>"]). *)

val clear : unit -> int
(** Delete all cache files under the advisory lock, bump the
    {!generation} stamp, and reap dead writers' temp files; returns how
    many entries were removed. *)

val generation : unit -> int
(** The directory's invalidation stamp: [0] until the first {!clear},
    then monotone across all processes sharing the directory.  Lockless
    read (the stamp file is replaced atomically). *)

val bump_generation : unit -> int
(** Advance the stamp under the advisory lock and return the new value
    — for operators invalidating warm daemons without deleting entries
    (also exercised by tests). *)

val sweep_stale_tmp : ?older_than_s:float -> unit -> int
(** Remove [*.tmp.<pid>] files whose writer process is dead and whose
    mtime is at least [older_than_s] (default 60) seconds old; returns
    how many were reaped.  Counts ["cache.tmp_swept"].  The daemon's
    watchdog calls this periodically so a SIGKILLed sibling writer
    cannot litter the shared directory forever. *)
