(** An in-memory, Plan 9-flavoured file system with a mount table.

    This is the substrate standing in for the Plan 9 kernel namespace the
    paper runs on.  Everything [help] and its tools do with files —
    [open/read/write/create/remove/ls] plus [bind]-style mounts and union
    directories — goes through this module.  File servers (notably the
    [/mnt/help] server of the paper) implement the {!filesystem} record
    and are mounted like any other tree.

    Paths are absolute, [/]-separated; [.] and [..] are resolved
    lexically, as on Plan 9.  Time is a logical clock ({!now}). *)

type error =
  | Enonexist  (** file does not exist *)
  | Enotdir  (** not a directory *)
  | Eisdir  (** is a directory *)
  | Eexist  (** already exists *)
  | Eperm  (** operation not permitted *)
  | Ebadname  (** bad path element *)
  | Eio of string  (** server-specific failure *)

exception Error of error

val error_message : error -> string

type mode = Read | Write | Rdwr

type stat = {
  st_name : string;
  st_dir : bool;
  st_length : int;
  st_mtime : int;
  st_version : int;  (** bumped on each modification *)
}

(** An open file: a server-side handle.  Offsets are explicit, as in 9P;
    sequential position bookkeeping belongs to the client ({!handle}). *)
type openfile = {
  of_read : off:int -> count:int -> string;
  of_write : off:int -> string -> int;
  of_close : unit -> unit;
}

(** The interface a file server implements.  All paths are component
    lists relative to the server's root; [[]] is the root itself. *)
type filesystem = {
  fs_stat : string list -> stat;
  fs_open : string list -> mode -> trunc:bool -> openfile;
  fs_create : string list -> dir:bool -> unit;
  fs_remove : string list -> unit;
  fs_readdir : string list -> stat list;
}

type t

(** A fresh namespace whose root is an empty RAM file system. *)
val create : unit -> t

(** Logical time. *)
val now : t -> int

(** Monotonic mutation counter: bumped by writes, creates, removes and
    mounts, but not by reads or opens (unlike the {!now} clock).  An
    unchanged generation means namespace contents are unchanged, so
    caches over them (e.g. command resolution) are still valid. *)
val generation : t -> int

(** {1 Mount table} *)

(** [mount t path fs] attaches [fs] at [path], replacing anything bound
    there before (but the underlying tree is untouched). *)
val mount : t -> string -> filesystem -> unit

(** [bind_after t path fs] unions [fs] after the existing trees at
    [path], as Plan 9's [bind -a]: lookups try earlier trees first,
    directory reads union all.  A member that fails with [Eio] (a
    broken transport) is skipped like [Enonexist] — the union degrades
    to its healthy members — but if no member answers, the first
    transport error is re-raised rather than a generic [Enonexist]. *)
val bind_after : t -> string -> filesystem -> unit

(** A RAM file system rooted at a fresh tree, usable with {!mount}. *)
val ramfs : t -> filesystem

(** [subtree t path] views the namespace below [path] as a filesystem,
    so an existing directory can be bound elsewhere (Plan 9's
    [bind /a /b]). *)
val subtree : t -> string -> filesystem

(** {1 Path utilities} *)

(** Lexical normalization: absolute, no [.], [..], empty components. *)
val normalize : string -> string

val split_path : string -> string list
val join_path : string list -> string

(** Directory part and base name ("/a/b/c" -> "/a/b", "c"). *)
val dirname : string -> string

val basename : string -> string

(** {1 Whole-file convenience} *)

val stat : t -> string -> stat
val exists : t -> string -> bool
val is_dir : t -> string -> bool
val read_file : t -> string -> string
val write_file : t -> string -> string -> unit

(** Create the file if needed and append. *)
val append_file : t -> string -> string -> unit

val mkdir : t -> string -> unit

(** [mkdir_p] creates all missing ancestors. *)
val mkdir_p : t -> string -> unit

val remove : t -> string -> unit
val readdir : t -> string -> stat list

(** {1 Open-file handles (sequential position kept client-side)} *)

type handle

val open_file : t -> string -> mode -> handle

(** Open, creating (and truncating) a regular file. *)
val create_file : t -> string -> handle

val read : handle -> int -> string
val write : handle -> string -> unit
val close : handle -> unit

(** Read everything from the current position. *)
val read_all : handle -> string

(** {1 Snapshot / restore}

    Durability support: capture and rebuild the root RAM tree exactly
    (content, mtime, version, child order) plus the namespace clock and
    mutation counter.  File contents are cut into fixed-size chunks and
    handed to [put], which stores each chunk under a content digest and
    returns the key; the snapshot holds only keys, so chunks unchanged
    since the previous snapshot cost nothing.  The mount table is not
    captured: recovery runs boot's wire phase, which recreates every
    mount, then restores the RAM tree whole — so the files boot's
    populate phase writes (the compiled demo binary) come only from the
    snapshot. *)

(** [snapshot t ~put] serializes the RAM tree; [put chunk] must return
    a stable key for [chunk] (typically its digest). *)
val snapshot : t -> put:(string -> string) -> string

(** [restore t ~get s] rebuilds the RAM tree from [snapshot] output;
    [get key] must return the chunk stored under [key].  Bypasses the
    operation counters and does not tick the clock — the clock and
    generation are restored to their captured values. *)
val restore : t -> get:(string -> string) -> string -> unit
