(** The CPU server: running applications away from the terminal.

    The paper's discussion: "help could run on the terminal and make an
    invisible call to the CPU server, sending requests to run
    applications to the remote shell-like process."  This module builds
    that second machine: a separate namespace and shell whose view of
    the terminal's files — including [/mnt/help] — is {e imported over
    the 9P link}, so an application running remotely still drives the
    user interface purely through file operations, each one crossing
    the wire.

    Layout on the CPU side (Plan 9 conventions):

    {v
    /mnt/term          the terminal's namespace, imported over 9P
    /usr /help /lib
    /sys /mail /tmp    bound from /mnt/term (the user's files travel)
    /mnt/help          bound from /mnt/term/mnt/help (the UI service)
    /bin               the CPU server's own binaries
    v}

    Install [Help.set_executor (Cpu.executor cpu)] and every external
    command of the session runs remotely; the session is otherwise
    indistinguishable (asserted by the test suite), except that the
    link counters tick. *)

type t

(** [connect ~install help] boots a CPU server against [help]'s
    terminal.  [install] registers the native tools on the CPU shell
    (they are that machine's [/bin]). *)
val connect : install:(Rc.t -> unit) -> Help.t -> t

(** Run a command on the CPU server with the terminal's context. *)
val run : t -> cwd:string -> helpsel:string list -> string -> Rc.result

(** An executor for {!Help.set_executor}. *)
val executor : t -> Help.executor

(** Protocol traffic over the terminal link, by message kind. *)
val link_stats : t -> (string * int) list
