(** A conventional 1991 window system, for measuring help against.

    Modelled on the systems the paper positions itself against (8½, X
    with a menu-driven WM): overlapping windows each hosting a
    {e typescript} shell; a pop-up menu on the right button for window
    management; {b click-to-type} focus — the click the paper calls
    wasted.  Text on screen is inert: running a command means typing
    it, including any file names ("it often seems easier to retype the
    text than to use the mouse to pick it up, which indicates that the
    interface has failed").

    Every gesture is charged to the same accounting as help's
    ({!counts}): menu actions cost a click plus menu travel, focus
    changes cost a click, and commands cost their keystrokes.  The
    commands really run (on the same shell, tools, and file system as
    help), so the measured session does the same work.

    Editing happens in [ed] — implemented for real in {!Ed} — so the
    comparison charges the true cost of screen-less editing. *)

type t

type counts = {
  clicks : int;
  keys : int;
  travel : int;  (** cells: pointing + menu travel *)
}

(** A window: its typescript accumulates "% cmd" lines and output. *)
type win

val create : Vfs.t -> Rc.t -> t

val counts : t -> counts

(** {1 Gestures} *)

(** Pop the menu and sweep a new shell window (right-press, travel to
    the item, release, sweep the rectangle). *)
val menu_new_window : t -> cwd:string -> win

(** Pop the menu and delete a window. *)
val menu_delete : t -> win -> unit

(** Click-to-type: focus the window (one click + pointing travel). *)
val focus : t -> win -> unit

(** Type a command line into the focused window and run it; [input]
    is typed too when the command reads standard input (ed scripts).
    @raise Invalid_argument when no window has focus. *)
val type_command : t -> ?input:string -> string -> Rc.result

val typescript : win -> string

(** {1 The measured session} *)

(** The paper's worked example, performed the conventional way: mail
    read with mailtool, the stack dumped with adb, sources viewed and
    fixed with ed, recompiled with mk.  Returns the session and whether
    the offending line is really gone from [exec.c]. *)
val demo : unit -> t * bool
