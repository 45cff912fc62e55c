(** ed(1), the standard editor — the line editor a 1991 terminal user
    falls back to when the screen editor is help's competition.

    The comparison window system ([Popup]) hosts shells in its windows;
    editing there means {e typing} editor commands, and every character
    is charged to the baseline.  This is a real (subset) implementation,
    not a stub: the measured session genuinely fixes the bug with it.

    Supported: addresses [N], [$], [.], [/re/], ranges [A,B]; commands
    [p] [n] [d] [a] [i] [c] (text until a lone [.]), [s/re/repl/[g]],
    [w \[file\]], [q], [=], and the empty command (advance and print).
    Errors answer [?], as tradition demands. *)

(** Register [/bin/ed]: [ed file] reads commands from standard input
    and prints what ed prints. *)
val install : Rc.t -> unit
