(** mk, the Plan 9 build tool — enough of it for the paper's session —
    plus the {e modified-files} variation the paper sketches in its
    compilation-control discussion.

    A mkfile is variables and rules:

    {v
    OBJS=help.v text.v
    8.help: $OBJS
    	vl -o 8.help $OBJS
    help.v: help.c dat.h
    	vc -w help.c
    v}

    [mk] builds the first target (or named goals) when it is missing or
    older than a dependency, echoing each recipe line as it runs (the
    output of the paper's figure 12).  [mk -modified] inverts the
    traversal: it finds every target whose sources changed and rebuilds
    those — and, by rescanning to a fixpoint, everything that
    transitively depends on them.  "Such a program may be a simple
    variation of make — the information in the makefile would be the
    same."  It is. *)

type rule = { targets : string list; deps : string list; recipe : string list }

type mkfile = { vars : (string * string) list; rules : rule list }

(** Parse mkfile text: [NAME=value] lines, [target...: dep...] rules
    with tab-indented recipes, [#] comments, [$NAME]/[${NAME}]
    expansion. *)
val parse : string -> mkfile

(** Register [/bin/mk], which reads [mkfile] in the working directory
    and its goals from argv; [-modified] selects the inverted
    traversal. *)
val install : Rc.t -> unit
