(** The debugging substrate: a toolchain ([vc]/[vl]) that emits symbol
    tables, a table of (synthetic) processes with recorded stacks, and
    an [adb]-like reader — plus the [/help/db] scripts that "package the
    most important functions of adb as easy-to-use operations ... while
    hiding the rebarbative syntax".

    On Plan 9 a crashed program leaves a broken process to examine; the
    container has no Plan 9 kernel, so a crash is {e planted}: a recorded
    stack whose frames carry argument values and call-site coordinates.
    What keeps it honest is that [adb] refuses to print a frame whose
    function is missing from the binary's symbol table — the table that
    [vc] produced by actually parsing the C sources. *)

type frame = {
  fr_func : string;
  fr_args : (string * string) list;
  fr_callsite : string * int;  (** call-site (file, line) in the caller *)
  fr_locals : (string * string) list;
}

type process = {
  pr_pid : int;
  pr_cmd : string;
  pr_status : string;  (** e.g. "Broken" *)
  pr_binary : string;  (** executable path, for the symbol table *)
  pr_note : string;  (** e.g. "TLB miss (load or fetch)" *)
  pr_insn : string;  (** faulting instruction line, e.g.
                         "/sys/src/libc/mips/strchr.s:34 strchr+#68? MOVW 0(R3), R5" *)
  pr_regs : (string * string) list;
  pr_frames : frame list;  (** innermost first *)
}

type t

val create : unit -> t
val add_process : t -> process -> unit
val find : t -> int -> process option

(** {1 Symbol tables / object format} *)

type sym = { sym_name : string; sym_kind : string; sym_file : string; sym_line : int }

(** Parse a [.v] object or linked executable produced by [vc]/[vl]. *)
val load_symtab : Vfs.t -> string -> sym list

(** {1 Installation} *)

(** Registers the natives [/bin/vc], [/bin/vl], [/bin/adb], [/bin/ps]
    and writes the [/help/db] scripts ([stf], [stack], [regs], [pc],
    [ps], [broke], [kstack], [nextkstack]). *)
val install : Rc.t -> t -> unit
