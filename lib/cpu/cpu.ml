type t = { cns : Vfs.t; csh : Rc.t; link : Nine.Pool.t }

(* Directories of the terminal the CPU session needs to see at their
   usual names.  /bin is deliberately absent: binaries are the CPU
   server's own. *)
let imports = [ "/usr"; "/help"; "/lib"; "/sys"; "/mail"; "/tmp" ]

let connect ~install help =
  let terminal_ns = Help.ns help in
  let cns = Vfs.create () in
  let csh = Rc.create cns in
  install csh;
  (* one 9P link carries the whole terminal namespace *)
  let link =
    Nine.serve_mount ~uname:"cpu" cns "/mnt/term" (Vfs.subtree terminal_ns "/")
  in
  List.iter
    (fun dir ->
      if Vfs.exists terminal_ns dir then
        Vfs.mount cns dir (Vfs.subtree cns ("/mnt/term" ^ dir)))
    imports;
  (* the user interface service itself *)
  Vfs.mount cns "/mnt/help" (Vfs.subtree cns "/mnt/term/mnt/help");
  { cns; csh; link }


let run t ~cwd ~helpsel cmd =
  Rc.set_global t.csh "helpsel" helpsel;
  Rc.run t.csh ~cwd cmd

let executor t ~cwd ~helpsel cmd = run t ~cwd ~helpsel cmd

let link_stats t = Nine.Pool.kind_counts t.link
