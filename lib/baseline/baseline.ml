type task =
  | Execute_word of string
  | Point_and_execute of string * string
  | Open_at of string * int option
  | Sweep_and_cut of int
  | Save_file of string
  | Type_text of string

type cost = { c_clicks : int; c_keys : int; c_travel : int }

type system = Popup_wm | Typed_shell

let zero = { c_clicks = 0; c_keys = 0; c_travel = 0 }

let add a b =
  {
    c_clicks = a.c_clicks + b.c_clicks;
    c_keys = a.c_keys + b.c_keys;
    c_travel = a.c_travel + b.c_travel;
  }

(* Pop-up menu model: a menu interaction is one button press, travel
   into the menu to the wanted item (menus pop at the pointer; we charge
   the paper-friendly minimum of 3 cells to reach the average item),
   and a release.  Dialogs (file open) additionally need the path typed,
   since the name on the screen cannot be picked up. *)
let menu = { c_clicks = 1; c_keys = 0; c_travel = 3 }

(* Average travel to point at something already on screen: identical in
   every mouse system, charged equally (8 cells) so the comparison
   isolates clicks and keys. *)
let point = { c_clicks = 1; c_keys = 0; c_travel = 8 }

let keys n = { zero with c_keys = n }

let popup_cost = function
  | Execute_word _ ->
      (* the word on screen is inert text: a menu drives the action *)
      add point menu
  | Point_and_execute (_obj, _cmd) -> add point menu
  | Open_at (path, line) ->
      (* menu "Open…", then the dialog wants the path typed; a line
         address means scrolling or a goto-line dialog (digits + Enter) *)
      let goto =
        match line with
        | Some n -> add menu (keys (String.length (string_of_int n) + 1))
        | None -> zero
      in
      add (add menu (keys (String.length path + 1))) goto
  | Sweep_and_cut _n ->
      (* sweep = press, travel along the text, release; then the menu *)
      add { c_clicks = 1; c_keys = 0; c_travel = 10 } menu
  | Save_file _ -> menu
  | Type_text s -> keys (String.length s)

let shell_cost = function
  | Execute_word w -> keys (String.length w + 1)
  | Point_and_execute (obj, cmd) ->
      (* no pointing: the object's name is retyped as an argument *)
      keys (String.length cmd + 1 + String.length obj + 1)
  | Open_at (path, line) ->
      let addr = match line with Some n -> "+" ^ string_of_int n ^ " " | None -> "" in
      keys (String.length ("vi " ^ addr ^ path) + 1)
  | Sweep_and_cut _ ->
      (* vi: position (average /pattern search ~8 keys) then dd *)
      keys 10
  | Save_file _ -> keys 3 (* :w<nl> *)
  | Type_text s -> keys (String.length s)

let cost sys task =
  match sys with Popup_wm -> popup_cost task | Typed_shell -> shell_cost task

let total sys tasks = List.fold_left (fun acc t -> add acc (cost sys t)) zero tasks

(* The worked example, figures 4-12: read mail, view Sean's message,
   stack-trace the broken process, open the sources the trace names,
   find the uses of n, remove the offending line, write the file out,
   recompile. *)
let demo_tasks =
  [
    ("read mail headers", Execute_word "headers");
    ("view message 2", Point_and_execute ("2", "messages"));
    ("stack trace 176153", Point_and_execute ("176153", "stack"));
    ("open text.c:32", Open_at ("/usr/rob/src/help/text.c", Some 32));
    ("close text.c", Execute_word "Close!");
    ("open exec.c:252", Open_at ("/usr/rob/src/help/exec.c", Some 252));
    ("uses of n", Point_and_execute ("n", "uses *.c"));
    ("open exec.c:213", Open_at ("/usr/rob/src/help/exec.c", Some 213));
    ("cut offending line", Sweep_and_cut 7);
    ("write exec.c", Save_file "/usr/rob/src/help/exec.c");
    ("compile", Execute_word "mk");
  ]
