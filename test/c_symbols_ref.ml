(* The parser as it was before its token and keyword tests became
   pattern matches: the reference a qcheck property in test_cbr holds
   [C_symbols] to.  Its output types are [C_symbols]'s, so one printer
   reads both.  It takes one fix with the parser: a block skips a token
   no statement takes (a stray ')' or ']'), with an error, where it
   used to loop forever.

   Symbol resolution over C token streams: "a compiler with no code
   generator — it parses the program and manages the symbol table".

   The parser recognizes declarations structurally (specifiers +
   declarators, struct/union/enum bodies, typedefs, function definitions
   with parameter scopes, block scopes) and records every identifier
   occurrence, resolved against the scope stack at that point.  It is
   deliberately lenient inside expressions: there it only needs to see
   identifiers, not to build an AST. *)

type kind = C_symbols.kind =
  | Kvar
  | Kfunc
  | Ktypedef
  | Kparam
  | Kenum_const
  | Kstruct_tag
  | Kfield

type decl = C_symbols.decl = {
  d_id : int;
  d_name : string;
  d_kind : kind;
  d_pos : C_lexer.pos;
  d_global : bool;
}

type occurrence = C_symbols.occurrence = {
  o_name : string;
  o_pos : C_lexer.pos;
  o_decl : int option;  (* resolved decl id; None for externals *)
  o_is_decl : bool;
}

type program = C_symbols.program = {
  p_decls : decl list;
  p_occs : occurrence list;
  p_errors : (string * C_lexer.pos) list;
}

(* Incremental analysis support.  A translation unit parsed in
   isolation cannot know what earlier units bound, so besides its
   decls/occurrences it records an ordered event log capturing exactly
   the points where cross-unit state could have changed the outcome:
   every new declaration, and every occurrence together with how far
   local resolution got.  {!link} later replays the logs in unit order
   against program-wide tables, reproducing the shared-state result. *)
type eres =
  | R_id of int  (* resolved within the unit: local decl id *)
  | R_value  (* unresolved locally; re-resolve in the value scope *)
  | R_tag  (* unresolved locally; re-resolve in the tag namespace *)

type ev =
  | E_decl of decl  (* a new declaration; [d_id] is unit-local *)
  | E_occ of { e_name : string; e_pos : C_lexer.pos; e_res : eres; e_is_decl : bool }

(* The parser walks the lexer's token list in place: [cur] is the
   current token, [rest] the ones after it, [prev] the one before, and
   [at] counts advances so callers can tell whether a step made
   progress. *)
type state = {
  mutable cur : C_lexer.spanned;
  mutable rest : C_lexer.spanned list;
  mutable prev : C_lexer.token;
  mutable at : int;
  mutable scopes : (string, decl) Hashtbl.t list;
  tags : (string, decl) Hashtbl.t;
  typedefs : (string, unit) Hashtbl.t;
  mutable decls : decl list;
  mutable occs : occurrence list;
  mutable errors : (string * C_lexer.pos) list;
  mutable next_id : int;
  track : bool;  (* record the event log (isolated-unit parses only) *)
  mutable events : ev list;  (* newest first *)
}

let peek st = st.cur.C_lexer.tok
let peek2 st =
  match st.rest with t :: _ -> t.C_lexer.tok | [] -> C_lexer.Eof
let pos st = st.cur.C_lexer.pos

(* Never steps past the last token, the lexer's [Eof]. *)
let advance st =
  match st.rest with
  | t :: rest ->
      st.prev <- st.cur.C_lexer.tok;
      st.cur <- t;
      st.rest <- rest;
      st.at <- st.at + 1
  | [] -> ()

let error st msg = st.errors <- (msg, pos st) :: st.errors
let emit st e = if st.track then st.events <- e :: st.events

let push_scope st = st.scopes <- Hashtbl.create 16 :: st.scopes
let pop_scope st =
  match st.scopes with
  | _ :: (_ :: _ as rest) -> st.scopes <- rest
  | _ -> ()

let declare st name kind p =
  (* Fields and tags live in their own namespaces, not the value scope:
     they are never "global symbols" for cross-reference grouping. *)
  let global =
    (match st.scopes with [ _ ] -> true | _ -> false)
    && kind <> Kfield && kind <> Kstruct_tag
  in
  (* Headers are re-included across translation units: a global
     declaration at the same source position is the same declaration. *)
  let existing =
    if global then
      match st.scopes with
      | scope :: _ -> (
          match Hashtbl.find_opt scope name with
          | Some d when d.d_pos = p -> Some d
          | _ -> None)
      | [] -> None
    else None
  in
  match existing with
  | Some d ->
      st.occs <-
        { o_name = name; o_pos = p; o_decl = Some d.d_id; o_is_decl = true }
        :: st.occs;
      emit st (E_occ { e_name = name; e_pos = p; e_res = R_id d.d_id; e_is_decl = true });
      d
  | None ->
      let d =
        {
          d_id = st.next_id;
          d_name = name;
          d_kind = kind;
          d_pos = p;
          d_global = global;
        }
      in
      st.next_id <- st.next_id + 1;
      st.decls <- d :: st.decls;
      (match st.scopes with
      | scope :: _ when kind <> Kstruct_tag && kind <> Kfield ->
          Hashtbl.replace scope name d
      | _ -> ());
      if kind = Kstruct_tag then Hashtbl.replace st.tags name d;
      if kind = Ktypedef then Hashtbl.replace st.typedefs name ();
      st.occs <-
        { o_name = name; o_pos = p; o_decl = Some d.d_id; o_is_decl = true }
        :: st.occs;
      emit st (E_decl d);
      d

let resolve st name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match Hashtbl.find_opt scope name with
        | Some d -> Some d
        | None -> go rest)
  in
  go st.scopes

let record_use st name p =
  let d = resolve st name in
  st.occs <-
    {
      o_name = name;
      o_pos = p;
      o_decl = Option.map (fun d -> d.d_id) d;
      o_is_decl = false;
    }
    :: st.occs;
  let res = match d with Some d -> R_id d.d_id | None -> R_value in
  emit st (E_occ { e_name = name; e_pos = p; e_res = res; e_is_decl = false })

let record_tag_use st name p =
  match Hashtbl.find_opt st.tags name with
  | Some d ->
      st.occs <-
        { o_name = name; o_pos = p; o_decl = Some d.d_id; o_is_decl = false }
        :: st.occs;
      emit st
        (E_occ { e_name = name; e_pos = p; e_res = R_id d.d_id; e_is_decl = false })
  | None ->
      st.occs <-
        { o_name = name; o_pos = p; o_decl = None; o_is_decl = false }
        :: st.occs;
      emit st (E_occ { e_name = name; e_pos = p; e_res = R_tag; e_is_decl = false })

let is_typedef st name = Hashtbl.mem st.typedefs name

let type_keywords =
  [ "void"; "char"; "short"; "int"; "long"; "float"; "double"; "signed";
    "unsigned"; "struct"; "union"; "enum"; "const"; "volatile" ]

let storage_keywords = [ "typedef"; "extern"; "static"; "auto"; "register" ]

(* Does a declaration begin at the current token? *)
let starts_decl st =
  match peek st with
  | C_lexer.Keyword k -> List.mem k type_keywords || List.mem k storage_keywords
  | C_lexer.Ident name ->
      is_typedef st name
      && (match peek2 st with
         | C_lexer.Ident _ -> true
         | C_lexer.Punct "*" -> true
         | _ -> false)
  | _ -> false

(* Scan an expression region, recording identifier uses, until one of
   [stops] appears at paren/bracket/brace depth 0.  Leaves the stop
   token current. *)
let scan_expr st stops =
  let depth = ref 0 in
  let continue = ref true in
  while !continue do
    (match peek st with
    | C_lexer.Eof -> continue := false
    | C_lexer.Punct p when !depth = 0 && List.mem p stops -> continue := false
    | C_lexer.Punct ("(" | "[" | "{") ->
        incr depth;
        advance st
    | C_lexer.Punct (")" | "]" | "}") ->
        if !depth = 0 then continue := false
        else begin
          decr depth;
          advance st
        end
    | C_lexer.Ident name ->
        (* Not a member name after '.' or '->'. *)
        (match st.prev with
        | C_lexer.Punct ("." | "->") -> ()
        | _ -> record_use st name (pos st));
        advance st
    | C_lexer.Keyword ("struct" | "union" | "enum") ->
        (* cast or sizeof(struct X) *)
        advance st;
        (match peek st with
        | C_lexer.Ident tag ->
            record_tag_use st tag (pos st);
            advance st
        | _ -> ())
    | _ -> advance st)
  done

let rec parse_struct_body st =
  (* current token is '{' *)
  advance st;
  let continue = ref true in
  while !continue do
    match peek st with
    | C_lexer.Punct "}" ->
        advance st;
        continue := false
    | C_lexer.Eof -> continue := false
    | _ -> parse_declaration st ~context:`Field
  done

and parse_enum_body st =
  advance st;
  let continue = ref true in
  while !continue do
    match peek st with
    | C_lexer.Punct "}" ->
        advance st;
        continue := false
    | C_lexer.Eof -> continue := false
    | C_lexer.Ident name ->
        let p = pos st in
        advance st;
        ignore (declare st name Kenum_const p);
        (match peek st with
        | C_lexer.Punct "=" ->
            advance st;
            scan_expr st [ ","; "}" ]
        | _ -> ());
        (match peek st with C_lexer.Punct "," -> advance st | _ -> ())
    | _ -> advance st
  done

(* Parse specifiers; returns [is_typedef_decl]. *)
and parse_specifiers st =
  let is_typedef_decl = ref false in
  let saw_type = ref false in
  let continue = ref true in
  while !continue do
    match peek st with
    | C_lexer.Keyword "typedef" ->
        is_typedef_decl := true;
        advance st
    | C_lexer.Keyword k when List.mem k storage_keywords -> advance st
    | C_lexer.Keyword ("const" | "volatile") -> advance st
    | C_lexer.Keyword (("struct" | "union") as _su) ->
        advance st;
        saw_type := true;
        (match peek st with
        | C_lexer.Ident tag ->
            let p = pos st in
            advance st;
            if peek st = C_lexer.Punct "{" then begin
              ignore (declare st tag Kstruct_tag p);
              parse_struct_body st
            end
            else record_tag_use st tag p
        | C_lexer.Punct "{" -> parse_struct_body st
        | _ -> ())
    | C_lexer.Keyword "enum" ->
        advance st;
        saw_type := true;
        (match peek st with
        | C_lexer.Ident tag ->
            let p = pos st in
            advance st;
            if peek st = C_lexer.Punct "{" then begin
              ignore (declare st tag Kstruct_tag p);
              parse_enum_body st
            end
            else record_tag_use st tag p
        | C_lexer.Punct "{" -> parse_enum_body st
        | _ -> ())
    | C_lexer.Keyword k when List.mem k type_keywords ->
        saw_type := true;
        advance st
    | C_lexer.Ident name when (not !saw_type) && is_typedef st name ->
        record_use st name (pos st);
        saw_type := true;
        advance st
    | _ -> continue := false
  done;
  !is_typedef_decl

(* Parse one declarator: pointers, name, arrays, parameter list.
   Returns (name, pos, is_function, params) — params are the recorded
   (name, pos) pairs for re-declaration in a following body. *)
and parse_declarator st =
  let rec skip_stars () =
    match peek st with
    | C_lexer.Punct "*" | C_lexer.Keyword ("const" | "volatile") ->
        advance st;
        skip_stars ()
    | _ -> ()
  in
  skip_stars ();
  let name_info = ref None in
  (match peek st with
  | C_lexer.Ident name ->
      name_info := Some (name, pos st);
      advance st
  | C_lexer.Punct "(" ->
      (* function pointer: ( * name ) *)
      advance st;
      skip_stars ();
      (match peek st with
      | C_lexer.Ident name ->
          name_info := Some (name, pos st);
          advance st
      | _ -> ());
      (match peek st with C_lexer.Punct ")" -> advance st | _ -> ())
  | _ -> ());
  let is_function = ref false in
  let params = ref [] in
  let continue = ref true in
  while !continue do
    match peek st with
    | C_lexer.Punct "[" ->
        advance st;
        scan_expr st [ "]" ];
        (match peek st with C_lexer.Punct "]" -> advance st | _ -> ())
    | C_lexer.Punct "(" ->
        is_function := true;
        advance st;
        params := parse_params st
    | _ -> continue := false
  done;
  (!name_info, !is_function, !params)

(* Parameter list: 'void', '...' or comma-separated declarations.
   Parameters are declared into a throwaway scope here; the caller
   re-declares them in the body scope for definitions. *)
and parse_params st =
  let params = ref [] in
  let continue = ref true in
  while !continue do
    match peek st with
    | C_lexer.Punct ")" ->
        advance st;
        continue := false
    | C_lexer.Eof -> continue := false
    | C_lexer.Punct "," -> advance st
    | C_lexer.Punct "..." -> advance st
    | C_lexer.Keyword "void" when peek2 st = C_lexer.Punct ")" ->
        advance st
    | _ ->
        let before = st.at in
        ignore (parse_specifiers st);
        let name_info, _is_fn, _ = parse_declarator st in
        (match name_info with
        | Some (name, p) -> params := (name, p) :: !params
        | None -> ());
        (* guarantee progress on malformed parameter lists *)
        if st.at = before then begin
          error st "unexpected token in parameter list";
          advance st
        end
  done;
  List.rev !params

and parse_declaration st ~context =
  let is_typedef_decl = parse_specifiers st in
  (* A bare 'struct X { ... };' has no declarators. *)
  if peek st = C_lexer.Punct ";" then advance st
  else begin
    let continue = ref true in
    while !continue do
      let name_info, is_function, params = parse_declarator st in
      (match name_info with
      | Some (name, p) ->
          let kind =
            if is_typedef_decl then Ktypedef
            else if context = `Field then Kfield
            else if is_function then Kfunc
            else Kvar
          in
          let _d = declare st name kind p in
          (* Function definition: body follows. *)
          if is_function && peek st = C_lexer.Punct "{" && context = `Top
          then begin
            push_scope st;
            List.iter (fun (pn, pp) -> ignore (declare st pn Kparam pp)) params;
            parse_block st;
            pop_scope st;
            continue := false
          end
          else begin
            (* initializer *)
            (match peek st with
            | C_lexer.Punct "=" ->
                advance st;
                scan_expr st [ ","; ";" ]
            | _ -> ());
            match peek st with
            | C_lexer.Punct "," -> advance st
            | C_lexer.Punct ";" ->
                advance st;
                continue := false
            | _ ->
                error st "expected , or ; in declaration";
                advance st;
                continue := false
          end
      | None -> (
          match peek st with
          | C_lexer.Punct ";" ->
              advance st;
              continue := false
          | C_lexer.Punct "," -> advance st
          | _ ->
              error st "expected declarator";
              advance st;
              continue := false))
    done
  end

(* current token is '{' *)
and parse_block st =
  advance st;
  push_scope st;
  let continue = ref true in
  while !continue do
    match peek st with
    | C_lexer.Punct "}" ->
        advance st;
        continue := false
    | C_lexer.Eof -> continue := false
    | _ ->
        let before = st.at in
        parse_statement st;
        (* a ')' or ']' that no statement takes *)
        if st.at = before then begin
          error st "unexpected token in block";
          advance st
        end
  done;
  pop_scope st

and parse_statement st =
  match peek st with
  | C_lexer.Punct "{" -> parse_block st
  | C_lexer.Punct ";" -> advance st
  | C_lexer.Keyword ("if" | "while" | "switch" | "for") ->
      advance st;
      (match peek st with
      | C_lexer.Punct "(" ->
          advance st;
          scan_expr st [ ")" ];
          (match peek st with C_lexer.Punct ")" -> advance st | _ -> ())
      | _ -> ());
      parse_statement st;
      (* possible else after if-statement *)
      if peek st = C_lexer.Keyword "else" then begin
        advance st;
        parse_statement st
      end
  | C_lexer.Keyword "do" ->
      advance st;
      parse_statement st;
      if peek st = C_lexer.Keyword "while" then begin
        advance st;
        (match peek st with
        | C_lexer.Punct "(" ->
            advance st;
            scan_expr st [ ")" ];
            (match peek st with C_lexer.Punct ")" -> advance st | _ -> ())
        | _ -> ());
        match peek st with C_lexer.Punct ";" -> advance st | _ -> ()
      end
  | C_lexer.Keyword "else" ->
      advance st;
      parse_statement st
  | C_lexer.Keyword "return" ->
      advance st;
      scan_expr st [ ";" ];
      (match peek st with C_lexer.Punct ";" -> advance st | _ -> ())
  | C_lexer.Keyword ("break" | "continue") ->
      advance st;
      (match peek st with C_lexer.Punct ";" -> advance st | _ -> ())
  | C_lexer.Keyword "goto" ->
      advance st;
      (match peek st with C_lexer.Ident _ -> advance st | _ -> ());
      (match peek st with C_lexer.Punct ";" -> advance st | _ -> ())
  | C_lexer.Keyword "case" ->
      advance st;
      scan_expr st [ ":" ];
      (match peek st with C_lexer.Punct ":" -> advance st | _ -> ())
  | C_lexer.Keyword "default" ->
      advance st;
      (match peek st with C_lexer.Punct ":" -> advance st | _ -> ())
  | C_lexer.Ident _ when peek2 st = C_lexer.Punct ":" ->
      (* label *)
      advance st;
      advance st
  | _ when starts_decl st -> parse_declaration st ~context:`Local
  | _ ->
      scan_expr st [ ";" ];
      (match peek st with C_lexer.Punct ";" -> advance st | _ -> ())

let no_token = { C_lexer.tok = C_lexer.Eof; pos = { C_lexer.file = ""; line = 0 } }

let create_state ?(track = false) () =
  {
    cur = no_token;
    rest = [];
    prev = C_lexer.Eof;
    at = 0;
    scopes = [ Hashtbl.create 64 ];
    tags = Hashtbl.create 32;
    typedefs = Hashtbl.create 32;
    decls = [];
    occs = [];
    errors = [];
    next_id = 0;
    track;
    events = [];
  }

(* Parse one translation unit's tokens into shared global state
   (cross-file resolution: all of *.c sees the same globals, as the
   linker would arrange). *)
let parse_unit st toks =
  let cur, rest =
    match toks with t :: rest -> (t, rest) | [] -> (no_token, [])
  in
  let st' = { st with cur; rest; prev = C_lexer.Eof; at = 0 } in
  (* keep only the global scope between units *)
  let rec globals = function [ g ] -> [ g ] | _ :: r -> globals r | [] -> [] in
  st'.scopes <- globals st.scopes;
  let continue = ref true in
  while !continue do
    match peek st' with
    | C_lexer.Eof -> continue := false
    | C_lexer.Punct ";" -> advance st'
    | _ ->
        let before = st'.at in
        parse_declaration st' ~context:`Top;
        if st'.at = before then begin
          error st' "cannot make progress";
          advance st'
        end
  done;
  (* propagate accumulated results back *)
  st.decls <- st'.decls;
  st.occs <- st'.occs;
  st.errors <- st'.errors;
  st.next_id <- st'.next_id;
  st.events <- st'.events

let finish st =
  {
    p_decls = List.rev st.decls;
    p_occs = List.rev st.occs;
    p_errors = List.rev st.errors;
  }

(* ------------------------------------------------------------------ *)
(* Isolated units and linking                                          *)

type cunit = {
  u_events : ev list;  (* in parse order *)
  u_errors : (string * C_lexer.pos) list;  (* in parse order *)
  u_typedefs : string list;  (* typedef names this unit contributes *)
}

(* Parse one unit with no cross-unit state except the inherited typedef
   name set — the only earlier-unit state that can change how tokens
   are consumed (see {!starts_decl} and {!parse_specifiers}).  Value
   and tag bindings from earlier units affect only resolution, which
   the event log defers to {!link}.  The result is a pure function of
   (tokens, typedef set), hence cacheable by content digest. *)
let parse_unit_isolated ~typedefs toks =
  let st = create_state ~track:true () in
  List.iter (fun n -> Hashtbl.replace st.typedefs n ()) typedefs;
  parse_unit st toks;
  let contributed =
    List.rev
      (List.filter_map
         (function
           | E_decl d when d.d_kind = Ktypedef -> Some d.d_name
           | _ -> None)
         st.events)
  in
  {
    u_events = List.rev st.events;
    u_errors = List.rev st.errors;
    u_typedefs = contributed;
  }

(* Replay unit event logs in order against program-wide tables,
   assigning final decl ids.  This mirrors {!declare}'s shared-state
   behaviour exactly: a global declaration deduplicates only against
   the *current* binding of its name when the position matches (header
   re-inclusion); bindings are replaced, never stacked; tags live in
   their own always-fresh namespace but persist as resolution targets
   across units. *)
let link units =
  let scope : (string, decl) Hashtbl.t = Hashtbl.create 64 in
  let tags : (string, decl) Hashtbl.t = Hashtbl.create 32 in
  let decls = ref [] and occs = ref [] and errors = ref [] in
  let next_id = ref 0 in
  List.iter
    (fun u ->
      let map : (int, decl) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (function
          | E_decl d ->
              let existing =
                if d.d_global then
                  match Hashtbl.find_opt scope d.d_name with
                  | Some pd when pd.d_pos = d.d_pos -> Some pd
                  | _ -> None
                else None
              in
              let pd =
                match existing with
                | Some pd ->
                    Hashtbl.replace map d.d_id pd;
                    pd
                | None ->
                    let pd = { d with d_id = !next_id } in
                    incr next_id;
                    decls := pd :: !decls;
                    Hashtbl.replace map d.d_id pd;
                    if pd.d_global then Hashtbl.replace scope pd.d_name pd;
                    if pd.d_kind = Kstruct_tag then
                      Hashtbl.replace tags pd.d_name pd;
                    pd
              in
              occs :=
                {
                  o_name = pd.d_name;
                  o_pos = d.d_pos;
                  o_decl = Some pd.d_id;
                  o_is_decl = true;
                }
                :: !occs
          | E_occ o ->
              let resolved =
                match o.e_res with
                | R_id local -> (
                    match Hashtbl.find_opt map local with
                    | Some pd -> Some pd.d_id
                    | None -> None)
                | R_value ->
                    Option.map
                      (fun (pd : decl) -> pd.d_id)
                      (Hashtbl.find_opt scope o.e_name)
                | R_tag ->
                    Option.map
                      (fun (pd : decl) -> pd.d_id)
                      (Hashtbl.find_opt tags o.e_name)
              in
              occs :=
                {
                  o_name = o.e_name;
                  o_pos = o.e_pos;
                  o_decl = resolved;
                  o_is_decl = o.e_is_decl;
                }
                :: !occs)
        u.u_events;
      errors := List.rev_append u.u_errors !errors)
    units;
  {
    p_decls = List.rev !decls;
    p_occs = List.rev !occs;
    p_errors = List.rev !errors;
  }
