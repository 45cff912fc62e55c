(* C tokenizer with source positions.

   Input is preprocessed text: [# line "file"] markers (as emitted by
   our cpp) reset the position so declarations found in included headers
   report their true coordinates — that is what lets [decl] fetch a
   declaration "from whatever file in which it resides".

   One pass over the bytes that allocates little: punctuators dispatch
   on their first byte, a literal's body is one substring (escapes are
   kept verbatim), every token of one (file, line) run shares one [pos]
   record, and the list is built front to back. *)

type pos = { file : string; line : int }

type token =
  | Ident of string
  | Keyword of string
  | Int_lit of string
  | Char_lit of string
  | Str_lit of string
  | Punct of string
  | Eof

type spanned = { tok : token; pos : pos }

exception Lex_error of string * pos

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* the 1-byte punctuators: one token per byte, made once *)
let single = Array.init 256 (fun c -> Punct (String.make 1 (Char.chr c)))

let tokenize ~file src =
  let n = String.length src in
  let pos = ref 0 in
  let cur_file = ref file in
  let cur_line = ref 1 in
  (* one [pos] per (file, line) run, shared by its tokens: nothing
     compares positions physically, so the sharing is invisible *)
  let last = ref { file; line = 1 } in
  let here () =
    let p = !last in
    if p.line = !cur_line && p.file == !cur_file then p
    else begin
      let p = { file = !cur_file; line = !cur_line } in
      last := p;
      p
    end
  in
  let fail msg = raise (Lex_error (msg, here ())) in
  let line_directive () =
    (* '# <num> "file"' or '#include ...' or other cpp residue: consume
       to end of line; interpret line markers. *)
    let start = !pos in
    while !pos < n && src.[!pos] <> '\n' do
      incr pos
    done;
    let text = String.sub src start (!pos - start) in
    (* parse: # <digits> "name" *)
    let words =
      String.split_on_char ' ' (String.trim (String.sub text 1 (String.length text - 1)))
      |> List.filter (fun s -> s <> "")
    in
    match words with
    | num :: name :: _
      when String.for_all is_digit num && String.length name >= 2
           && name.[0] = '"' ->
        cur_line := int_of_string num - 1;
        (* -1: the upcoming newline increments it *)
        cur_file := String.sub name 1 (String.length name - 2)
    | _ -> ()
  in
  (* The body of a literal opened at [!pos] by [quote], up to its
     closing quote; a backslash takes the next byte with it, newline
     included, and the line count does not advance inside. *)
  let literal quote ~unterminated ~newline =
    let start = !pos + 1 in
    let j = ref start in
    while
      if !j >= n then fail unterminated
      else
        match String.unsafe_get src !j with
        | '\\' when !j + 1 < n -> j := !j + 2; true
        | '\n' when newline -> fail "newline in string"
        | c -> c <> quote && (incr j; true)
    do
      ()
    done;
    pos := !j + 1;
    String.sub src start (!j - start)
  in
  let ident_or_keyword s =
    match s with
    | "auto" | "break" | "case" | "char" | "const" | "continue" | "default"
    | "do" | "double" | "else" | "enum" | "extern" | "float" | "for" | "goto"
    | "if" | "int" | "long" | "register" | "return" | "short" | "signed"
    | "sizeof" | "static" | "struct" | "switch" | "typedef" | "union"
    | "unsigned" | "void" | "volatile" | "while" ->
        Keyword s
    | _ -> Ident s
  in
  (* The punctuator at [i], the longest that matches: [Punct p] consumes
     [String.length p] bytes.  A constant [Punct "..."] is static data
     and the 1-byte ones come from [single], so none is allocated. *)
  let punct i =
    let at k c = i + k < n && String.unsafe_get src (i + k) = c in
    let c = src.[i] in
    let one = single.(Char.code c) in
    match c with
    | '<' -> if at 1 '<' then (if at 2 '=' then Punct "<<=" else Punct "<<")
             else if at 1 '=' then Punct "<=" else one
    | '>' -> if at 1 '>' then (if at 2 '=' then Punct ">>=" else Punct ">>")
             else if at 1 '=' then Punct ">=" else one
    | '.' -> if at 1 '.' && at 2 '.' then Punct "..." else one
    | '-' -> if at 1 '>' then Punct "->" else if at 1 '-' then Punct "--"
             else if at 1 '=' then Punct "-=" else one
    | '+' -> if at 1 '+' then Punct "++" else if at 1 '=' then Punct "+=" else one
    | '&' -> if at 1 '&' then Punct "&&" else if at 1 '=' then Punct "&=" else one
    | '|' -> if at 1 '|' then Punct "||" else if at 1 '=' then Punct "|=" else one
    | '=' -> if at 1 '=' then Punct "==" else one
    | '!' -> if at 1 '=' then Punct "!=" else one
    | '*' -> if at 1 '=' then Punct "*=" else one
    | '/' -> if at 1 '=' then Punct "/=" else one
    | '%' -> if at 1 '=' then Punct "%=" else one
    | '^' -> if at 1 '=' then Punct "^=" else one
    | _ -> one
  in
  (* The next token, past blanks, comments and directives. *)
  let rec next () =
    if !pos >= n then { tok = Eof; pos = here () }
    else
      match String.unsafe_get src !pos with
      | ' ' | '\t' | '\r' ->
          incr pos;
          next ()
      | '\n' ->
          incr cur_line;
          incr pos;
          next ()
      | '#' ->
          line_directive ();
          next ()
      | '/' when !pos + 1 < n && src.[!pos + 1] = '*' ->
          pos := !pos + 2;
          while
            if !pos + 1 >= n then fail "unterminated comment"
            else if src.[!pos] = '*' && src.[!pos + 1] = '/' then false
            else begin
              if src.[!pos] = '\n' then incr cur_line;
              incr pos;
              true
            end
          do
            ()
          done;
          pos := !pos + 2;
          next ()
      | '/' when !pos + 1 < n && src.[!pos + 1] = '/' ->
          while !pos < n && src.[!pos] <> '\n' do
            incr pos
          done;
          next ()
      | '"' ->
          let body =
            literal '"' ~unterminated:"unterminated string" ~newline:true
          in
          { tok = Str_lit body; pos = here () }
      | '\'' ->
          let body =
            literal '\'' ~unterminated:"unterminated char literal"
              ~newline:false
          in
          { tok = Char_lit body; pos = here () }
      | c when is_ident_start c ->
          let start = !pos in
          while !pos < n && is_ident_char src.[!pos] do
            incr pos
          done;
          let s = String.sub src start (!pos - start) in
          { tok = ident_or_keyword s; pos = here () }
      | c when is_digit c ->
          let start = !pos in
          while
            !pos < n
            && (is_ident_char src.[!pos] || src.[!pos] = '.'
               || ((src.[!pos] = '+' || src.[!pos] = '-')
                  && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
          do
            incr pos
          done;
          let s = String.sub src start (!pos - start) in
          { tok = Int_lit s; pos = here () }
      | _ ->
          let tok = punct !pos in
          (match tok with Punct p -> pos := !pos + String.length p | _ -> ());
          { tok; pos = here () }
  in
  (* built front to back: no reversal *)
  let[@tail_mod_cons] rec tokens () =
    match next () with
    | { tok = Eof; _ } as t -> [ t ]
    | t -> t :: tokens ()
  in
  tokens ()
