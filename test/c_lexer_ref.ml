(* C tokenizer with source positions.

   Input is preprocessed text: [# line "file"] markers (as emitted by
   our cpp) reset the position so declarations found in included headers
   report their true coordinates — that is what lets [decl] fetch a
   declaration "from whatever file in which it resides". *)

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

let keywords =
  [
    "auto"; "break"; "case"; "char"; "const"; "continue"; "default"; "do";
    "double"; "else"; "enum"; "extern"; "float"; "for"; "goto"; "if"; "int";
    "long"; "register"; "return"; "short"; "signed"; "sizeof"; "static";
    "struct"; "switch"; "typedef"; "union"; "unsigned"; "void"; "volatile";
    "while";
  ]

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* Multi-character punctuators, longest first. *)
let puncts =
  [
    "<<="; ">>="; "..."; "->"; "++"; "--"; "<<"; ">>"; "<="; ">="; "==";
    "!="; "&&"; "||"; "+="; "-="; "*="; "/="; "%="; "&="; "^="; "|=";
  ]

exception Lex_error of string * pos

let tokenize ~file src =
  let n = String.length src in
  let pos = ref 0 in
  let cur_file = ref file in
  let cur_line = ref 1 in
  let toks = ref [] in
  let here () = { file = !cur_file; line = !cur_line } in
  let emit tok p = toks := { tok; pos = p } :: !toks in
  let peek i = if !pos + i < n then Some src.[!pos + i] else None in
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
  while !pos < n do
    match src.[!pos] with
    | ' ' | '\t' | '\r' -> incr pos
    | '\n' ->
        incr cur_line;
        incr pos
    | '#' -> line_directive ()
    | '/' when peek 1 = Some '*' ->
        pos := !pos + 2;
        let rec skip () =
          if !pos + 1 >= n then fail "unterminated comment"
          else if src.[!pos] = '*' && src.[!pos + 1] = '/' then pos := !pos + 2
          else begin
            if src.[!pos] = '\n' then incr cur_line;
            incr pos;
            skip ()
          end
        in
        skip ()
    | '/' when peek 1 = Some '/' ->
        while !pos < n && src.[!pos] <> '\n' do
          incr pos
        done
    | '"' ->
        let p = here () in
        incr pos;
        let b = Buffer.create 16 in
        let rec go () =
          if !pos >= n then fail "unterminated string"
          else
            match src.[!pos] with
            | '"' -> incr pos
            | '\\' when !pos + 1 < n ->
                if src.[!pos + 1] = '\n' then incr cur_line;
                Buffer.add_char b src.[!pos];
                Buffer.add_char b src.[!pos + 1];
                pos := !pos + 2;
                go ()
            | '\n' -> fail "newline in string"
            | c ->
                Buffer.add_char b c;
                incr pos;
                go ()
        in
        go ();
        emit (Str_lit (Buffer.contents b)) p
    | '\'' ->
        let p = here () in
        incr pos;
        let b = Buffer.create 4 in
        let rec go () =
          if !pos >= n then fail "unterminated char literal"
          else
            match src.[!pos] with
            | '\'' -> incr pos
            | '\\' when !pos + 1 < n ->
                if src.[!pos + 1] = '\n' then incr cur_line;
                Buffer.add_char b src.[!pos];
                Buffer.add_char b src.[!pos + 1];
                pos := !pos + 2;
                go ()
            | c ->
                if c = '\n' then incr cur_line;
                Buffer.add_char b c;
                incr pos;
                go ()
        in
        go ();
        emit (Char_lit (Buffer.contents b)) p
    | c when is_ident_start c ->
        let p = here () in
        let start = !pos in
        while !pos < n && is_ident_char src.[!pos] do
          incr pos
        done;
        let s = String.sub src start (!pos - start) in
        emit (if List.mem s keywords then Keyword s else Ident s) p
    | c when is_digit c ->
        let p = here () in
        let start = !pos in
        while
          !pos < n
          && (is_ident_char src.[!pos] || src.[!pos] = '.'
             || ((src.[!pos] = '+' || src.[!pos] = '-')
                && !pos > start
                && (src.[!pos - 1] = 'e' || src.[!pos - 1] = 'E')))
        do
          incr pos
        done;
        emit (Int_lit (String.sub src start (!pos - start))) p
    | _ ->
        let p = here () in
        let matched =
          List.find_opt
            (fun punct ->
              let l = String.length punct in
              !pos + l <= n && String.sub src !pos l = punct)
            puncts
        in
        (match matched with
        | Some punct ->
            pos := !pos + String.length punct;
            emit (Punct punct) p
        | None ->
            let c = src.[!pos] in
            incr pos;
            emit (Punct (String.make 1 c)) p)
  done;
  emit Eof (here ());
  List.rev !toks
