(* C tokenizer with source positions.

   Input is preprocessed text: [# line "file"] markers (as emitted by
   our cpp) reset the position so declarations found in included headers
   report their true coordinates — that is what lets [decl] fetch a
   declaration "from whatever file in which it resides".

   One pass over the bytes that allocates little.  Every scanner is a
   local recursive function that takes the index of the byte it reads
   and returns where it stopped, so the index lives in a register; only
   the line count is a reference.  Bytes are read in place with
   [String.unsafe_get] after an explicit bound check, markers included.
   Punctuators dispatch on their first byte, a literal's body is one
   substring (escapes are kept verbatim), every token of one (file,
   line) run shares one [pos] record, and the list is built front to
   back. *)

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

(* the bytes that continue an identifier or a number: '\001' *)
let ident_bytes =
  String.init 256 (fun c ->
      match Char.chr c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> '\001'
      | _ -> '\000')

let is_ident_char c = String.unsafe_get ident_bytes (Char.code c) <> '\000'

(* the 1-byte punctuators: one token per byte, made once *)
let single = Array.init 256 (fun c -> Punct (String.make 1 (Char.chr c)))

let keyword_or_ident s =
  match s with
  | "auto" | "break" | "case" | "char" | "const" | "continue" | "default"
  | "do" | "double" | "else" | "enum" | "extern" | "float" | "for" | "goto"
  | "if" | "int" | "long" | "register" | "return" | "short" | "signed"
  | "sizeof" | "static" | "struct" | "switch" | "typedef" | "union"
  | "unsigned" | "void" | "volatile" | "while" ->
      Keyword s
  | _ -> Ident s

(* [String.trim]'s white space, less the '\n' a line cannot hold *)
let is_blank = function ' ' | '\012' | '\r' | '\t' -> true | _ -> false

let tokenize ~file src =
  let n = String.length src in
  let byte i = String.unsafe_get src i in
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
  let rec line_end i = if i < n && byte i <> '\n' then line_end (i + 1) else i in
  let rec find_space i stop =
    if i < stop && byte i <> ' ' then find_space (i + 1) stop else i
  in
  let rec skip_spaces i stop =
    if i < stop && byte i = ' ' then skip_spaces (i + 1) stop else i
  in
  let rec skip_blanks i stop =
    if i < stop && is_blank (byte i) then skip_blanks (i + 1) stop else i
  in
  let rec trim_blanks start i =
    if i > start && is_blank (byte (i - 1)) then trim_blanks start (i - 1) else i
  in
  let rec all_digits i stop =
    i >= stop
    || (match byte i with '0' .. '9' -> all_digits (i + 1) stop | _ -> false)
  in
  (* The directive at [i] (its '#'), to the end of its line, read where
     it lies: a line marker [# <digits> "name"] sets the position.  Its
     words are the blank-trimmed text after '#' split on ' '; the name
     is the second word less its first and last bytes.  Anything else
     (#include, cpp residue) is skipped.  Returns the line's end. *)
  let directive i =
    let eol = line_end (i + 1) in
    let k = skip_blanks (i + 1) eol in
    let stop = trim_blanks k eol in
    let num_end = find_space k stop in
    let b = skip_spaces num_end stop in
    let c = find_space b stop in
    if k < num_end && all_digits k num_end && c - b >= 2 && byte b = '"' then begin
      cur_line := int_of_string (String.sub src k (num_end - k)) - 1;
      (* -1: the upcoming newline increments it *)
      cur_file := String.sub src (b + 1) (c - b - 2)
    end;
    eol
  in
  (* past the comment whose body starts at [i], counting its lines *)
  let rec comment_end i =
    if i + 1 >= n then fail "unterminated comment"
    else
      match byte i with
      | '*' when byte (i + 1) = '/' -> i + 2
      | '\n' ->
          incr cur_line;
          comment_end (i + 1)
      | _ -> comment_end (i + 1)
  in
  (* The closing quote of a literal whose body starts at [i].  A
     backslash takes the next byte with it; every newline the literal
     holds advances the line. *)
  let rec string_end i =
    if i >= n then fail "unterminated string"
    else
      match byte i with
      | '"' -> i
      | '\\' when i + 1 < n ->
          if byte (i + 1) = '\n' then incr cur_line;
          string_end (i + 2)
      | '\n' -> fail "newline in string"
      | _ -> string_end (i + 1)
  in
  let rec char_end i =
    if i >= n then fail "unterminated char literal"
    else
      match byte i with
      | '\'' -> i
      | '\\' when i + 1 < n ->
          if byte (i + 1) = '\n' then incr cur_line;
          char_end (i + 2)
      | '\n' ->
          incr cur_line;
          char_end (i + 1)
      | _ -> char_end (i + 1)
  in
  let rec ident_end i =
    if i < n && is_ident_char (byte i) then ident_end (i + 1) else i
  in
  (* a number's bytes: identifier bytes, '.', and a sign after e or E *)
  let rec number_end i =
    if i >= n then i
    else
      match byte i with
      | '.' -> number_end (i + 1)
      | ('+' | '-') when (match byte (i - 1) with 'e' | 'E' -> true | _ -> false)
        ->
          number_end (i + 1)
      | c -> if is_ident_char c then number_end (i + 1) else i
  in
  (* The punctuator at [i], the longest that matches: [Punct p] consumes
     [String.length p] bytes.  A constant [Punct "..."] is static data
     and the 1-byte ones come from [single], so none is allocated. *)
  let punct i =
    let at k c = i + k < n && byte (i + k) = c in
    let c = byte i in
    let one = Array.unsafe_get single (Char.code c) in
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
  (* The tokens from [i] on, past blanks, comments and directives; a
     token's position is taken before its bytes are read, so a literal
     keeps the line of its opening quote.  Built front to back: no
     reversal. *)
  let[@tail_mod_cons] rec tokens i =
    if i >= n then [ { tok = Eof; pos = here () } ]
    else
      match byte i with
      | ' ' | '\t' | '\r' -> tokens (i + 1)
      | '\n' ->
          incr cur_line;
          tokens (i + 1)
      | '#' -> tokens (directive i)
      | '/' when i + 1 < n && byte (i + 1) = '*' -> tokens (comment_end (i + 2))
      | '/' when i + 1 < n && byte (i + 1) = '/' -> tokens (line_end i)
      | '"' ->
          let pos = here () in
          let j = string_end (i + 1) in
          let t = { tok = Str_lit (String.sub src (i + 1) (j - i - 1)); pos } in
          t :: tokens (j + 1)
      | '\'' ->
          let pos = here () in
          let j = char_end (i + 1) in
          let t = { tok = Char_lit (String.sub src (i + 1) (j - i - 1)); pos } in
          t :: tokens (j + 1)
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let j = ident_end (i + 1) in
          let tok = keyword_or_ident (String.sub src i (j - i)) in
          let t = { tok; pos = here () } in
          t :: tokens j
      | '0' .. '9' ->
          let j = number_end (i + 1) in
          let t = { tok = Int_lit (String.sub src i (j - i)); pos = here () } in
          t :: tokens j
      | _ ->
          let tok = punct i in
          let t = { tok; pos = here () } in
          let width = match tok with Punct p -> String.length p | _ -> 1 in
          t :: tokens (i + width)
  in
  tokens 0
