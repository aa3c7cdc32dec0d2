(* Hand-written lexer for ZL. Tokens are paired with the source position
   (1-based line and column) of their first character, which the parser
   threads into the AST. *)

type token =
  | IDENT of string
  | INT of int
  | KW of string (* computation input output var if else for in *)
  | PUNCT of string (* ( ) { } [ ] ; , = == != < <= > >= + - * && || ! .. >> << *)
  | EOF

type t = { src : string; mutable pos : int; mutable line : int; mutable bol : int }
(* [bol] is the offset of the first character of the current line, so the
   column of the character at [pos] is [pos - bol + 1]. *)

let keywords = [ "computation"; "input"; "output"; "var"; "if"; "else"; "for"; "in"; "true"; "false" ]

let create src = { src; pos = 0; line = 1; bol = 0 }

let position lx : Ast.pos = { Ast.line = lx.line; col = lx.pos - lx.bol + 1 }

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let advance lx =
  (if lx.pos < String.length lx.src && lx.src.[lx.pos] = '\n' then begin
     lx.line <- lx.line + 1;
     lx.bol <- lx.pos + 1
   end);
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance lx;
    skip_ws lx
  | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/' ->
    while peek_char lx <> None && peek_char lx <> Some '\n' do
      advance lx
    done;
    skip_ws lx
  | Some '/' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '*' ->
    advance lx;
    advance lx;
    let rec close () =
      match peek_char lx with
      | None -> Ast.error_at (position lx) "unterminated comment"
      | Some '*' when lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '/' ->
        advance lx;
        advance lx
      | Some _ ->
        advance lx;
        close ()
    in
    close ();
    skip_ws lx
  | _ -> ()

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let next lx : token * Ast.pos =
  skip_ws lx;
  let start_pos = position lx in
  let tok =
    match peek_char lx with
    | None -> EOF
    | Some c when is_ident_start c ->
      let start = lx.pos in
      while (match peek_char lx with Some c -> is_ident_char c | None -> false) do
        advance lx
      done;
      let s = String.sub lx.src start (lx.pos - start) in
      if List.mem s keywords then KW s else IDENT s
    | Some c when is_digit c ->
      let start = lx.pos in
      while (match peek_char lx with Some c -> is_digit c | None -> false) do
        advance lx
      done;
      let s = String.sub lx.src start (lx.pos - start) in
      (match int_of_string_opt s with
      | Some n -> INT n
      | None -> Ast.error_at start_pos "integer literal %s is out of range (at most %d)" s max_int)
    | Some c ->
      let two =
        if lx.pos + 1 < String.length lx.src then Some (String.sub lx.src lx.pos 2) else None
      in
      (match two with
      | Some (("==" | "!=" | "<=" | ">=" | "&&" | "||" | ".." | ">>" | "<<") as op) ->
        advance lx;
        advance lx;
        PUNCT op
      | _ ->
        (match c with
        | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '=' | '<' | '>' | '+' | '-' | '*' | '!' ->
          advance lx;
          PUNCT (String.make 1 c)
        | _ -> Ast.error_at start_pos "unexpected character %C" c))
  in
  (tok, start_pos)

let tokenize src : (token * Ast.pos) list =
  let lx = create src in
  let rec go acc =
    match next lx with (EOF, _) as t -> List.rev (t :: acc) | t -> go (t :: acc)
  in
  go []
