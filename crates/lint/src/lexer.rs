//! A small hand-rolled Rust lexer.
//!
//! The linter's rules are lexical pattern matches over token streams, so
//! the lexer only needs to be precise about the things that would cause
//! false positives in a grep-based checker: comments (line, doc, nested
//! block), string/char literals (including raw and byte strings), and
//! lifetimes-vs-char-literals. It deliberately does not build an AST —
//! the workspace compiles offline against `vendor/`, so pulling in `syn`
//! is not an option, and the rules only ever need token adjacency plus
//! brace-depth tracking (see [`crate::rules`]).

/// Token classes the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `Vec`, ...).
    Ident,
    /// Single punctuation character (`{`, `:`, `!`, `#`, ...).
    Punct(char),
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text (empty for punctuation — the char lives in the kind).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// Whether this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// A comment with the span of lines it covers (block comments may span
/// several). Doc comments are comments too.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based first line.
    pub start_line: u32,
    /// 1-based last line (== `start_line` for `//` comments).
    pub end_line: u32,
    /// Comment body without the `//` / `/*` markers.
    pub text: String,
}

/// The lexer output: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src` into tokens and comments.
///
/// The lexer is total: any byte sequence produces *some* token stream
/// (unterminated literals run to end of input), so a syntactically broken
/// file degrades to weaker linting rather than a crash.
pub fn lex(src: &str) -> Lexed {
    Lexer { src: src.as_bytes(), pos: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' => self.raw_or_ident(),
                _ if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => {
                    self.push(TokKind::Punct(c as char), String::new(), self.line);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Tok { kind, text, line });
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let line = self.line;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment { start_line: line, end_line: line, text });
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            match (self.src[self.pos], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.pos += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.pos += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.comments.push(Comment { start_line, end_line: self.line, text });
    }

    /// Ordinary (escaped) string literal; the opening quote is current.
    fn string(&mut self) {
        let line = self.line;
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// Raw string with `hashes` trailing `#`s; cursor is on the opening `"`.
    fn raw_string(&mut self, hashes: usize) {
        let line = self.line;
        self.pos += 1;
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.pos += 1;
                continue;
            }
            if self.src[self.pos] == b'"'
                && self.src[self.pos + 1..].iter().take(hashes).filter(|&&b| b == b'#').count()
                    == hashes
            {
                self.pos += 1 + hashes;
                break;
            }
            self.pos += 1;
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// `'a'` / `b'a'` char literals versus `'a` lifetimes.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let next = self.peek(1);
        let is_char = match next {
            Some(b'\\') => true,
            Some(c) if c == b'_' || c.is_ascii_alphanumeric() => {
                // 'x' is a char only when a quote closes it immediately;
                // otherwise it is the lifetime 'x (or 'xyz).
                self.peek(2) == Some(b'\'')
            }
            Some(_) => true, // '(' etc: a char literal of punctuation
            None => false,
        };
        if !is_char {
            self.pos += 1;
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
            let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        self.pos += 1;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokKind::Char, String::new(), line);
    }

    /// Disambiguates `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` and plain
    /// identifiers starting with `r`/`b` (including `r#raw_idents`).
    fn raw_or_ident(&mut self) {
        let c = self.src[self.pos];
        let mut ahead = 1usize;
        if c == b'b' && self.peek(1) == Some(b'r') {
            ahead = 2;
        }
        if c == b'b' && self.peek(1) == Some(b'\'') {
            self.pos += 1;
            self.char_or_lifetime();
            return;
        }
        if c == b'b' && self.peek(1) == Some(b'"') {
            self.pos += 1;
            self.string();
            return;
        }
        let mut hashes = 0usize;
        while self.peek(ahead + hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(ahead + hashes) == Some(b'"') && (ahead == 2 || c == b'r') {
            self.pos += ahead + hashes;
            self.raw_string(hashes);
            return;
        }
        self.ident();
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.pos;
        // Skip a raw-identifier prefix (`r#match`) so the text is the name.
        if self.src[self.pos] == b'r' && self.peek(1) == Some(b'#') {
            self.pos += 2;
        }
        while self.pos < self.src.len()
            && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        let text_start = if self.src[start] == b'r' && self.src.get(start + 1) == Some(&b'#') {
            start + 2
        } else {
            start
        };
        let text = String::from_utf8_lossy(&self.src[text_start..self.pos]).into_owned();
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        while self.pos < self.src.len()
            && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
        {
            self.pos += 1;
        }
        // Fractional part: a dot followed by a digit (so `0..n` ranges and
        // `1.max(2)` method calls keep their dots as punctuation).
        if self.pos + 1 < self.src.len()
            && self.src[self.pos] == b'.'
            && self.src[self.pos + 1].is_ascii_digit()
        {
            self.pos += 1;
            while self.pos < self.src.len()
                && (self.src[self.pos] == b'_' || self.src[self.pos].is_ascii_alphanumeric())
            {
                self.pos += 1;
            }
        }
        self.push(TokKind::Num, String::new(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_do_not_produce_code_tokens() {
        let l = lex("// File::create in a comment\nlet x = 1; /* fs::write */");
        assert!(l.tokens.iter().all(|t| t.text != "File" && t.text != "fs"));
        assert_eq!(l.comments.len(), 2);
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r##"let s = "File::create"; let r = r#"fs::write"#;"##);
        assert!(l.tokens.iter().all(|t| t.text != "File" && t.text != "fs"));
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = l.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert!(!l.tokens.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn char_literals_including_escapes() {
        let l = lex(r"let a = 'x'; let b = '\n'; let c = '\''; let d = b'q';");
        assert_eq!(l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 4);
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let l = lex("/* outer /* inner */ still comment */\nfn f() {}");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].start_line, 1);
        let f = l.tokens.iter().find(|t| t.is_ident("fn")).unwrap();
        assert_eq!(f.line, 2);
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let l = lex("let s = \"a\nb\nc\";\nfn g() {}");
        let g = l.tokens.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 4);
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_method_calls() {
        let l = lex("for i in 0..10 { let x = 1.5e3; let y = 2.0f32; }");
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2, "the `..` of the range must stay punctuation");
    }

    #[test]
    fn raw_identifiers_keep_their_name() {
        assert!(idents("let r#type = 1;").contains(&"type".to_string()));
    }

    #[test]
    fn vec_macro_tokens() {
        let l = lex("let v = vec![1, 2];");
        let i = l.tokens.iter().position(|t| t.is_ident("vec")).unwrap();
        assert!(l.tokens[i + 1].is_punct('!'));
    }
}
