//! Hand-written SQL tokenizer.
//!
//! [`Lexer`] streams tokens that *borrow* the statement text: a keyword is
//! its canonical `&'static str` spelling, an identifier or string literal
//! a slice of the source. Nothing is allocated per token; the parser
//! lower-cases an identifier ([`ident_text`]) or unescapes a string
//! ([`unescape`]) into an owned `String` once, where the AST takes it.

use crate::SqlError;

/// The kind of a lexed token.
///
/// `Debug` prints what the token *means*, not how it was written — an
/// identifier lower-cased, a string literal unescaped — because parse
/// errors quote tokens through it.
#[derive(Clone, Copy)]
pub enum TokenKind<'a> {
    /// An identifier (table, column, alias) as written, bare or the inside
    /// of a `"quoted"` one. SQL identifiers are case-insensitive in the
    /// dialect we model: take it through [`ident_text`].
    Ident(&'a str),
    /// A recognised SQL keyword, upper-cased (`SELECT`, `WHERE`, ...).
    Keyword(&'static str),
    /// Integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// Single-quoted string literal: the source between the quotes, `''`
    /// escapes still doubled. Take it through [`unescape`].
    Str(&'a str),
    /// A `?` or `$n` bind parameter.
    Placeholder,
    /// Punctuation / operator: `(`, `)`, `,`, `.`, `*`, `=`, `<`, `<=`, `>`,
    /// `>=`, `<>`, `!=`, `+`, `-`, `/`, `;`.
    Punct(&'static str),
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// True for literal tokens that `SQL2Template` replaces with `$`.
    pub fn is_literal(&self) -> bool {
        matches!(
            self,
            TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) | TokenKind::Placeholder
        )
    }
}

impl std::fmt::Debug for TokenKind<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenKind::Ident(s) => f.debug_tuple("Ident").field(&ident_text(s)).finish(),
            TokenKind::Keyword(k) => f.debug_tuple("Keyword").field(k).finish(),
            TokenKind::Int(v) => f.debug_tuple("Int").field(v).finish(),
            TokenKind::Float(v) => f.debug_tuple("Float").field(v).finish(),
            TokenKind::Str(raw) => f.debug_tuple("Str").field(&unescape(raw)).finish(),
            TokenKind::Placeholder => f.write_str("Placeholder"),
            TokenKind::Punct(p) => f.debug_tuple("Punct").field(p).finish(),
            TokenKind::Eof => f.write_str("Eof"),
        }
    }
}

/// The owned, lower-cased form of an [`TokenKind::Ident`] slice.
pub fn ident_text(raw: &str) -> String {
    raw.to_ascii_lowercase()
}

/// The content of a [`TokenKind::Str`] slice: `''` becomes `'`.
pub fn unescape(raw: &str) -> String {
    // A quote inside the slice is always half of a `''` escape.
    if raw.contains('\'') {
        raw.replace("''", "'")
    } else {
        raw.to_owned()
    }
}

/// [`unescape`] written over `dst`, whose buffer is reused.
pub fn unescape_into(raw: &str, dst: &mut String) {
    dst.clear();
    for (i, piece) in raw.split("''").enumerate() {
        if i > 0 {
            dst.push('\'');
        }
        dst.push_str(piece);
    }
}

/// A token plus its byte offset in the source.
#[derive(Debug, Clone, Copy)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub offset: usize,
}

/// Case-insensitive keyword lookup: the canonical upper-case spelling if
/// `word` is a keyword the parser understands, `None` otherwise (anything
/// else lexes as an identifier, which keeps the lexer forward-compatible).
/// Allocation-free.
///
/// Dispatches on `(length, first byte)` before comparing, so the common
/// case — an identifier that is *not* a keyword — decides against at most
/// four candidates. The unit test
/// `bucketed_keyword_match_agrees_with_linear_scan` pins this to a linear
/// lookup over the keyword list.
pub fn keyword_match(word: &str) -> Option<&'static str> {
    let bytes = word.as_bytes();
    let &first = bytes.first()?;
    // `| 0x20` lower-cases ASCII letters; other leading bytes (`_`) fall
    // through to the empty bucket.
    let candidates: &[&'static str] = match (bytes.len(), first | 0x20) {
        (2, b'a') => &["AS"],
        (2, b'b') => &["BY"],
        (2, b'i') => &["IN", "IS"],
        (2, b'o') => &["OR", "ON", "OF"],
        (3, b'a') => &["AND", "ASC", "AVG", "ALL"],
        (3, b'e') => &["END"],
        (3, b'f') => &["FOR"],
        (3, b'm') => &["MIN", "MAX"],
        (3, b'n') => &["NOT"],
        (3, b's') => &["SET", "SUM"],
        (4, b'c') => &["CASE"],
        (4, b'd') => &["DESC"],
        (4, b'e') => &["ELSE"],
        (4, b'f') => &["FROM", "FULL"],
        (4, b'i') => &["INTO"],
        (4, b'j') => &["JOIN"],
        (4, b'l') => &["LIKE", "LEFT"],
        (4, b'n') => &["NULL"],
        (4, b't') => &["THEN"],
        (4, b'w') => &["WHEN"],
        (5, b'c') => &["COUNT"],
        (5, b'g') => &["GROUP"],
        (5, b'i') => &["INNER"],
        (5, b'l') => &["LIMIT"],
        (5, b'o') => &["ORDER", "OUTER"],
        (5, b'r') => &["RIGHT"],
        (5, b'u') => &["UNION"],
        (5, b'w') => &["WHERE"],
        (6, b'd') => &["DELETE"],
        (6, b'e') => &["EXISTS"],
        (6, b'h') => &["HAVING"],
        (6, b'i') => &["INSERT"],
        (6, b'o') => &["OFFSET"],
        (6, b's') => &["SELECT"],
        (6, b'u') => &["UPDATE"],
        (6, b'v') => &["VALUES"],
        (7, b'b') => &["BETWEEN"],
        (8, b'd') => &["DISTINCT"],
        _ => &[],
    };
    candidates
        .iter()
        .copied()
        .find(|k| k.eq_ignore_ascii_case(word))
}

/// The bytes that continue a word (ASCII letters, digits, `_`), by table.
const WORD: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b as u8).is_ascii_alphanumeric() || b == b'_' as usize;
        b += 1;
    }
    table
};

/// Streaming tokenizer over a SQL string.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    #[inline(always)]
    fn skip_ws_and_comments(&mut self) -> Result<(), SqlError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(lex_error(start, "unterminated block comment"))
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lex one token; [`TokenKind::Eof`] at the end of the input, and from
    /// then on. After an error the lexer is at the end of its input: the
    /// byte it stopped at need not be a character boundary.
    #[inline(always)]
    pub fn next_token(&mut self) -> Result<Token<'a>, SqlError> {
        let token = self.lex_token();
        if token.is_err() {
            self.pos = self.bytes.len();
        }
        token
    }

    // Inlined with its per-token callees into `next_token`'s callers.
    #[inline(always)]
    fn lex_token(&mut self) -> Result<Token<'a>, SqlError> {
        self.skip_ws_and_comments()?;
        let offset = self.pos;
        let Some(b) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                offset,
            });
        };
        let kind = match b {
            b'\'' => self.lex_string(offset)?,
            b'0'..=b'9' => self.lex_number(offset)?,
            b'?' => {
                self.pos += 1;
                TokenKind::Placeholder
            }
            b'$' => {
                self.pos += 1;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
                TokenKind::Placeholder
            }
            b'"' => self.lex_quoted_ident(offset)?,
            b if b.is_ascii_alphabetic() || b == b'_' => self.lex_word(),
            _ => self.lex_punct(offset)?,
        };
        Ok(Token { kind, offset })
    }

    #[inline(always)]
    fn lex_string(&mut self, offset: usize) -> Result<TokenKind<'a>, SqlError> {
        debug_assert_eq!(self.peek(), Some(b'\''));
        self.pos += 1;
        let start = self.pos;
        loop {
            match self.bump() {
                // '' escapes a quote inside a string literal.
                Some(b'\'') if self.peek() == Some(b'\'') => self.pos += 1,
                // The quotes are ASCII, so the slice between them falls on
                // character boundaries whatever the content is.
                Some(b'\'') => return Ok(TokenKind::Str(&self.src[start..self.pos - 1])),
                Some(_) => {}
                None => return Err(lex_error(offset, "unterminated string literal")),
            }
        }
    }

    #[inline(always)]
    fn lex_quoted_ident(&mut self, offset: usize) -> Result<TokenKind<'a>, SqlError> {
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let ident = &self.src[start..self.pos];
                self.pos += 1;
                return Ok(TokenKind::Ident(ident));
            }
            self.pos += 1;
        }
        Err(lex_error(offset, "unterminated quoted identifier"))
    }

    #[inline(always)]
    fn lex_number(&mut self, offset: usize) -> Result<TokenKind<'a>, SqlError> {
        let start = self.pos;
        // The integer value is built while its digits are scanned; `None`
        // once it overflows `i64`, which falls back to the float path.
        let mut int = Some(0i64);
        while let Some(c) = self.peek().filter(u8::is_ascii_digit) {
            int = int.and_then(|v| v.checked_mul(10)?.checked_add(i64::from(c - b'0')));
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|e| bad_number(offset, "float", text, e))
        } else {
            // Fall back to float on i64 overflow rather than failing.
            match int {
                Some(v) => Ok(TokenKind::Int(v)),
                None => text
                    .parse::<f64>()
                    .map(TokenKind::Float)
                    .map_err(|e| bad_number(offset, "numeric", text, e)),
            }
        }
    }

    #[inline(always)]
    fn lex_word(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        while self.peek().is_some_and(|c| WORD[c as usize]) {
            self.pos += 1;
        }
        let word = &self.src[start..self.pos];
        match keyword_match(word) {
            Some(keyword) => TokenKind::Keyword(keyword),
            None => TokenKind::Ident(word),
        }
    }

    #[inline(always)]
    fn lex_punct(&mut self, offset: usize) -> Result<TokenKind<'a>, SqlError> {
        let b = self.bump().expect("caller checked non-empty");
        let two = |lx: &mut Self, s: &'static str| {
            lx.pos += 1;
            Ok(TokenKind::Punct(s))
        };
        match b {
            b'(' => Ok(TokenKind::Punct("(")),
            b')' => Ok(TokenKind::Punct(")")),
            b',' => Ok(TokenKind::Punct(",")),
            b'.' => Ok(TokenKind::Punct(".")),
            b'*' => Ok(TokenKind::Punct("*")),
            b'+' => Ok(TokenKind::Punct("+")),
            b'-' => Ok(TokenKind::Punct("-")),
            b'/' => Ok(TokenKind::Punct("/")),
            b';' => Ok(TokenKind::Punct(";")),
            b'=' => Ok(TokenKind::Punct("=")),
            b'<' => match self.peek() {
                Some(b'=') => two(self, "<="),
                Some(b'>') => two(self, "<>"),
                _ => Ok(TokenKind::Punct("<")),
            },
            b'>' => match self.peek() {
                Some(b'=') => two(self, ">="),
                _ => Ok(TokenKind::Punct(">")),
            },
            b'!' => match self.peek() {
                Some(b'=') => two(self, "<>"),
                _ => Err(lex_error(offset, "unexpected '!'")),
            },
            _ => Err(unexpected_character(self.src, offset)),
        }
    }
}

#[cold]
#[inline(never)]
fn lex_error(offset: usize, message: &str) -> SqlError {
    SqlError::Lex {
        offset,
        message: message.to_owned(),
    }
}

#[cold]
#[inline(never)]
fn bad_number(offset: usize, what: &str, text: &str, e: std::num::ParseFloatError) -> SqlError {
    lex_error(offset, &format!("bad {what} literal {text:?}: {e}"))
}

/// Names the character at `offset`, not its first byte. `offset` is a
/// character boundary: every token before it ends on an ASCII byte.
#[cold]
#[inline(never)]
fn unexpected_character(src: &str, offset: usize) -> SqlError {
    let c = src[offset..].chars().next().expect("a character at offset");
    lex_error(offset, &format!("unexpected character {c:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every keyword [`keyword_match`] must know, in one flat list.
    const KEYWORDS: &[&str] = &[
        "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING", "LIMIT", "OFFSET", "AS",
        "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL", "EXISTS", "INSERT", "INTO",
        "VALUES", "UPDATE", "SET", "DELETE", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER",
        "ON", "ASC", "DESC", "DISTINCT", "COUNT", "SUM", "AVG", "MIN", "MAX", "UNION", "ALL",
        "CASE", "WHEN", "THEN", "ELSE", "END", "FOR", "OF",
    ];

    #[test]
    fn bucketed_keyword_match_agrees_with_linear_scan() {
        let linear = |w: &str| KEYWORDS.iter().copied().find(|k| k.eq_ignore_ascii_case(w));
        // Every keyword in canonical, lower and mixed case.
        for &k in KEYWORDS {
            let lower = k.to_ascii_lowercase();
            let mixed: String = k
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            for w in [k, lower.as_str(), mixed.as_str()] {
                assert_eq!(keyword_match(w), Some(k), "keyword {w:?}");
                assert_eq!(keyword_match(w), linear(w));
            }
        }
        // Non-keywords that share a bucket, length or prefix with one.
        for w in [
            "",
            "_",
            "z",
            "ok",
            "ox",
            "ana",
            "sel",
            "selec",
            "select1",
            "selects",
            "wherex",
            "where_",
            "likeness",
            "betwee",
            "betweenx",
            "distinc",
            "distinctx",
            "account",
            "balance",
            "o_id",
            "inx",
        ] {
            assert_eq!(keyword_match(w), linear(w), "non-keyword {w:?}");
        }
    }

    fn tokens(sql: &str) -> Result<Vec<Token<'_>>, SqlError> {
        let mut lexer = Lexer::new(sql);
        let mut out = Vec::new();
        loop {
            let token = lexer.next_token()?;
            out.push(token);
            if matches!(token.kind, TokenKind::Eof) {
                return Ok(out);
            }
        }
    }

    /// The tokens of `sql` as their `Debug` rendering: what a token means
    /// (identifier lower-cased, string unescaped), which is also what parse
    /// errors quote.
    fn kinds(sql: &str) -> Vec<String> {
        tokens(sql)
            .unwrap()
            .iter()
            .map(|t| format!("{:?}", t.kind))
            .collect()
    }

    #[test]
    fn lexes_keywords_case_insensitively() {
        assert_eq!(
            kinds("select FROM WhErE"),
            [
                r#"Keyword("SELECT")"#,
                r#"Keyword("FROM")"#,
                r#"Keyword("WHERE")"#,
                "Eof"
            ]
        );
    }

    #[test]
    fn lexes_identifiers_lowercased() {
        let toks = tokens("Customer c_ID").unwrap();
        assert!(matches!(toks[0].kind, TokenKind::Ident("Customer")));
        assert_eq!(
            kinds("Customer c_ID"),
            [r#"Ident("customer")"#, r#"Ident("c_id")"#, "Eof"]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 2.75 1e3 7.5e-2"),
            [
                "Int(42)",
                "Float(2.75)",
                "Float(1000.0)",
                "Float(0.075)",
                "Eof"
            ]
        );
    }

    /// Integers are built digit by digit while they are scanned: the value
    /// `str::parse` reads from the number's text, `i64` while it fits and
    /// the float path past that.
    #[test]
    fn integers_read_as_str_parse_reads_them() {
        let max = i64::MAX.to_string();
        let over = "9223372036854775808"; // i64::MAX + 1
        let cases = [
            ("0", "0"),
            ("007", "007"),
            (max.as_str(), max.as_str()),
            (over, over),
            ("1e3", "1e3"),
            ("1.5", "1.5"),
            ("3e", "3"), // an exponent without digits is not part of it
        ];
        for (sql, number) in cases {
            let want = match number.parse::<i64>() {
                Ok(v) => TokenKind::Int(v),
                Err(_) => TokenKind::Float(number.parse::<f64>().unwrap()),
            };
            let got = tokens(sql).unwrap()[0].kind;
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{sql}");
        }
        assert!(matches!(tokens(over).unwrap()[0].kind, TokenKind::Float(_)));
        assert_eq!(kinds("3e")[1], r#"Ident("e")"#);
    }

    #[test]
    fn int_overflow_falls_back_to_float() {
        let toks = tokens("99999999999999999999999999").unwrap();
        assert!(matches!(toks[0].kind, TokenKind::Float(_)));
    }

    #[test]
    fn lexes_strings_with_escaped_quotes() {
        let toks = tokens("'o''brien' 'café' ''").unwrap();
        assert!(matches!(toks[0].kind, TokenKind::Str("o''brien")));
        assert!(matches!(toks[1].kind, TokenKind::Str("café")));
        assert!(matches!(toks[2].kind, TokenKind::Str("")));
        assert_eq!(unescape("o''brien"), "o'brien");
        let mut into = String::from("a longer leftover");
        for raw in ["o''brien", "''''", "x''", "", "café"] {
            unescape_into(raw, &mut into);
            assert_eq!(into, unescape(raw), "{raw}");
        }
        assert_eq!(
            kinds("'o''brien' 'café'"),
            [r#"Str("o'brien")"#, r#"Str("café")"#, "Eof"]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokens("'oops").is_err());
        assert!(tokens("'oops''").is_err());
    }

    #[test]
    fn the_lexer_reads_eof_after_an_error() {
        // The stray byte is the first of a two-byte character: whatever
        // follows must not be sliced from the middle of it.
        let mut lexer = Lexer::new("a é 'x'");
        assert!(matches!(
            lexer.next_token().unwrap().kind,
            TokenKind::Ident("a")
        ));
        assert!(lexer.next_token().is_err());
        assert!(matches!(lexer.next_token().unwrap().kind, TokenKind::Eof));
    }

    #[test]
    fn lexes_placeholders() {
        assert_eq!(
            kinds("? $1 $23"),
            ["Placeholder", "Placeholder", "Placeholder", "Eof"]
        );
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("<= >= <> != ="),
            [
                r#"Punct("<=")"#,
                r#"Punct(">=")"#,
                r#"Punct("<>")"#,
                r#"Punct("<>")"#,
                r#"Punct("=")"#,
                "Eof"
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            kinds("select -- hi\n /* block\n comment */ 1"),
            [r#"Keyword("SELECT")"#, "Int(1)", "Eof"]
        );
    }

    #[test]
    fn unterminated_block_comment_is_error() {
        assert!(tokens("select /* nope").is_err());
    }

    #[test]
    fn quoted_identifier() {
        assert_eq!(kinds("\"Order\"")[0], r#"Ident("order")"#);
    }

    #[test]
    fn offsets_point_at_token_start() {
        let toks = tokens("ab  cd").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 4);
    }

    #[test]
    fn literal_classification() {
        assert!(TokenKind::Int(1).is_literal());
        assert!(TokenKind::Str("x").is_literal());
        assert!(TokenKind::Placeholder.is_literal());
        assert!(!TokenKind::Ident("a").is_literal());
        assert!(!TokenKind::Punct("=").is_literal());
    }
}
