//! SQL tokenizer for the SPJA subset.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (already lowercased; keywords are checked by
    /// the parser via [`Token::is_kw`]).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// A punctuation or operator symbol: `( ) , . * = != <> < <= > >= + -`.
    Sym(&'static str),
    /// End of input.
    Eof,
}

impl Token {
    /// True when the token is the given keyword (case-insensitive match was
    /// done at lex time by lowercasing identifiers).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s == kw)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Sym(s) => write!(f, "{s}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Lexing / parsing error with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// Human-readable message.
    pub message: String,
    /// Approximate byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SqlError {}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<(Token, usize)>, SqlError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    // `i` only ever advances over ASCII bytes or whole string-literal runs,
    // so it is always a char boundary and `c` is the real character there.
    while let Some(c) = input[i..].chars().next() {
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = input[start..i].to_ascii_lowercase();
            toks.push((Token::Ident(word), start));
        } else if c.is_ascii_digit() {
            let mut is_float = false;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_digit()
                    || (bytes[i] == b'.'
                        && !is_float
                        && matches!(bytes.get(i+1), Some(d) if (*d as char).is_ascii_digit())))
            {
                if bytes[i] == b'.' {
                    is_float = true;
                }
                i += 1;
            }
            let text = &input[start..i];
            let tok = if is_float {
                Token::Float(text.parse().map_err(|_| SqlError {
                    message: format!("bad float literal {text}"),
                    offset: start,
                })?)
            } else {
                Token::Int(text.parse().map_err(|_| SqlError {
                    message: format!("bad int literal {text}"),
                    offset: start,
                })?)
            };
            toks.push((tok, start));
        } else if c == '\'' {
            let mut s = String::new();
            i += 1;
            loop {
                // Contents are copied as `&str` runs between quotes (a quote
                // byte never occurs inside a multi-byte character).
                let Some(run) = bytes[i..].iter().position(|&b| b == b'\'') else {
                    return Err(SqlError {
                        message: "unterminated string literal".into(),
                        offset: start,
                    });
                };
                s.push_str(&input[i..i + run]);
                i += run + 1;
                if bytes.get(i) != Some(&b'\'') {
                    break;
                }
                s.push('\'');
                i += 1;
            }
            toks.push((Token::Str(s), start));
        } else {
            let sym: &'static str = match (c, bytes.get(i + 1)) {
                ('!', Some(b'=')) => "!=",
                ('<', Some(b'>')) => "<>",
                ('<', Some(b'=')) => "<=",
                ('>', Some(b'=')) => ">=",
                ('(', _) => "(",
                (')', _) => ")",
                (',', _) => ",",
                ('.', _) => ".",
                ('*', _) => "*",
                ('=', _) => "=",
                ('<', _) => "<",
                ('>', _) => ">",
                ('+', _) => "+",
                ('-', _) => "-",
                ('/', _) => "/",
                _ => {
                    return Err(SqlError {
                        message: format!("unexpected character {c:?}"),
                        offset: i,
                    })
                }
            };
            i += sym.len();
            toks.push((Token::Sym(sym), start));
        }
    }
    toks.push((Token::Eof, input.len()));
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<Token> {
        tokenize(s).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn keywords_are_lowercased_identifiers() {
        assert_eq!(
            toks("SELECT Count"),
            vec![
                Token::Ident("select".into()),
                Token::Ident("count".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn numbers_and_strings() {
        assert_eq!(
            toks("42 3.5 'it''s'"),
            vec![
                Token::Int(42),
                Token::Float(3.5),
                Token::Str("it's".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn symbols_including_two_char() {
        assert_eq!(
            toks("a <= b != c"),
            vec![
                Token::Ident("a".into()),
                Token::Sym("<="),
                Token::Ident("b".into()),
                Token::Sym("!="),
                Token::Ident("c".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a -- comment\n b"),
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn dotted_names_are_three_tokens() {
        assert_eq!(
            toks("u.id"),
            vec![
                Token::Ident("u".into()),
                Token::Sym("."),
                Token::Ident("id".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn count_star_call() {
        assert_eq!(
            toks("COUNT(*)"),
            vec![
                Token::Ident("count".into()),
                Token::Sym("("),
                Token::Sym("*"),
                Token::Sym(")"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let err = tokenize("a ; b").unwrap_err();
        assert_eq!(err.offset, 2);
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn non_ascii_is_an_error_outside_literals_and_verbatim_inside() {
        // Each of the first three used to panic slicing `input[i..i + 2]`
        // inside a multi-byte character.
        for (sql, offset) in [
            ("SELECT € FROM t", 7),
            ("SELECT (é FROM t", 8),
            ("SELECT a FROM t WHERE a =€", 25),
        ] {
            let err = tokenize(sql).unwrap_err();
            let bad = sql[offset..].chars().next().unwrap();
            assert_eq!(err.offset, offset, "{sql}");
            assert_eq!(err.message, format!("unexpected character {bad:?}"));
        }
        assert_eq!(
            toks("note = 'λ'"),
            vec![
                Token::Ident("note".into()),
                Token::Sym("="),
                Token::Str("λ".into()),
                Token::Eof
            ]
        );
        assert_eq!(
            toks("'it''s λ'"),
            vec![Token::Str("it's λ".into()), Token::Eof]
        );
        assert_eq!(toks("''''"), vec![Token::Str("'".into()), Token::Eof]);
        assert!(tokenize("'λ").is_err());
    }

    #[test]
    fn negative_handled_as_symbol() {
        // `-` is a symbol; the parser folds unary minus.
        assert_eq!(toks("-3"), vec![Token::Sym("-"), Token::Int(3), Token::Eof]);
    }
}
