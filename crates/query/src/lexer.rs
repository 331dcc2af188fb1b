//! SQL tokenizer.

use jits_common::{JitsError, Result};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (original case preserved; keyword matching is
    /// case-insensitive).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `;`
    Semicolon,
}

impl Token {
    /// True if the token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes SQL text.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' if !next_is_digit(bytes, i + 1) => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(JitsError::Parse(format!("unexpected '!' at byte {i}")));
                }
            }
            '\'' => {
                let (s, next) = lex_string(input, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            '-' | '0'..='9' | '.' => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(input[start..i].to_string()));
            }
            other => {
                return Err(JitsError::Parse(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    Ok(tokens)
}

fn next_is_digit(bytes: &[u8], i: usize) -> bool {
    bytes.get(i).is_some_and(|b| b.is_ascii_digit())
}

fn lex_string(input: &str, start: usize) -> Result<(String, usize)> {
    let bytes = input.as_bytes();
    let mut i = start + 1;
    let mut out = String::new();
    while i < bytes.len() {
        if bytes[i] == b'\'' {
            if bytes.get(i + 1) == Some(&b'\'') {
                out.push('\'');
                i += 2;
            } else {
                return Ok((out, i + 1));
            }
        } else {
            // multi-byte chars: advance over the full char
            let Some(ch) = input[i..].chars().next() else {
                break;
            };
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Err(JitsError::Parse("unterminated string literal".into()))
}

fn lex_number(input: &str, start: usize) -> Result<(Token, usize)> {
    let bytes = input.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
    }
    let digits_start = i;
    let mut saw_dot = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !saw_dot => {
                saw_dot = true;
                i += 1;
            }
            _ => break,
        }
    }
    if i == digits_start {
        return Err(JitsError::Parse(format!(
            "malformed number at byte {start}"
        )));
    }
    let text = &input[start..i];
    let tok = if saw_dot {
        Token::Float(
            text.parse::<f64>()
                .map_err(|e| JitsError::Parse(format!("bad float '{text}': {e}")))?,
        )
    } else {
        Token::Int(
            text.parse::<i64>()
                .map_err(|e| JitsError::Parse(format!("bad integer '{text}': {e}")))?,
        )
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select_tokens() {
        let t = tokenize("SELECT price FROM car WHERE make = 'Toyota'").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("SELECT".into()),
                Token::Ident("price".into()),
                Token::Ident("FROM".into()),
                Token::Ident("car".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("make".into()),
                Token::Eq,
                Token::Str("Toyota".into()),
            ]
        );
    }

    #[test]
    fn operators() {
        let t = tokenize("a<=1 b>=2 c<>3 d!=4 e<5 f>6").unwrap();
        assert!(t.contains(&Token::Le));
        assert!(t.contains(&Token::Ge));
        assert_eq!(t.iter().filter(|x| **x == Token::Ne).count(), 2);
        assert!(t.contains(&Token::Lt));
        assert!(t.contains(&Token::Gt));
    }

    #[test]
    fn numbers() {
        let t = tokenize("42 -7 3.5 -0.25").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Int(42),
                Token::Int(-7),
                Token::Float(3.5),
                Token::Float(-0.25),
            ]
        );
    }

    #[test]
    fn qualified_column_and_star() {
        let t = tokenize("c.make, count(*)").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("c".into()),
                Token::Dot,
                Token::Ident("make".into()),
                Token::Comma,
                Token::Ident("count".into()),
                Token::LParen,
                Token::Star,
                Token::RParen,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        let t = tokenize("'O''Hara'").unwrap();
        assert_eq!(t, vec![Token::Str("O'Hara".into())]);
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("a # b").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn keyword_matching_case_insensitive() {
        let t = tokenize("select").unwrap();
        assert!(t[0].is_keyword("SELECT"));
        assert!(t[0].is_keyword("select"));
        assert!(!t[0].is_keyword("from"));
    }
}
