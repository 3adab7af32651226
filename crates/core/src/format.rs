//! The DetKDecomp-compatible `HG` text format.
//!
//! The format used by the original DetKDecomp tool and by the HyperBench
//! repository stores one hypergraph per file as a list of edge atoms:
//!
//! ```text
//! % a comment
//! R(a,b,c),
//! S(c,d),
//! T(d,a).
//! ```
//!
//! Edge atoms are `name(v1,...,vn)`, separated by commas (newlines are
//! whitespace); the final `.` is optional. `%` starts a line comment.
//! `<name>` tokens may contain any characters except `(`, `)`, `,`,
//! whitespace and `%`.

use crate::builder::HypergraphBuilder;
use crate::error::CoreError;
use crate::hypergraph::Hypergraph;

/// Parses a hypergraph from HG text.
pub fn parse_hg(input: &str) -> Result<Hypergraph, CoreError> {
    parse_hg_named(input, "")
}

/// Parses a hypergraph from HG text, attaching `name` to the result.
pub fn parse_hg_named(input: &str, name: &str) -> Result<Hypergraph, CoreError> {
    let mut builder = HypergraphBuilder::named(name).dedupe_edges(true);
    let mut chars = Lexer::new(input);

    loop {
        chars.skip_ws_and_comments();
        if chars.eof() {
            break;
        }
        let edge_name = chars.ident()?;
        chars.skip_ws_and_comments();
        chars.expect('(')?;
        let mut vertices: Vec<String> = Vec::new();
        loop {
            chars.skip_ws_and_comments();
            if chars.peek() == Some(')') {
                chars.next();
                break;
            }
            let v = chars.ident()?;
            vertices.push(v);
            chars.skip_ws_and_comments();
            match chars.peek() {
                Some(',') => {
                    chars.next();
                }
                Some(')') => {
                    chars.next();
                    break;
                }
                other => {
                    return Err(chars.err(format!(
                        "expected ',' or ')' in edge {edge_name}, found {other:?}"
                    )))
                }
            }
        }
        if vertices.is_empty() {
            return Err(chars.err(format!("edge {edge_name} has no vertices")));
        }
        builder.add_edge(&edge_name, &vertices);
        chars.skip_ws_and_comments();
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some('.') => {
                chars.next();
                chars.skip_ws_and_comments();
                if !chars.eof() {
                    return Err(chars.err("content after final '.'".to_string()));
                }
                break;
            }
            None => break,
            Some(c) if c.is_alphanumeric() || c == '_' => {
                // Newline-separated atoms without commas are tolerated.
            }
            Some(other) => {
                return Err(chars.err(format!("unexpected character {other:?} between edges")))
            }
        }
    }

    Ok(builder.build())
}

/// Serializes a hypergraph to HG text. Parsing the output reproduces the
/// hypergraph, edge order included, after multi-edge elimination: an edge
/// whose vertex set repeats an earlier edge's is left out, as the parser
/// would drop it (see [`Hypergraph::distinct_edge_ids`]).
pub fn to_hg(h: &Hypergraph) -> String {
    let mut out = String::new();
    if !h.name().is_empty() {
        out.push_str(&format!("% {}\n", h.name()));
    }
    write_hg_edges(h, &mut out);
    out
}

/// Serializes a hypergraph to HG text *without* the `% name` header.
/// Used by repository persistence, where the name is carried by the file
/// name instead — keeping save→load→save byte-identical regardless of
/// how the in-memory hypergraph was named.
pub fn to_hg_unnamed(h: &Hypergraph) -> String {
    let mut out = String::new();
    write_hg_edges(h, &mut out);
    out
}

fn write_hg_edges(h: &Hypergraph, out: &mut String) {
    let start = out.len();
    for e in h.distinct_edge_ids() {
        let vs: Vec<&str> = h.edge(e).iter().map(|&v| h.vertex_name(v)).collect();
        out.push_str(h.edge_name(e));
        out.push('(');
        out.push_str(&vs.join(","));
        out.push_str("),\n");
    }
    // The last edge ends the list with '.' instead of ','.
    if out.len() > start {
        out.truncate(out.len() - 2);
        out.push_str(".\n");
    }
}

struct Lexer<'a> {
    input: &'a str,
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            chars: input.chars().peekable(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.chars.next();
        if let Some(c) = c {
            self.pos += c.len_utf8();
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn eof(&mut self) -> bool {
        self.peek().is_none()
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.next();
                }
                Some('%') => {
                    while let Some(c) = self.next() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn ident(&mut self) -> Result<String, CoreError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_whitespace() || matches!(c, '(' | ')' | ',' | '%') {
                break;
            }
            if c == '.' {
                // A dot is part of the identifier only when followed by
                // another identifier character (e.g. SQL-derived vertex
                // names like `t1.c0`); otherwise it terminates the file.
                let next_ok = self.input[self.pos + 1..]
                    .chars()
                    .next()
                    .map(|n| !n.is_whitespace() && !matches!(n, '(' | ')' | ',' | '%' | '.'))
                    .unwrap_or(false);
                if !next_ok {
                    break;
                }
            }
            self.next();
        }
        if self.pos == start {
            return Err(self.err("expected identifier".to_string()));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn expect(&mut self, c: char) -> Result<(), CoreError> {
        let found = self.peek();
        if found == Some(c) {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}, found {found:?}")))
        }
    }

    fn err(&self, message: String) -> CoreError {
        CoreError::Parse {
            line: self.line,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_file() {
        let h = parse_hg("R(a,b),\nS(b,c),\nT(c,a).").unwrap();
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.edge_name(0), "R");
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let h = parse_hg("% header\n  R ( a , b ) , % trailing\n S(b,c)\n").unwrap();
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn final_period_optional() {
        assert_eq!(parse_hg("R(a,b)").unwrap().num_edges(), 1);
        assert_eq!(parse_hg("R(a,b).").unwrap().num_edges(), 1);
    }

    #[test]
    fn duplicate_edges_are_deduped() {
        let h = parse_hg("R(a,b), S(b,a).").unwrap();
        assert_eq!(h.num_edges(), 1);
    }

    #[test]
    fn error_on_empty_edge() {
        let e = parse_hg("R()").unwrap_err();
        assert!(matches!(e, CoreError::Parse { .. }));
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse_hg("R(a,b),\nS(b,c),\nbad((x)").unwrap_err();
        match e {
            CoreError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_on_trailing_garbage() {
        assert!(parse_hg("R(a,b). S(c,d)").is_err());
    }

    #[test]
    fn roundtrip() {
        let text = "R(a,b,c),\nS(c,d),\nT(d,a).";
        let h1 = parse_hg(text).unwrap();
        let out = to_hg(&h1);
        let h2 = parse_hg(&out).unwrap();
        assert_eq!(h1.num_edges(), h2.num_edges());
        assert_eq!(h1.num_vertices(), h2.num_vertices());
        for e in h1.edge_ids() {
            let v1: Vec<&str> = h1.edge(e).iter().map(|&v| h1.vertex_name(v)).collect();
            let v2: Vec<&str> = h2.edge(e).iter().map(|&v| h2.vertex_name(v)).collect();
            assert_eq!(v1, v2);
        }
    }

    #[test]
    fn named_roundtrip_keeps_name_as_comment() {
        let h = parse_hg_named("R(a,b).", "tpch/q5").unwrap();
        assert_eq!(h.name(), "tpch/q5");
        assert!(to_hg(&h).starts_with("% tpch/q5"));
    }

    #[test]
    fn odd_identifiers() {
        let h = parse_hg("rel-1_x(v$1,v:2).").unwrap();
        assert_eq!(h.edge_name(0), "rel-1_x");
        assert!(h.vertex_by_name("v$1").is_some());
    }

    #[test]
    fn dotted_identifiers_roundtrip() {
        // SQL-derived vertex names are qualified: `alias.column`.
        let h = parse_hg("t1(t1.c0,t1.c1),\nt2(t1.c0,t2.c1).").unwrap();
        assert_eq!(h.num_edges(), 2);
        assert!(h.vertex_by_name("t1.c0").is_some());
        let out = to_hg(&h);
        let h2 = parse_hg(&out).unwrap();
        assert_eq!(h2.num_vertices(), 3);
    }
}
