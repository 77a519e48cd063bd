//! Per-file structural scan on top of the token stream: function
//! extents (with cold-path annotations), `#[cfg(test)]` / `#[test]`
//! item ranges, and the small token-pattern helpers the rules share.

use crate::lexer::{Lexed, LineKind, Tok, TokKind};

/// One `fn` item's source extent.
#[derive(Debug, Clone)]
pub struct FnSpan {
    pub name: String,
    pub start_line: u32,
    pub end_line: u32,
    /// `#[cold]` attribute or an `analyze: cold` marker comment in the
    /// contiguous attribute/comment block above the signature.
    pub cold: bool,
}

/// A lexed file plus the derived structure the rules query.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path, forward slashes.
    pub path: String,
    pub lexed: Lexed,
    pub fn_spans: Vec<FnSpan>,
    /// Line ranges (inclusive) of items under `#[cfg(test)]` / `#[test]`.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lex and scan one file.
    #[must_use]
    pub fn new(path: String, text: &str) -> SourceFile {
        let lexed = crate::lexer::lex(text);
        let fn_spans = fn_spans(&lexed);
        let test_ranges = test_ranges(&lexed);
        SourceFile {
            path,
            lexed,
            fn_spans,
            test_ranges,
        }
    }

    /// Is 1-based `line` inside a `#[cfg(test)]` / `#[test]` item?
    #[must_use]
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Is `line` inside any function marked cold?
    #[must_use]
    pub fn in_cold_fn(&self, line: u32) -> bool {
        self.fn_spans
            .iter()
            .any(|f| f.cold && (f.start_line..=f.end_line).contains(&line))
    }

    /// The tokens of this file.
    #[must_use]
    pub fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }
}

fn is(t: &Tok, kind: TokKind, text: &str) -> bool {
    t.kind == kind && t.text == text
}

/// Find the index of the `}` matching the `{` at `open` (or the last
/// token if unbalanced — truncated input never panics).
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// From an item keyword at `i`, find its body `{..}` extent or `;`
/// terminator: `(start_line, end_line, index_after)`. Depth-tracks
/// parens/brackets so a `;` inside `[u8; 3]` does not end the item.
fn item_extent(toks: &[Tok], i: usize) -> (u32, u32, usize) {
    let start_line = toks[i].line;
    let mut depth = 0i64;
    let mut k = i;
    while k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    let close = match_brace(toks, k);
                    return (start_line, toks[close].line, close + 1);
                }
                ";" if depth == 0 => return (start_line, t.line, k + 1),
                _ => {}
            }
        }
        k += 1;
    }
    let end = toks.last().map_or(start_line, |t| t.line);
    (start_line, end, toks.len())
}

/// The tokens inside the attribute starting at `#` index `i` (expects
/// `toks[i] == "#"`, `toks[i+1] == "["`). Returns (body, index past `]`).
fn attr_body(toks: &[Tok], i: usize) -> Option<(&[Tok], usize)> {
    if !is(toks.get(i)?, TokKind::Punct, "#") || !is(toks.get(i + 1)?, TokKind::Punct, "[") {
        return None;
    }
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(i + 1) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some((&toks[i + 2..k], k + 1));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// `toks` is `name ( args )`: the tokens between the parentheses.
fn call_args<'t>(toks: &'t [Tok], name: &str) -> Option<&'t [Tok]> {
    match toks {
        [head, open, args @ .., close]
            if is(head, TokKind::Ident, name)
                && is(open, TokKind::Punct, "(")
                && is(close, TokKind::Punct, ")") =>
        {
            Some(args)
        }
        _ => None,
    }
}

/// Does the cfg predicate `pred` hold only in test builds? True for
/// `test` and for `all(..)` with such an argument; `not(test)`,
/// `any(test, ..)` and everything else may hold in a production build.
fn implies_test(pred: &[Tok]) -> bool {
    if let [t] = pred {
        return is(t, TokKind::Ident, "test");
    }
    let Some(args) = call_args(pred, "all") else {
        return false;
    };
    let mut depth = 0i64;
    args.split(|t| {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                "," => return depth == 0,
                _ => {}
            }
        }
        false
    })
    .any(implies_test)
}

/// Is this attribute body `test` or `cfg(p)` with `p` implying `test`?
/// `cfg_attr(test, ..)` only changes attributes, never whether the item
/// is compiled, so it exempts nothing.
fn is_test_attr(body: &[Tok]) -> bool {
    match body {
        [t] => is(t, TokKind::Ident, "test"),
        _ => call_args(body, "cfg").is_some_and(implies_test),
    }
}

/// Ranges of items compiled only for tests: under `#[test]` or a
/// `#[cfg(..)]` whose predicate implies `test`. Nested occurrences
/// simply produce nested ranges.
fn test_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let Some((body, mut after)) = attr_body(toks, i) else {
            i += 1;
            continue;
        };
        if !is_test_attr(body) {
            i = after;
            continue;
        }
        // Skip any further attributes between this one and the item.
        while let Some((_, next)) = attr_body(toks, after) {
            after = next;
        }
        if after < toks.len() {
            let (lo, hi, _) = item_extent(toks, after);
            out.push((toks[i].line.min(lo), hi));
        }
        i = after;
    }
    out
}

/// All `fn` item extents with their cold classification.
fn fn_spans(lexed: &Lexed) -> Vec<FnSpan> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is(&toks[i], TokKind::Ident, "fn") {
            continue;
        }
        // An item fn is `fn <name>`; a bare `fn(` is a fn-pointer type.
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let (start_line, end_line, _) = item_extent(toks, i);
        let cold = fn_is_cold(lexed, toks, i);
        out.push(FnSpan {
            name: name_tok.text.clone(),
            start_line,
            end_line,
            cold,
        });
    }
    out
}

/// Cold if the contiguous comment/attribute block directly above the
/// `fn` line carries `#[cold]` or an `analyze: cold` marker comment.
fn fn_is_cold(lexed: &Lexed, toks: &[Tok], fn_idx: usize) -> bool {
    // Token-side: walk attribute groups backwards from the fn keyword,
    // skipping visibility/qualifier tokens (`pub`, `(crate)`, `unsafe`,
    // `const`, `extern "C"`, `async`).
    let mut j = fn_idx;
    while j > 0 {
        let t = &toks[j - 1];
        let skip = matches!(
            (t.kind, t.text.as_str()),
            (
                TokKind::Ident,
                "pub"
                    | "crate"
                    | "super"
                    | "in"
                    | "self"
                    | "unsafe"
                    | "const"
                    | "async"
                    | "extern"
                    | "default"
            ) | (TokKind::Punct, "(" | ")")
                | (TokKind::Str, _)
        );
        if skip {
            j -= 1;
        } else {
            break;
        }
    }
    // Attribute groups end with `]`; scan each for the ident `cold`.
    let mut sig_line = toks[fn_idx].line;
    while j > 0 && is(&toks[j - 1], TokKind::Punct, "]") {
        let mut depth = 0i64;
        let mut k = j - 1;
        loop {
            match (toks[k].kind, toks[k].text.as_str()) {
                (TokKind::Punct, "]") => depth += 1,
                (TokKind::Punct, "[") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                break;
            }
            k -= 1;
        }
        let group: Vec<&str> = toks[k..j]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        if group.contains(&"cold") {
            return true;
        }
        // The `#` sits one before the `[`.
        j = k.saturating_sub(1);
        sig_line = sig_line.min(toks[j.min(toks.len() - 1)].line);
    }
    // Comment-side: contiguous CommentOnly/AttrOnly lines directly above
    // the first line of the signature/attribute stack.
    let mut l = sig_line.saturating_sub(1);
    while l >= 1 {
        match lexed.kind_of(l) {
            LineKind::CommentOnly | LineKind::AttrOnly => {
                if lexed.comment_on(l).contains("analyze: cold") {
                    return true;
                }
                l -= 1;
            }
            _ => break,
        }
    }
    // A same-line marker on the signature line also counts.
    lexed
        .comment_on(toks[fn_idx].line)
        .contains("analyze: cold")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fn_spans_and_cold_markers() {
        let src = "\
// analyze: cold (init only)
fn setup() {
    let v = 1;
}

#[cold]
pub fn also_cold() {}

fn hot() { work(); }
";
        let f = SourceFile::new("x.rs".into(), src);
        let names: Vec<(&str, bool)> = f
            .fn_spans
            .iter()
            .map(|s| (s.name.as_str(), s.cold))
            .collect();
        assert_eq!(
            names,
            vec![("setup", true), ("also_cold", true), ("hot", false)]
        );
        assert!(f.in_cold_fn(3));
        assert!(!f.in_cold_fn(9));
    }

    #[test]
    fn cfg_test_ranges_cover_the_module() {
        let src = "\
fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        body();
    }
}
";
        let f = SourceFile::new("x.rs".into(), src);
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(4));
        assert!(f.in_test_code(7));
        assert!(f.in_test_code(9));
    }

    /// Only predicates that hold in test builds alone exempt an item.
    #[test]
    fn cfg_predicates_are_evaluated() {
        let exempt = |attr: &str| {
            let f = SourceFile::new("x.rs".into(), &format!("{attr}\nfn f() {{}}\n"));
            f.in_test_code(2)
        };
        for attr in [
            "#[test]",
            "#[cfg(test)]",
            "#[cfg(all(test, feature = \"x\"))]",
            "#[cfg(all(unix, all(test, debug_assertions)))]",
        ] {
            assert!(exempt(attr), "{attr} should exempt");
        }
        for attr in [
            "#[cfg(not(test))]",
            "#[cfg(any(test, unix))]",
            "#[cfg(all(not(test), unix))]",
            "#[cfg_attr(test, allow(dead_code))]",
            "#[cfg_attr(not(test), allow(dead_code))]",
            "#[cfg(feature = \"test\")]",
            "#[cfg(all(test_x, unix))]",
        ] {
            assert!(!exempt(attr), "{attr} should not exempt");
        }
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "static F: fn(u32) -> u32 = id;\nfn id(x: u32) -> u32 { x }\n";
        let f = SourceFile::new("x.rs".into(), src);
        assert_eq!(f.fn_spans.len(), 1);
        assert_eq!(f.fn_spans[0].name, "id");
    }
}
