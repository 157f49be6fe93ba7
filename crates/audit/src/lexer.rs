//! A comment- and string-aware scrubber for Rust source.
//!
//! The audit rules are lexical, not syntactic: they search for forbidden
//! tokens (`partial_cmp`, `HashMap`, `.counter(`, …) in source text. A
//! naive substring search would fire on doc comments and string
//! literals, so every file is first *scrubbed*: comment bodies and
//! literal contents are replaced by spaces (newlines preserved, so every
//! byte offset maps to the same line/column in both views), while the
//! string literals themselves are collected for the metric-name rule.
//!
//! This is deliberately not a full parser (`syn` is unreachable in this
//! offline build environment, and the rules don't need one): it handles
//! line and nested block comments, plain/raw/byte string literals, char
//! literals vs. lifetimes, and raw identifiers.

/// One string literal (plain, raw, or byte) in the original source.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the literal's first character (the quote, or the
    /// `r`/`b` prefix).
    pub offset: usize,
    /// The literal's inner text, uninterpreted (escapes left as written).
    pub content: String,
}

/// A scrubbed view of one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// The source with comment bodies and literal contents blanked to
    /// spaces; newlines and byte offsets are preserved.
    pub text: String,
    /// Every string literal, in source order.
    pub strings: Vec<StrLit>,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
}

impl Scrubbed {
    /// Scrubs `source`, collecting its string literals.
    pub fn new(source: &str) -> Scrubbed {
        scrub(source)
    }

    /// 1-based `(line, column)` of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// Byte offsets of every occurrence of `pattern` in the scrubbed text.
    pub fn find_all(&self, pattern: &str) -> Vec<usize> {
        let mut out = Vec::new();
        let mut from = 0;
        while let Some(pos) = self.text[from..].find(pattern) {
            out.push(from + pos);
            from += pos + 1;
        }
        out
    }

    /// The string literal starting exactly at `offset`, if any.
    pub fn string_at(&self, offset: usize) -> Option<&StrLit> {
        self.strings
            .binary_search_by_key(&offset, |s| s.offset)
            .ok()
            .map(|i| &self.strings[i])
    }

    /// Byte spans of `#[cfg(test)]`-gated items (the attribute through
    /// the matching close brace). Rules that only police production code
    /// drop findings inside these spans.
    pub fn test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        for start in self.find_all("#[cfg(test)]") {
            let mut i = start + "#[cfg(test)]".len();
            let bytes = self.text.as_bytes();
            // Skip to the item's opening brace; stop early at `;` (an
            // item with no body) or another `#` attribute line.
            let mut depth = 0usize;
            let mut opened = false;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            spans.push((start, i + 1));
                            break;
                        }
                    }
                    b';' if !opened => {
                        spans.push((start, i + 1));
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            if i >= bytes.len() {
                spans.push((start, bytes.len()));
            }
        }
        spans
    }
}

fn scrub(source: &str) -> Scrubbed {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut strings = Vec::new();
    let mut i = 0;

    let blank = |out: &mut [u8], from: usize, to: usize| {
        for b in &mut out[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = source[i..].find('\n').map_or(bytes.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let (end, inner) = plain_string_end(source, i);
                strings.push(StrLit {
                    offset: i,
                    content: inner,
                });
                blank(&mut out, i + 1, end.saturating_sub(1).max(i + 1));
                i = end;
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let lit_start = i;
                let mut j = i;
                if bytes[j] == b'b' {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'r') {
                    j += 1;
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    // starts_raw_or_byte_string guarantees a quote here.
                    let body_start = j + 1;
                    let closer = format!("\"{}", "#".repeat(hashes));
                    let end = source[body_start..]
                        .find(&closer)
                        .map_or(bytes.len(), |n| body_start + n + closer.len());
                    strings.push(StrLit {
                        offset: lit_start,
                        content: source[body_start..end - closer.len()].to_string(),
                    });
                    blank(&mut out, body_start, end.saturating_sub(closer.len()));
                    i = end;
                } else {
                    // b"…": plain string with a byte prefix.
                    let (end, inner) = plain_string_end(source, j);
                    strings.push(StrLit {
                        offset: lit_start,
                        content: inner,
                    });
                    blank(&mut out, j + 1, end.saturating_sub(1).max(j + 1));
                    i = end;
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i + 1, end - 1);
                    i = end;
                } else {
                    // A lifetime (or `'` in macro position): plain code.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }

    let text = String::from_utf8(out).expect("blanking preserves UTF-8");
    let mut line_starts = vec![0usize];
    for (pos, b) in source.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(pos + 1);
        }
    }
    Scrubbed {
        text,
        strings,
        line_starts,
    }
}

/// End offset (exclusive) and inner text of a `"…"` string starting at
/// `open` (the opening quote).
fn plain_string_end(source: &str, open: usize) -> (usize, String) {
    let bytes = source.as_bytes();
    let mut j = open + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => {
                return (j + 1, source[open + 1..j].to_string());
            }
            _ => j += 1,
        }
    }
    (bytes.len(), source[open + 1..].to_string())
}

/// Whether offset `i` starts `r"`, `r#…#"`, `b"`, or `br#…#"` — and not a
/// raw identifier (`r#match`) or a plain ident containing `r`/`b`.
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    // Reject when preceded by an identifier character (e.g. `var"x"`
    // cannot occur, but `for r in …` must not treat `r` specially).
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
        bytes.get(j) == Some(&b'"')
    } else {
        bytes[i] == b'b' && bytes.get(j) == Some(&b'"')
    }
}

/// If a char literal starts at `i` (an apostrophe), its end offset
/// (exclusive); `None` for lifetimes.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1) {
        Some(b'\\') => {
            // Escaped char: scan to the closing quote.
            let mut j = i + 2;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => return Some(j + 1),
                    _ => j += 1,
                }
            }
            None
        }
        Some(_) => {
            // One char (possibly multi-byte) then a closing quote makes a
            // literal; anything else is a lifetime like `'a` or `'static`.
            bytes[i + 2..bytes.len().min(i + 6)]
                .iter()
                .position(|&b| b == b'\'')
                .map(|off| i + 2 + off + 1)
                .filter(|&end| {
                    std::str::from_utf8(&bytes[i + 1..end - 1])
                        .is_ok_and(|s| s.chars().count() == 1)
                })
        }
        None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let s = Scrubbed::new("let x = 1; // partial_cmp here\nlet y = 2;");
        assert!(!s.text.contains("partial_cmp"));
        assert!(s.text.starts_with("let x = 1; "));
        assert!(s.text.ends_with("\nlet y = 2;"));
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let s = Scrubbed::new("a /* outer /* inner unwrap() */ still */ b");
        assert!(!s.text.contains("unwrap"));
        assert!(s.text.starts_with("a "));
        assert!(s.text.ends_with(" b"));
    }

    #[test]
    fn string_contents_are_blanked_but_collected() {
        let s = Scrubbed::new(r#"m.counter("attrib.queries_scored").incr();"#);
        assert!(!s.text.contains("attrib"));
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].content, "attrib.queries_scored");
        assert!(s.string_at(s.strings[0].offset).is_some());
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let s = Scrubbed::new(r#"let a = "he said \"unwrap()\""; done()"#);
        assert!(!s.text.contains("unwrap"));
        assert!(s.text.contains("done()"));
    }

    #[test]
    fn raw_and_byte_strings_are_blanked() {
        let s = Scrubbed::new("let a = r#\"has \"unwrap()\" inside\"#; let b = b\"HashMap\";");
        assert!(!s.text.contains("unwrap"));
        assert!(!s.text.contains("HashMap"));
        assert_eq!(s.strings.len(), 2);
        assert_eq!(s.strings[1].content, "HashMap");
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let s = Scrubbed::new("let r#fn = 1; let x = r#fn;");
        assert_eq!(s.strings.len(), 0);
        assert!(s.text.contains("r#fn"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let s = Scrubbed::new("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; let m = 'é'; }");
        // Lifetimes survive; char-literal contents are blanked so the
        // quote char can't open a phantom string.
        assert!(s.text.contains("<'a>"));
        assert!(s.text.contains("&'a str"));
        assert_eq!(s.strings.len(), 0);
        assert!(!s.text.contains('é'));
    }

    #[test]
    fn multi_hash_raw_strings_swallow_lesser_closers() {
        // `"#` inside an `r##` string must not terminate it; only `"##`
        // does. The byte-raw `br##` form follows the same rule.
        let src = "let a = r##\"has \"# and unwrap() inside\"##; let b = br##\"x\"# y\"##; ok()";
        let s = Scrubbed::new(src);
        assert!(!s.text.contains("unwrap"));
        assert_eq!(s.strings.len(), 2);
        assert_eq!(s.strings[0].content, "has \"# and unwrap() inside");
        assert_eq!(s.strings[1].content, "x\"# y");
        assert!(s.text.contains("ok()"), "code after both literals survives");
        assert_eq!(s.text.len(), src.len());
    }

    #[test]
    fn byte_chars_and_lifetimes_disambiguate_in_generics() {
        // Byte-char literals (`b'x'`, `b'\''`), plain char literals in
        // range patterns, and lifetimes in generic position all coexist:
        // none of them may open a phantom string or eat a lifetime.
        let src = "fn g<'long, 'b>(v: &'long [u8]) -> bool {\n\
                   let lo = b'a'; let esc = b'\\''; let q = '\\'';\n\
                   matches!(v[0] as char, 'a'..='z') && lo < b'z'\n\
                   }";
        let s = Scrubbed::new(src);
        assert_eq!(s.strings.len(), 0, "no phantom strings");
        assert!(s.text.contains("<'long, 'b>"));
        assert!(s.text.contains("&'long [u8]"));
        // Char/byte-char contents are blanked; the quotes remain.
        assert!(!s.text.contains("b'a'"));
        assert!(s.text.contains("matches!(v[0] as char,"));
        assert!(s.text.ends_with('}'), "close brace survives the scrub");
        assert_eq!(s.text.len(), src.len());
    }

    #[test]
    fn nested_block_comment_ends_at_the_outer_terminator() {
        // The inner `*/` does not end the comment: everything up to the
        // outermost terminator is blanked, and the code after it is not
        // swallowed.
        let src = "/* outer /* partial_cmp -- inner */ tail */ fn f() {}";
        let s = Scrubbed::new(src);
        assert!(!s.text.contains("partial_cmp"));
        assert!(!s.text.contains("tail"));
        assert!(
            s.text.contains("fn f() {}"),
            "code after the outer terminator survives"
        );
    }

    #[test]
    fn offsets_and_lines_are_preserved() {
        let src = "line one\n// a comment\nlet x = \"abc\";\n";
        let s = Scrubbed::new(src);
        assert_eq!(s.text.len(), src.len());
        assert_eq!(s.line_col(src.find("abc").unwrap()), (3, 10));
    }

    #[test]
    fn cfg_test_spans_cover_the_module() {
        let src =
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn a() { x.unwrap(); }\n}\nfn after() {}\n";
        let s = Scrubbed::new(src);
        let spans = s.test_spans();
        assert_eq!(spans.len(), 1);
        let (start, end) = spans[0];
        assert!(start < src.find("mod tests").unwrap());
        assert!(end > src.find("unwrap").unwrap());
        assert!(end < src.find("fn after").unwrap());
    }
}
