//! Workspace model: file discovery, classification, test-region
//! masking, and `// pslocal: allow(...)` suppression parsing.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Token, TokenKind};
use crate::report::Finding;

/// How a source file participates in the lint passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileClass {
    /// Under some crate's `src/` (or the root `src/lib.rs` tree):
    /// library code, held to the strictest rules.
    Library {
        /// Crate name, e.g. `pslocal-core` for `crates/core/src/…`.
        krate: String,
    },
    /// A `src/bin/` entry point: exempt from panic-path and
    /// stdout-purity (binaries own the terminal), still subject to
    /// codec-drift and hygiene.
    Binary,
    /// `tests/`, `benches/`, `examples/`: scanned only so allows and
    /// the lexer get exercised; substantive passes skip these.
    TestDir,
}

/// An inline suppression parsed from a `// pslocal: allow(...)`
/// comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Lint name inside `allow(...)`.
    pub lint: String,
    /// Mandatory justification string.
    pub justification: String,
    /// Line the comment sits on.
    pub line: u32,
    /// True when code shares the comment's line (a trailing waiver,
    /// covering this line); false for a standalone comment (covering
    /// the next line).
    pub trailing: bool,
}

impl Allow {
    /// Whether this allow covers a finding at `line`.
    pub fn covers(&self, line: u32) -> bool {
        if self.trailing {
            self.line == line
        } else {
            self.line + 1 == line
        }
    }
}

/// One lexed workspace file plus its per-token metadata.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with unix separators.
    pub rel: String,
    /// Lint class.
    pub class: FileClass,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` is true when token `i` sits inside a
    /// `#[cfg(test)]` module or `#[test]` function.
    pub test_mask: Vec<bool>,
    /// Parsed suppressions.
    pub allows: Vec<Allow>,
    /// Lines carrying any comment token (used by the indexing
    /// bound-comment sub-rule).
    pub comment_lines: BTreeSet<u32>,
}

impl SourceFile {
    /// Lexes `src` into a [`SourceFile`] plus any `bad-allow` findings
    /// its suppression comments produced. [`Workspace::load`] calls
    /// this per file; tests and fixtures can call it directly.
    pub fn parse(rel: &str, class: FileClass, src: &str) -> (SourceFile, Vec<Finding>) {
        let tokens = lex(src);
        let test_mask = compute_test_mask(&tokens);
        let (allows, bad) = parse_allows(&tokens, rel);
        let comment_lines = tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|t| t.line)
            .collect();
        (SourceFile { rel: rel.to_string(), class, tokens, test_mask, allows, comment_lines }, bad)
    }

    /// True when this file is library code (subject to the strict
    /// passes).
    pub fn is_library(&self) -> bool {
        matches!(self.class, FileClass::Library { .. })
    }

    /// True when the file is the root of a crate (`lib.rs` directly
    /// under a `src/`), where `#![forbid(unsafe_code)]` must live.
    pub fn is_crate_root(&self) -> bool {
        self.rel == "src/lib.rs"
            || (self.rel.starts_with("crates/")
                && self.rel.ends_with("/src/lib.rs")
                && self.rel.matches('/').count() == 3)
    }

    /// Iterator over token indices that are outside test regions.
    pub fn non_test_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(move |&i| !self.test_mask[i])
    }
}

/// The lexed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// All lintable files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Findings produced during loading (malformed suppressions).
    pub load_findings: Vec<Finding>,
}

impl Workspace {
    /// Walks `root`, lexing every `.rs` file that belongs to the
    /// workspace proper. `vendor/`, `target/`, hidden directories and
    /// anything under a `fixtures/` directory are skipped.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        let mut load_findings = Vec::new();
        let mut paths = Vec::new();
        collect_rs_files(root, root, &mut paths)?;
        paths.sort();
        for rel in paths {
            let Some(class) = classify(&rel) else { continue };
            let text = fs::read_to_string(root.join(&rel))?;
            let (file, mut bad) = SourceFile::parse(&rel, class, &text);
            load_findings.append(&mut bad);
            files.push(file);
        }
        Ok(Workspace { root: root.to_path_buf(), files, load_findings })
    }
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name.starts_with('.') || name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
    Ok(())
}

/// Maps a workspace-relative path to its lint class; `None` means the
/// file is ignored entirely (e.g. stray scripts outside src/tests).
fn classify(rel: &str) -> Option<FileClass> {
    // The analyzer's own sources necessarily spell out every pattern
    // it hunts (the wire-literal table, example `allow(...)` markers
    // in docs), so self-scanning yields only meta false positives.
    // The crate is covered by its own unit tests instead.
    if rel.starts_with("crates/analysis/") {
        return None;
    }
    if rel.starts_with("tests/")
        || rel.starts_with("benches/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
    {
        return Some(FileClass::TestDir);
    }
    if rel.starts_with("src/bin/") || rel.contains("/src/bin/") {
        return Some(FileClass::Binary);
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (dir, tail) = rest.split_once('/')?;
        if tail.starts_with("src/") {
            return Some(FileClass::Library { krate: format!("pslocal-{dir}") });
        }
        return None;
    }
    if rel.starts_with("src/") {
        return Some(FileClass::Library { krate: "pslocal".to_string() });
    }
    None
}

/// Marks every token inside a `#[test]` function or `#[cfg(test)]`
/// item (typically `mod tests`) as test-only.
///
/// Attribute detection is token-based: an attribute whose bracket
/// content mentions the ident `test` and does not mention `not`
/// counts (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, unix))]`);
/// `#[cfg(not(test))]` does not.
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !matches!(tokens[i].kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut ci = 0;
    while ci < code.len() {
        // Look for `#` `[` ... `]` (outer attributes only; `#![..]`
        // inner attributes configure the whole file, not an item).
        if tokens[code[ci]].is_punct('#')
            && ci + 1 < code.len()
            && tokens[code[ci + 1]].is_punct('[')
        {
            let (is_test, after_attr) = scan_attribute(tokens, &code, ci + 1);
            if is_test {
                // Extend over any further attributes, then the item
                // itself (to `;` at depth 0, or a matched `{...}`).
                let mut cj = after_attr;
                while cj + 1 < code.len()
                    && tokens[code[cj]].is_punct('#')
                    && tokens[code[cj + 1]].is_punct('[')
                {
                    let (_, next) = scan_attribute(tokens, &code, cj + 1);
                    cj = next;
                }
                let end = scan_item_end(tokens, &code, cj);
                let start_tok = code[ci];
                let end_tok = if end < code.len() { code[end] } else { tokens.len() - 1 };
                for m in mask.iter_mut().take(end_tok + 1).skip(start_tok) {
                    *m = true;
                }
                ci = end + 1;
                continue;
            }
            ci = after_attr;
            continue;
        }
        ci += 1;
    }
    mask
}

/// `open` indexes the `[` of an attribute in `code`. Returns whether
/// the attribute marks a test region, and the code index just past
/// the closing `]`.
fn scan_attribute(tokens: &[Token], code: &[usize], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut saw_test = false;
    let mut saw_not = false;
    let mut ci = open;
    while ci < code.len() {
        let t = &tokens[code[ci]];
        match t.punct() {
            Some('[') => depth += 1,
            Some(']') => {
                depth -= 1;
                if depth == 0 {
                    return (saw_test && !saw_not, ci + 1);
                }
            }
            _ => {
                if t.is_ident("test") {
                    saw_test = true;
                } else if t.is_ident("not") {
                    saw_not = true;
                }
            }
        }
        ci += 1;
    }
    (false, code.len())
}

/// `start` indexes the first code token of an item (after its
/// attributes). Returns the code index of the token that closes the
/// item: a `;` before any brace, or the `}` matching the first `{`.
fn scan_item_end(tokens: &[Token], code: &[usize], start: usize) -> usize {
    let mut ci = start;
    while ci < code.len() {
        match tokens[code[ci]].punct() {
            Some(';') => return ci,
            Some('{') => {
                let mut depth = 0usize;
                while ci < code.len() {
                    match tokens[code[ci]].punct() {
                        Some('{') => depth += 1,
                        Some('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return ci;
                            }
                        }
                        _ => {}
                    }
                    ci += 1;
                }
                return code.len().saturating_sub(1);
            }
            _ => ci += 1,
        }
    }
    code.len().saturating_sub(1)
}

/// Parses `pslocal: allow(<lint>, "<justification>")` markers out of
/// comment tokens. A marker without a non-empty justification is a
/// `bad-allow` finding: suppressions must say *why*.
fn parse_allows(tokens: &[Token], rel: &str) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    let code_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|t| t.line)
        .collect();
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(pos) = t.text.find("pslocal:") else { continue };
        let rest = &t.text[pos + "pslocal:".len()..];
        // `pslocal::core::...` is a Rust path in prose, not a marker.
        if rest.starts_with(':') {
            continue;
        }
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow(") else {
            findings.push(bad_allow(rel, t.line, "expected `allow(<lint>, \"why\")`"));
            continue;
        };
        let Some(close) = args.find(')') else {
            findings.push(bad_allow(rel, t.line, "missing closing `)`"));
            continue;
        };
        let inner = &args[..close];
        let (lint, justification) = match inner.find(',') {
            Some(comma) => {
                let lint = inner[..comma].trim().to_string();
                let just = inner[comma + 1..].trim();
                let just = just
                    .strip_prefix('"')
                    .and_then(|j| j.strip_suffix('"'))
                    .unwrap_or(just)
                    .trim()
                    .to_string();
                (lint, just)
            }
            None => (inner.trim().to_string(), String::new()),
        };
        if lint.is_empty() {
            findings.push(bad_allow(rel, t.line, "missing lint name"));
            continue;
        }
        if justification.is_empty() {
            findings.push(bad_allow(
                rel,
                t.line,
                &format!("allow({lint}) carries no justification string"),
            ));
            continue;
        }
        allows.push(Allow {
            lint,
            justification,
            line: t.line,
            trailing: code_lines.contains(&t.line),
        });
    }
    (allows, findings)
}

fn bad_allow(rel: &str, line: u32, why: &str) -> Finding {
    Finding {
        lint: "bad-allow",
        file: rel.to_string(),
        line,
        message: format!("malformed suppression: {why}"),
        hint: "write `// pslocal: allow(<lint>, \"one-line justification\")`".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_from(src: &str, rel: &str, class: FileClass) -> SourceFile {
        SourceFile::parse(rel, class, src).0
    }

    #[test]
    fn classify_maps_paths_to_classes() {
        assert_eq!(
            classify("crates/core/src/service.rs"),
            Some(FileClass::Library { krate: "pslocal-core".to_string() })
        );
        assert_eq!(classify("src/bin/pslocal.rs"), Some(FileClass::Binary));
        assert_eq!(classify("tests/server.rs"), Some(FileClass::TestDir));
        assert_eq!(classify("crates/core/tests/graph.rs"), Some(FileClass::TestDir));
        assert_eq!(classify("crates/core/benches/reduce.rs"), Some(FileClass::TestDir));
        assert_eq!(
            classify("src/lib.rs"),
            Some(FileClass::Library { krate: "pslocal".to_string() })
        );
        assert_eq!(classify("crates/core/build.rs"), None);
    }

    #[test]
    fn crate_root_detection() {
        let f = file_from(
            "",
            "crates/core/src/lib.rs",
            FileClass::Library { krate: "pslocal-core".to_string() },
        );
        assert!(f.is_crate_root());
        let f = file_from(
            "",
            "crates/core/src/graph/lib.rs",
            FileClass::Library { krate: "pslocal-core".to_string() },
        );
        assert!(!f.is_crate_root());
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = r#"
pub fn live() { helper.unwrap(); }

#[cfg(test)]
mod tests {
    fn inner() { x.unwrap(); }
}

pub fn also_live() {}
"#;
        let f = file_from(
            src,
            "crates/core/src/x.rs",
            FileClass::Library { krate: "pslocal-core".to_string() },
        );
        let masked: Vec<&str> = f
            .tokens
            .iter()
            .zip(&f.test_mask)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"inner"));
        assert!(!masked.contains(&"live"));
        assert!(!masked.contains(&"also_live"));
        // `live`'s unwrap is unmasked; `inner`'s is masked.
        let unmasked_unwraps =
            f.tokens.iter().zip(&f.test_mask).filter(|(t, &m)| !m && t.is_ident("unwrap")).count();
        assert_eq!(unmasked_unwraps, 1);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nmod shipping { pub fn f() {} }\n";
        let f = file_from(
            src,
            "crates/core/src/x.rs",
            FileClass::Library { krate: "pslocal-core".to_string() },
        );
        assert!(f.test_mask.iter().all(|&m| !m));
    }

    #[test]
    fn test_fn_with_stacked_attributes_is_masked() {
        let src = "#[test]\n#[ignore]\nfn slow_case() { assert!(x[0] > 1); }\nfn live() {}\n";
        let f = file_from(
            src,
            "crates/core/src/x.rs",
            FileClass::Library { krate: "pslocal-core".to_string() },
        );
        let masked: Vec<&str> = f
            .tokens
            .iter()
            .zip(&f.test_mask)
            .filter(|(_, &m)| m)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert!(masked.contains(&"slow_case"));
        assert!(masked.contains(&"ignore"));
        assert!(!masked.contains(&"live"));
    }

    #[test]
    fn allow_parsing_happy_path() {
        let src =
            "// pslocal: allow(panic-path, \"startup-only config read\")\nlet x = y.unwrap();\n";
        let (allows, bad) = parse_allows(&lex(src), "a.rs");
        assert!(bad.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].lint, "panic-path");
        assert_eq!(allows[0].justification, "startup-only config read");
        assert_eq!(allows[0].line, 1);
    }

    #[test]
    fn allow_without_justification_is_bad_allow() {
        let src = "// pslocal: allow(panic-path)\n// pslocal: allow(stdout-purity, \"\")\n";
        let (allows, bad) = parse_allows(&lex(src), "a.rs");
        assert!(allows.is_empty());
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|f| f.lint == "bad-allow"));
    }

    #[test]
    fn malformed_allow_is_reported() {
        let src = "// pslocal: deny(panic-path)\n";
        let (_, bad) = parse_allows(&lex(src), "a.rs");
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("expected"));
    }

    #[test]
    fn rust_paths_in_prose_are_not_markers() {
        let src = "//! use pslocal::core::{reduce_cf_to_maxis};\n// see pslocal::maxis docs\n";
        let (allows, bad) = parse_allows(&lex(src), "a.rs");
        assert!(allows.is_empty());
        assert!(bad.is_empty());
    }
}
