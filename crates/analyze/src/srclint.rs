//! Token-level protocol-path lint: deny `unwrap()`/`expect()`/`panic!` in
//! protocol and channel code, and audit every `unsafe` in the workspace.
//!
//! A panic inside the two-party protocol tears down a session mid-handshake
//! and, server-side, can take a pooled worker with it — every fallible step
//! on those paths is supposed to surface a `ChannelError`/`ProtocolError`
//! instead. This lint scans the protocol crates' sources (skipping
//! comments, string literals and `#[cfg(test)]` modules) for the denied
//! tokens; the audited exceptions — provably-infallible invariants like
//! poison-free lock recovery or compiler-internal layout checks — live in a
//! checked-in allowlist that CI keeps honest in both directions (a finding
//! without an entry fails, and so does a stale entry matching nothing).
//!
//! The same allowlist carries the workspace's `unsafe` policy. The
//! `unsafe_code` lint is `deny`, not `forbid`, so that one audited site (the
//! AES-NI dispatch in `crates/crypto`) can opt out; what keeps `deny` as
//! strict as `forbid` was is this audit: every `unsafe` keyword under
//! [`UNSAFE_AUDIT_DIRS`] — test modules included — must be covered by its
//! own allowlist entry, and one entry covers exactly one occurrence, so a
//! second site fails the gate even if it copies an audited line.
//!
//! The pass is deliberately token-level rather than a full parser: it needs
//! zero dependencies, runs in milliseconds, and the failure mode of a
//! missed corner (an exotic literal form) is a false *positive* that the
//! allowlist can document — never a silently-skipped protocol panic.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Tokens denied on protocol paths.
pub const DENIED_TOKENS: &[&str] = &[".unwrap(", ".expect(", "panic!"];

/// Directories scanned by default, relative to the repository root: the
/// crates whose code runs inside a live two-party session — including the
/// vendored telemetry core, whose span guards and counters sit on every
/// instrumented protocol path.
pub const DEFAULT_LINT_DIRS: &[&str] = &[
    "crates/ot/src",
    "crates/core/src",
    "crates/serve/src",
    "vendor/telemetry/src",
];

/// The keyword the workspace-wide audit counts. Matched as a whole word, so
/// the `unsafe_code` lint name in an `#[allow]` is not an occurrence.
pub const UNSAFE_TOKEN: &str = "unsafe";

/// Directories the `unsafe` audit covers, relative to the repository root:
/// every first-party and vendored source tree.
pub const UNSAFE_AUDIT_DIRS: &[&str] = &["crates", "vendor", "src"];

/// One denied-token occurrence outside comments and strings (and, for the
/// panic tokens, outside test modules).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SrcFinding {
    /// File the token was found in (as given, root-relative when scanning a
    /// tree).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The denied token matched.
    pub token: &'static str,
    /// The full source line, trimmed.
    pub text: String,
}

impl fmt::Display for SrcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: denied token `{}` in: {}",
            self.file.display(),
            self.line,
            self.token,
            self.text
        )
    }
}

/// One audited exception: `file | token | contains | reason`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Path suffix the finding's file must end with.
    pub file: String,
    /// Substring of the denied token (`unwrap`, `expect`, `panic`,
    /// `unsafe`).
    pub token: String,
    /// Substring the source line must contain (robust to line-number
    /// drift).
    pub contains: String,
    /// Why the occurrence is provably safe.
    pub reason: String,
}

impl AllowEntry {
    fn permits(&self, finding: &SrcFinding) -> bool {
        finding.file.to_string_lossy().ends_with(&self.file)
            && finding.token.contains(self.token.as_str())
            && finding.text.contains(self.contains.as_str())
    }
}

/// A parsed allowlist file.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// An allowlist permitting nothing.
    pub fn empty() -> Allowlist {
        Allowlist::default()
    }

    /// Parses the `file | token | contains | reason` line format. Blank
    /// lines and `#` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            if fields.len() != 4 {
                return Err(format!(
                    "allowlist line {}: expected `file | token | contains | reason`, got {line:?}",
                    idx + 1
                ));
            }
            let known = DENIED_TOKENS.iter().chain([&UNSAFE_TOKEN]);
            if !known.into_iter().any(|t| t.contains(fields[1])) || fields[1].is_empty() {
                return Err(format!(
                    "allowlist line {}: token {:?} is not one of the denied tokens",
                    idx + 1,
                    fields[1]
                ));
            }
            entries.push(AllowEntry {
                file: fields[0].to_string(),
                token: fields[1].to_string(),
                contains: fields[2].to_string(),
                reason: fields[3].to_string(),
            });
        }
        Ok(Allowlist { entries })
    }
}

/// Outcome of a lint run.
#[derive(Clone, Debug, Default)]
pub struct SrcLintReport {
    /// Denied-token occurrences not covered by the allowlist.
    pub findings: Vec<SrcFinding>,
    /// Occurrences covered by an allowlist entry.
    pub allowed: Vec<SrcFinding>,
    /// Audited `unsafe` sites: occurrences of [`UNSAFE_TOKEN`] each covered
    /// by its own allowlist entry.
    pub unsafe_sites: Vec<SrcFinding>,
    /// Allowlist entries that matched nothing (stale — they must be
    /// removed so the list stays an audit trail, not a junk drawer).
    pub stale_entries: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl SrcLintReport {
    /// Whether the lint gate passes: no uncovered findings, no stale
    /// entries.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_entries.is_empty()
    }
}

/// Lints every `.rs` file under `root/<dir>` for each of `dirs` for the
/// panic tokens, then audits [`UNSAFE_AUDIT_DIRS`] under `root` for
/// `unsafe`. Both passes draw on the one allowlist; an entry that neither
/// uses is stale.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_tree(root: &Path, dirs: &[&str], allow: &Allowlist) -> io::Result<SrcLintReport> {
    let mut report = SrcLintReport::default();
    let mut used = vec![false; allow.entries.len()];
    let panic_files = rs_files(root, dirs)?;
    report.files_scanned = panic_files.len();
    for file in &panic_files {
        let text = fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file);
        for finding in scan_source(rel, &text) {
            match allow.entries.iter().position(|e| e.permits(&finding)) {
                Some(i) => {
                    used[i] = true;
                    report.allowed.push(finding);
                }
                None => report.findings.push(finding),
            }
        }
    }
    let audit_dirs: Vec<&str> = UNSAFE_AUDIT_DIRS
        .iter()
        .copied()
        .filter(|d| root.join(d).is_dir())
        .collect();
    for file in rs_files(root, &audit_dirs)? {
        let text = fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file);
        for finding in scan_unsafe(rel, &text) {
            // One entry audits one site: an entry already spent does not
            // cover a second occurrence.
            let entry =
                (0..allow.entries.len()).find(|&i| !used[i] && allow.entries[i].permits(&finding));
            match entry {
                Some(i) => {
                    used[i] = true;
                    report.unsafe_sites.push(finding);
                }
                None => report.findings.push(finding),
            }
        }
    }
    for (i, entry) in allow.entries.iter().enumerate() {
        if !used[i] {
            report.stale_entries.push(entry.clone());
        }
    }
    Ok(report)
}

/// Every `.rs` file under `root/<dir>` for each of `dirs`, sorted.
fn rs_files(root: &Path, dirs: &[&str]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in dirs {
        collect_rs_files(&root.join(dir), &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans one source text for denied tokens, reporting findings against
/// `file`. Comments, string/char literals and `#[cfg(test)]` blocks are
/// masked out first.
pub fn scan_source(file: &Path, text: &str) -> Vec<SrcFinding> {
    let mut masked = mask_literals_and_comments(text);
    mask_test_modules(&mut masked);
    let masked = String::from_utf8_lossy(&masked).into_owned();
    let mut findings = Vec::new();
    for ((lineno, masked_line), original_line) in masked.lines().enumerate().zip(text.lines()) {
        for token in DENIED_TOKENS {
            if masked_line.contains(token) {
                findings.push(SrcFinding {
                    file: file.to_path_buf(),
                    line: lineno + 1,
                    token,
                    text: original_line.trim().to_string(),
                });
            }
        }
    }
    findings
}

/// Scans one source text for the `unsafe` keyword, reporting findings
/// against `file`. Comments and string/char literals are masked out; test
/// modules are **not** — `unsafe` in a test is still `unsafe`.
pub fn scan_unsafe(file: &Path, text: &str) -> Vec<SrcFinding> {
    let masked = mask_literals_and_comments(text);
    let masked = String::from_utf8_lossy(&masked).into_owned();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut findings = Vec::new();
    for ((lineno, masked_line), original_line) in masked.lines().enumerate().zip(text.lines()) {
        let whole_word = masked_line.match_indices(UNSAFE_TOKEN).any(|(at, _)| {
            let before = masked_line[..at].chars().next_back();
            let after = masked_line[at + UNSAFE_TOKEN.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        });
        if whole_word {
            findings.push(SrcFinding {
                file: file.to_path_buf(),
                line: lineno + 1,
                token: UNSAFE_TOKEN,
                text: original_line.trim().to_string(),
            });
        }
    }
    findings
}

/// Replaces comments, string literals and char literals with spaces
/// (newlines preserved so line numbers survive).
fn mask_literals_and_comments(src: &str) -> Vec<u8> {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = b.to_vec();
    let blank = |out: &mut [u8], i: usize| {
        if out[i] != b'\n' {
            out[i] = b' ';
        }
    };
    let mut i = 0;
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                // Rust block comments nest.
                let mut depth = 1usize;
                out[i] = b' ';
                out[i + 1] = b' ';
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        depth += 1;
                        blank(&mut out, i);
                        blank(&mut out, i + 1);
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        depth -= 1;
                        blank(&mut out, i);
                        blank(&mut out, i + 1);
                        i += 2;
                    } else {
                        blank(&mut out, i);
                        i += 1;
                    }
                }
            }
            b'"' => {
                // Raw string? Count '#'s immediately before, then look for
                // an `r` (optionally a `br` byte-string prefix).
                let mut j = i;
                let mut hashes = 0usize;
                while j > 0 && b[j - 1] == b'#' {
                    j -= 1;
                    hashes += 1;
                }
                let is_raw = j > 0 && b[j - 1] == b'r';
                out[i] = b' ';
                i += 1;
                if is_raw {
                    // Terminated by `"` + the same number of `#`s.
                    while i < n {
                        if b[i] == b'"'
                            && n - i > hashes
                            && b[i + 1..i + 1 + hashes].iter().all(|&c| c == b'#')
                        {
                            blank(&mut out, i);
                            for k in 0..hashes {
                                blank(&mut out, i + 1 + k);
                            }
                            i += 1 + hashes;
                            break;
                        }
                        blank(&mut out, i);
                        i += 1;
                    }
                } else {
                    while i < n {
                        if b[i] == b'\\' && i + 1 < n {
                            blank(&mut out, i);
                            blank(&mut out, i + 1);
                            i += 2;
                        } else if b[i] == b'"' {
                            out[i] = b' ';
                            i += 1;
                            break;
                        } else {
                            blank(&mut out, i);
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                if i + 1 < n && b[i + 1] == b'\\' {
                    // Escaped char literal: '\n', '\x41', '\u{2026}'.
                    let mut j = i + 2;
                    while j < n && b[j] != b'\'' {
                        j += 1;
                    }
                    for k in i..=j.min(n - 1) {
                        blank(&mut out, k);
                    }
                    i = j + 1;
                } else if i + 2 < n && b[i + 2] == b'\'' && b[i + 1] != b'\'' {
                    // Simple one-byte char literal, e.g. '"' or 'x'.
                    blank(&mut out, i);
                    blank(&mut out, i + 1);
                    blank(&mut out, i + 2);
                    i += 3;
                } else {
                    // Lifetime or loop label: leave as-is.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Blanks every `#[cfg(test)]`-gated item body (brace-matched on the
/// already-masked text, so braces inside strings cannot desynchronize it).
fn mask_test_modules(masked: &mut [u8]) {
    const ATTR: &[u8] = b"#[cfg(test)]";
    let mut from = 0;
    while let Some(pos) = find(masked, ATTR, from) {
        // Find the opening brace of the gated item, then its match.
        let Some(open) = masked[pos..].iter().position(|&c| c == b'{') else {
            break;
        };
        let open = pos + open;
        let mut depth = 0usize;
        let mut end = None;
        for (off, &c) in masked[open..].iter().enumerate() {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(open + off);
                        break;
                    }
                }
                _ => {}
            }
        }
        let end = end.unwrap_or(masked.len() - 1);
        for c in &mut masked[pos..=end] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        from = end + 1;
    }
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<SrcFinding> {
        scan_source(Path::new("x.rs"), src)
    }

    #[test]
    fn finds_denied_tokens() {
        let src = "fn f() { let x = g().unwrap(); h().expect(\"no\"); panic!(\"boom\"); }\n";
        let found = scan(src);
        let tokens: Vec<_> = found.iter().map(|f| f.token).collect();
        assert_eq!(tokens, vec![".unwrap(", ".expect(", "panic!"]);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn skips_comments_and_strings() {
        let src = r##"
// a.unwrap() in a line comment
/* b.unwrap() in a /* nested */ block comment */
fn f() {
    let s = "c.unwrap() in a string with \" escape";
    let r = r#"d.unwrap() in a raw string"#;
    let q = '"'; // char literal that would otherwise open a string
    let ok = s.len();
}
"##;
        assert_eq!(scan(src), vec![]);
    }

    #[test]
    fn skips_doc_comments_and_test_modules() {
        let src = "\
//! top.unwrap() doc\n\
fn live() -> usize { 1 }\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { x().unwrap(); panic!(\"fine in tests\"); }\n\
}\n\
fn after() { y().unwrap(); }\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 8);
        assert_eq!(found[0].token, ".unwrap(");
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let src = "fn f() { m.lock().unwrap_or_else(|p| p.into_inner()); }\n";
        assert_eq!(scan(src), vec![]);
    }

    #[test]
    fn allowlist_covers_and_goes_stale() {
        let allow = Allowlist::parse(
            "# comment\n\
             x.rs | expect | at least one cycle | entry assert guarantees non-empty\n\
             x.rs | panic | never happens | stale entry\n",
        )
        .unwrap();
        let src = "fn f() { v.last().expect(\"at least one cycle\"); }\n";
        let findings = scan(src);
        assert_eq!(findings.len(), 1);
        assert!(allow.entries[0].permits(&findings[0]));
        assert!(!allow.entries[1].permits(&findings[0]));
    }

    #[test]
    fn unsafe_audit_matches_the_keyword_only() {
        let src = "\
// unsafe in a comment\n\
#[allow(unsafe_code)]\n\
fn f() { let s = \"unsafe in a string\"; let not_unsafe_at_all = 1; }\n\
#[cfg(test)]\n\
mod tests { fn t() { unsafe { g() } } }\n";
        let found = scan_unsafe(Path::new("x.rs"), src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 5, "test modules are audited too");
        assert_eq!(found[0].token, UNSAFE_TOKEN);
    }

    #[test]
    fn one_entry_audits_one_unsafe_site() {
        let dir = std::env::temp_dir().join(format!(
            "deepsecure-unsafe-audit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src_dir = dir.join("crates/k/src");
        fs::create_dir_all(&src_dir).unwrap();
        let site = "fn f() { unsafe { kernel() } }\n";
        fs::write(src_dir.join("a.rs"), site).unwrap();
        let allow = Allowlist::parse("k/src/a.rs | unsafe | kernel() | audited\n").unwrap();
        let report = lint_tree(&dir, &[], &allow).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.unsafe_sites.len(), 1);
        // No entry: a finding. A second, identical site: also a finding.
        let bare = lint_tree(&dir, &[], &Allowlist::empty()).unwrap();
        assert_eq!(bare.findings.len(), 1);
        fs::write(src_dir.join("a.rs"), format!("{site}{site}")).unwrap();
        let twice = lint_tree(&dir, &[], &allow).unwrap();
        assert_eq!(twice.unsafe_sites.len(), 1);
        assert_eq!(twice.findings.len(), 1);
        // The site gone: the entry is stale.
        fs::write(src_dir.join("a.rs"), "fn f() {}\n").unwrap();
        let stale = lint_tree(&dir, &[], &allow).unwrap();
        assert_eq!(stale.stale_entries.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allowlist_rejects_malformed_lines() {
        assert!(Allowlist::parse("too | few | fields").is_err());
        assert!(Allowlist::parse("f.rs | frobnicate | x | reason").is_err());
    }

    #[test]
    fn lint_tree_reports_stale_entries() {
        let dir = std::env::temp_dir().join(format!(
            "deepsecure-srclint-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src_dir = dir.join("src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(src_dir.join("a.rs"), "fn f() { g().unwrap(); }\n").unwrap();
        let allow = Allowlist::parse("a.rs | unwrap | g() | audited\nb.rs | panic | zzz | stale\n")
            .unwrap();
        let report = lint_tree(&dir, &["src"], &allow).unwrap();
        assert_eq!(report.files_scanned, 1);
        assert!(report.findings.is_empty());
        assert_eq!(report.allowed.len(), 1);
        assert_eq!(report.stale_entries.len(), 1);
        assert!(!report.is_clean());
        let strict = lint_tree(&dir, &["src"], &Allowlist::empty()).unwrap();
        assert_eq!(strict.findings.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
