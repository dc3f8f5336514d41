//! Static-analysis passes over workspace sources.
//!
//! Two generations of machinery live here. The original *line-based* rules
//! (`SAFETY:` proximity, the `unsafe` allowlist, hot-path panic bans) match
//! tokens on comment- and string-stripped lines; the rules they enforce are
//! source conventions, and that is all the structure they need. The newer
//! *token-aware* rules are driven by [`crate::lexer`] — a real token stream
//! with a brace tree and `fn`-item attribution — because they reason about
//! scopes: which function an allocation is in, whether a lock guard is still
//! live at a parallel call, whether a chunked stage sits inside a span.
//!
//! Token-aware passes:
//!
//! * **hot-path-alloc** — allocating constructs (`Vec::new`, `vec![`,
//!   `with_capacity`, `.collect()`, `Box::new`, `String::from`, `format!`,
//!   `.to_vec()`, `.to_owned()`, `.to_string()`) are banned in [`HOT_PATHS`]
//!   files and in any function marked hot (see the directive grammar below);
//!   per-site waivers must carry a reason.
//! * **atomic-ordering** — every memory-ordering use site (`Relaxed`,
//!   `Acquire`, `Release`, `AcqRel`, `SeqCst`) must carry an `ORDERING:`
//!   justification in the contiguous comment block above, mirroring the
//!   `SAFETY:` mechanism. A justified `use` import covers the file's bare
//!   variant uses; explicit `Ordering::X` paths justify per site (or per
//!   contiguous cluster of sites). The pass also produces the inventory
//!   rows for the reviewable artifact (`cargo xtask lint --inventory`).
//! * **lock-across-parallel** — a `.lock()`/`.read()`/`.write()` guard
//!   binding still live (same brace scope, not dropped or shadowed) at a
//!   call to `run_chunked`/`run_chunked_plan`/`join` is flagged: holding a
//!   lock across a parallel region is the deadlock-by-construction shape
//!   the race checker cannot see (it only models the four kernels).
//! * **span-coverage** — every `run_chunked`/`run_chunked_plan` call site
//!   outside `parcsr-runtime` (and outside the vendored shims) must be
//!   lexically inside a `span!`/`with_span`/`enter` scope, so new parallel
//!   stages cannot dodge the trace checks CI gates on.
//!
//! Directive grammar (one directive per comment line): `LINT: hot` in the
//! comment block above a `fn` marks that function hot for the allocation
//! ban; `LINT: alloc-ok(reason)` on an allocation's line or in the block
//! above waives that site — an empty or missing reason is itself a
//! violation (**lint-directive**), so every waiver in the tree is
//! explained. Everything from the first `#[cfg(test)]` line on is exempt
//! from all passes (test code may allocate and unwrap freely).

use std::collections::{BTreeMap, BTreeSet};

use parcsr_obs::json::Json;

use crate::lexer::{Kind, Lexed, Token};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (unix separators).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Kebab-case rule slug (stable; used by fixtures and the JSON report).
    pub rule: &'static str,
    /// Human-readable rule message.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One memory-ordering use site, for the reviewable inventory artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderingSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Distinct ordering variants used on the line, in order of appearance.
    pub orderings: Vec<String>,
    /// The `ORDERING:` justification text, if present.
    pub justification: Option<String>,
    /// For bare (imported) variant uses with no local justification: the
    /// line of the `use` import whose justification covers this site.
    pub via_import: Option<usize>,
    /// True if the site is itself a `use` import line.
    pub is_import: bool,
}

/// One explained allocation waiver (`LINT: alloc-ok(reason)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line the waiver comment sits on.
    pub line: usize,
    /// The reason string inside the parentheses.
    pub reason: String,
}

/// Everything the analysis produces for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Rule violations.
    pub violations: Vec<Violation>,
    /// Memory-ordering inventory rows.
    pub ordering_sites: Vec<OrderingSite>,
    /// Explained allocation waivers.
    pub waivers: Vec<Waiver>,
}

/// Aggregated analysis over the workspace, for the `--json` report and the
/// `--inventory` artifact.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Number of files analyzed.
    pub files: usize,
    /// All violations, in file walk order.
    pub violations: Vec<Violation>,
    /// All memory-ordering inventory rows.
    pub ordering_sites: Vec<OrderingSite>,
    /// All explained allocation waivers.
    pub waivers: Vec<Waiver>,
}

impl WorkspaceReport {
    /// Folds one file's report in.
    pub fn merge(&mut self, report: FileReport) {
        self.files += 1;
        self.violations.extend(report.violations);
        self.ordering_sites.extend(report.ordering_sites);
        self.waivers.extend(report.waivers);
    }

    /// The machine-readable report for `cargo xtask lint --json OUT`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let violations = self
            .violations
            .iter()
            .map(|v| {
                Json::Object(vec![
                    ("file".into(), Json::Str(v.file.clone())),
                    ("line".into(), Json::Int(v.line as i64)),
                    ("rule".into(), Json::Str(v.rule.to_string())),
                    ("message".into(), Json::Str(v.message.clone())),
                ])
            })
            .collect();
        let waivers = self
            .waivers
            .iter()
            .map(|w| {
                Json::Object(vec![
                    ("file".into(), Json::Str(w.file.clone())),
                    ("line".into(), Json::Int(w.line as i64)),
                    ("reason".into(), Json::Str(w.reason.clone())),
                ])
            })
            .collect();
        let inventory = self
            .ordering_sites
            .iter()
            .map(|s| {
                Json::Object(vec![
                    ("file".into(), Json::Str(s.file.clone())),
                    ("line".into(), Json::Int(s.line as i64)),
                    (
                        "orderings".into(),
                        Json::Array(s.orderings.iter().cloned().map(Json::Str).collect()),
                    ),
                    (
                        "justification".into(),
                        s.justification.clone().map_or(Json::Null, Json::Str),
                    ),
                    (
                        "via_import_line".into(),
                        s.via_import.map_or(Json::Null, |l| Json::Int(l as i64)),
                    ),
                    ("import".into(), Json::Bool(s.is_import)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("violations".into(), Json::Array(violations)),
            ("waivers".into(), Json::Array(waivers)),
            ("ordering_inventory".into(), Json::Array(inventory)),
            (
                "summary".into(),
                Json::Object(vec![
                    ("files".into(), Json::Int(self.files as i64)),
                    ("violations".into(), Json::Int(self.violations.len() as i64)),
                    ("waivers".into(), Json::Int(self.waivers.len() as i64)),
                    (
                        "ordering_sites".into(),
                        Json::Int(self.ordering_sites.len() as i64),
                    ),
                ]),
            ),
        ])
    }

    /// The atomic-ordering inventory as a markdown table (the reviewable
    /// artifact CI uploads next to `lint.json`).
    #[must_use]
    pub fn inventory_markdown(&self) -> String {
        let mut out = String::from(
            "# Atomic-ordering inventory\n\n\
             Every memory-ordering use site in the workspace (tests exempt), \
             with its `ORDERING:` justification. Bare variant uses covered by \
             a justified `use` import reference the import line.\n\n\
             | File | Line | Ordering | Justification |\n\
             |------|-----:|----------|---------------|\n",
        );
        for s in &self.ordering_sites {
            let just = match (&s.justification, s.via_import) {
                (Some(j), _) => j.clone(),
                (None, Some(l)) => format!("via `use` import on line {l}"),
                (None, None) => "**(missing)**".to_string(),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} |\n",
                s.file,
                s.line,
                s.orderings.join(", "),
                just.replace('|', "\\|"),
            ));
        }
        out
    }
}

/// Files allowed to contain `unsafe` code. Everything else in the
/// workspace must be 100% safe Rust. `crates/obs/src/mem.rs` owns the
/// counting `GlobalAlloc` (the trait itself is unsafe to implement).
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/graph/src/sort.rs", "crates/obs/src/mem.rs"];

/// Hot query-path files: panicking constructs and allocating constructs are
/// banned everywhere in these files — they run per neighbor-list lookup and
/// must degrade via `Option`/saturation and reuse caller buffers.
pub const HOT_PATHS: &[&str] = &["crates/core/src/query.rs", "crates/bitpack/src/cursor.rs"];

/// Files that must carry `#![deny(unsafe_op_in_unsafe_fn)]` (the crate
/// roots owning the allowlisted `unsafe` code).
pub const DENY_UNSAFE_OP_ROOTS: &[&str] = &["crates/graph/src/lib.rs", "crates/obs/src/lib.rs"];

/// Path prefixes exempt from the span-coverage pass: the runtime crate
/// *defines* the chunked executors (and spans them internally), and the
/// vendored shims are stand-ins for external crates, outside the obs
/// contract.
const SPAN_COVERAGE_EXEMPT: &[&str] = &["crates/runtime/", "shims/"];

/// True if the contiguous comment/attribute block immediately above line
/// `i` (plus line `i` itself) carries a `SAFETY:` or `# Safety` marker. A
/// blank or code line ends the block: a safety comment separated from its
/// `unsafe` by unrelated code is stale and does not count.
fn safety_documented(raw_lines: &[&str], i: usize) -> bool {
    let marker = |l: &str| l.contains("SAFETY:") || l.contains("# Safety");
    if marker(raw_lines[i]) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if comment_or_attr(t) {
            if marker(t) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// True if a trimmed line is part of a comment/attribute block.
fn comment_or_attr(t: &str) -> bool {
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("/*") || t.starts_with('*')
}

/// Panicking or unchecked constructs banned on the hot query path.
const HOT_PATH_BANS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "get_unchecked",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
    "dbg!(",
];

/// Strips line/block comments and string literals, preserving line
/// structure, so token matching never fires inside prose or fixtures.
/// `char` literals survive (a lone `'"'` would otherwise derail the
/// scanner, and no rule token fits in a char literal anyway).
fn strip_code(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_block_comment = false;
    for line in text.lines() {
        let mut kept = String::with_capacity(line.len());
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_string = false;
        let mut raw_hashes: Option<usize> = None;
        while i < bytes.len() {
            if in_block_comment {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
            } else if in_string {
                match bytes[i] {
                    b'\\' if raw_hashes.is_none() => i += 2,
                    b'"' => {
                        let closes = match raw_hashes {
                            None => true,
                            Some(h) => {
                                bytes[i + 1..].iter().take_while(|&&b| b == b'#').count() >= h
                            }
                        };
                        if closes {
                            i += 1 + raw_hashes.take().unwrap_or(0);
                            in_string = false;
                        } else {
                            i += 1;
                        }
                    }
                    _ => i += 1,
                }
            } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'/') {
                break; // line comment: drop the rest
            } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                in_block_comment = true;
                i += 2;
            } else if bytes[i] == b'"' {
                in_string = true;
                i += 1;
            } else if bytes[i] == b'r'
                && bytes.get(i + 1).is_some_and(|&b| b == b'"' || b == b'#')
                && !kept
                    .chars()
                    .last()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                let hashes = bytes[i + 1..].iter().take_while(|&&b| b == b'#').count();
                if bytes.get(i + 1 + hashes) == Some(&b'"') {
                    raw_hashes = Some(hashes);
                    in_string = true;
                    i += 2 + hashes;
                } else {
                    kept.push('r');
                    i += 1;
                }
            } else {
                kept.push(bytes[i] as char);
                i += 1;
            }
        }
        out.push(kept);
    }
    out
}

/// Index of the first line from which test-module exemptions apply, or
/// `lines.len()` if the file has no test module.
fn test_cutoff(raw_lines: &[&str]) -> usize {
    raw_lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(raw_lines.len())
}

/// True if the stripped line contains `unsafe` as a standalone token.
fn has_unsafe_token(stripped: &str) -> bool {
    let bytes = stripped.as_bytes();
    let mut start = 0;
    while let Some(pos) = stripped[start..].find("unsafe") {
        let at = start + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let after = at + "unsafe".len();
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

// ---------------------------------------------------------------------------
// Directive grammar
// ---------------------------------------------------------------------------

/// The comment prefix that introduces a lint directive. Built with
/// `concat!` so this source file never contains the literal byte sequence
/// and cannot trip its own directive scan.
const DIRECTIVE_PREFIX: &str = concat!("//", " LINT:");

/// A parsed lint directive.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    /// Marks the function below as hot for the allocation ban.
    Hot,
    /// Waives one allocation site, with the mandatory reason.
    AllocOk(String),
}

/// Parses a lint directive from a raw source line. `None` means the line
/// carries no directive; `Some(Err(_))` means a malformed or unknown one.
fn parse_directive(line: &str) -> Option<Result<Directive, String>> {
    let pos = line.find(DIRECTIVE_PREFIX)?;
    let rest = line[pos + DIRECTIVE_PREFIX.len()..].trim();
    let word_end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .unwrap_or(rest.len());
    match &rest[..word_end] {
        "hot" => Some(Ok(Directive::Hot)),
        "alloc-ok" => {
            let after = rest[word_end..].trim_start();
            let reason = after
                .strip_prefix('(')
                .and_then(|a| a.rfind(')').map(|p| a[..p].trim()));
            match reason {
                Some(r) if !r.is_empty() => Some(Ok(Directive::AllocOk(r.to_string()))),
                _ => Some(Err(
                    "`LINT: alloc-ok` waiver without a reason; every waiver must \
                     explain itself, e.g. `LINT: alloc-ok(output buffer is the API \
                     contract)`"
                        .to_string(),
                )),
            }
        }
        other => Some(Err(format!(
            "unknown `LINT:` directive `{other}` (known: `hot`, `alloc-ok(reason)`)"
        ))),
    }
}

/// Validates every directive in the file and collects explained waivers.
fn directive_pass(
    file: &str,
    raw_lines: &[&str],
    cutoff: usize,
    out: &mut Vec<Violation>,
    waivers: &mut Vec<Waiver>,
) {
    for (i, line) in raw_lines.iter().enumerate().take(cutoff) {
        match parse_directive(line) {
            None | Some(Ok(Directive::Hot)) => {}
            Some(Ok(Directive::AllocOk(reason))) => waivers.push(Waiver {
                file: file.to_string(),
                line: i + 1,
                reason,
            }),
            Some(Err(message)) => out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                rule: "lint-directive",
                message,
            }),
        }
    }
}

/// True if line `line` (1-based) carries a given directive on itself or in
/// the contiguous comment/attribute block directly above.
fn directive_at_or_above(
    raw_lines: &[&str],
    line: usize,
    matches: impl Fn(&Directive) -> bool,
) -> bool {
    let hit = |l: &str| matches!(parse_directive(l), Some(Ok(d)) if matches(&d));
    if hit(raw_lines[line - 1]) {
        return true;
    }
    let mut j = line - 1;
    while j > 0 {
        j -= 1;
        let t = raw_lines[j].trim_start();
        if comment_or_attr(t) {
            if hit(t) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_ident(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == Kind::Ident && t.text == s)
}

fn is_punct(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == Kind::Punct && t.text == s)
}

fn is_open(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == Kind::Open && t.text == s)
}

fn is_close(t: Option<&Token>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == Kind::Close && t.text == s)
}

// ---------------------------------------------------------------------------
// Pass: hot-path allocation ban
// ---------------------------------------------------------------------------

/// Matches an allocating construct anchored at token `i`. Returns the line
/// to report and the display name.
fn alloc_hit(toks: &[Token], i: usize) -> Option<(usize, &'static str)> {
    let t = &toks[i];
    let n1 = toks.get(i + 1);
    let n2 = toks.get(i + 2);
    if t.kind == Kind::Ident {
        let what = match t.text.as_str() {
            "Vec" if is_punct(n1, "::") && is_ident(n2, "new") => "Vec::new",
            "Box" if is_punct(n1, "::") && is_ident(n2, "new") => "Box::new",
            "String" if is_punct(n1, "::") && is_ident(n2, "from") => "String::from",
            "vec" if is_punct(n1, "!") => "vec![…]",
            "format" if is_punct(n1, "!") => "format!",
            "with_capacity" if is_open(n1, "(") => "with_capacity",
            _ => return None,
        };
        Some((t.line, what))
    } else if t.kind == Kind::Punct && t.text == "." {
        let n = n1?;
        if n.kind != Kind::Ident {
            return None;
        }
        let what = match n.text.as_str() {
            "collect" => ".collect()",
            "to_vec" => ".to_vec()",
            "to_owned" => ".to_owned()",
            "to_string" => ".to_string()",
            _ => return None,
        };
        Some((n.line, what))
    } else {
        None
    }
}

/// The hot-path allocation ban: banned constructs in hot scopes must be
/// individually waived with an explained `alloc-ok` directive.
fn alloc_pass(
    file: &str,
    raw_lines: &[&str],
    lexed: &Lexed,
    cutoff: usize,
    out: &mut Vec<Violation>,
) {
    let file_hot = HOT_PATHS.contains(&file);
    let mut hot = vec![file_hot; lexed.scopes.len()];
    if !file_hot {
        for (id, s) in lexed.scopes.iter().enumerate() {
            if s.fn_name.is_some()
                && s.head_line <= raw_lines.len()
                && directive_at_or_above(raw_lines, s.head_line, |d| *d == Directive::Hot)
            {
                hot[id] = true;
            }
        }
        // Scopes are pushed parent-before-child, so one forward sweep
        // propagates hotness into nested closures and items.
        for id in 1..hot.len() {
            if let Some(p) = lexed.scopes[id].parent {
                hot[id] = hot[id] || hot[p];
            }
        }
        if hot.iter().all(|h| !h) {
            return;
        }
    }
    for i in 0..lexed.tokens.len() {
        let Some((line, what)) = alloc_hit(&lexed.tokens, i) else {
            continue;
        };
        if !hot[lexed.tokens[i].scope] || line > cutoff {
            continue;
        }
        if directive_at_or_above(raw_lines, line, |d| matches!(d, Directive::AllocOk(_))) {
            continue;
        }
        out.push(Violation {
            file: file.to_string(),
            line,
            rule: "hot-path-alloc",
            message: format!(
                "allocating construct `{what}` in a hot-path function; hoist the \
                 buffer to the caller or waive the site with an explained \
                 `LINT: alloc-ok(reason)`"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Pass: atomic-ordering audit
// ---------------------------------------------------------------------------

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The `ORDERING:` justification for site line `line`, if present: on the
/// line's own trailing comment, or in the contiguous block above — where
/// lines that are themselves ordering sites do not break the block, so one
/// comment can justify a cluster of consecutive sites.
fn ordering_justification(
    raw_lines: &[&str],
    site_lines: &BTreeSet<usize>,
    line: usize,
) -> Option<String> {
    let extract = |l: &str| {
        l.find("ORDERING:").map(|p| {
            l[p + "ORDERING:".len()..]
                .trim()
                .trim_end_matches("*/")
                .trim_end()
                .to_string()
        })
    };
    let own = raw_lines[line - 1];
    if let Some(slash) = own.find("//") {
        if let Some(j) = extract(&own[slash..]) {
            return Some(j);
        }
    }
    let mut i = line - 1;
    while i > 0 {
        i -= 1;
        let t = raw_lines[i].trim_start();
        if comment_or_attr(t) {
            if let Some(j) = extract(t) {
                return Some(j);
            }
        } else if !site_lines.contains(&(i + 1)) {
            break;
        }
    }
    None
}

/// The atomic-ordering audit: every use site justified, inventory emitted.
fn ordering_pass(
    file: &str,
    raw_lines: &[&str],
    lexed: &Lexed,
    cutoff: usize,
    out: &mut Vec<Violation>,
    sites_out: &mut Vec<OrderingSite>,
) {
    struct Acc {
        variants: Vec<String>,
        any_path: bool,
        in_use: bool,
    }
    let toks = &lexed.tokens;
    let mut acc: BTreeMap<usize, Acc> = BTreeMap::new();
    let mut in_use = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == Kind::Ident && t.text == "use" {
            in_use = true;
        } else if t.kind == Kind::Punct && t.text == ";" {
            in_use = false;
        }
        if t.kind == Kind::Ident && ORDERING_VARIANTS.contains(&t.text.as_str()) && t.line <= cutoff
        {
            let path =
                i >= 2 && is_punct(toks.get(i - 1), "::") && is_ident(toks.get(i - 2), "Ordering");
            let e = acc.entry(t.line).or_insert(Acc {
                variants: Vec::new(),
                any_path: false,
                in_use: false,
            });
            if !e.variants.contains(&t.text) {
                e.variants.push(t.text.clone());
            }
            e.any_path |= path;
            e.in_use |= in_use;
        }
    }
    if acc.is_empty() {
        return;
    }
    let site_lines: BTreeSet<usize> = acc.keys().copied().collect();
    let mut last_import: Option<usize> = None;
    for (line, a) in &acc {
        let just = ordering_justification(raw_lines, &site_lines, *line);
        let vars = a.variants.join(", ");
        let mut via = None;
        if a.in_use {
            if just.is_none() {
                out.push(Violation {
                    file: file.to_string(),
                    line: *line,
                    rule: "atomic-ordering",
                    message: format!(
                        "`use` importing atomic ordering `{vars}` without an \
                         `ORDERING:` justification comment above; the import's \
                         justification covers the file's bare uses"
                    ),
                });
            }
            last_import = Some(*line);
        } else if just.is_none() {
            if !a.any_path && last_import.is_some() {
                via = last_import;
            } else {
                out.push(Violation {
                    file: file.to_string(),
                    line: *line,
                    rule: "atomic-ordering",
                    message: format!(
                        "atomic ordering `{vars}` without an `ORDERING:` \
                         justification in the comment block directly above"
                    ),
                });
            }
        }
        sites_out.push(OrderingSite {
            file: file.to_string(),
            line: *line,
            orderings: a.variants.clone(),
            justification: just,
            via_import: via,
            is_import: a.in_use,
        });
    }
}

// ---------------------------------------------------------------------------
// Pass: lock guard live across a parallel region
// ---------------------------------------------------------------------------

const GUARD_METHODS: &[&str] = &["lock", "read", "write"];
/// Adapters that pass the guard through unchanged; anything else consumes
/// it within the statement (so the binding is not a guard).
const GUARD_CHAIN: &[&str] = &["unwrap", "expect", "unwrap_or_else"];
const PARALLEL_CALLEES: &[&str] = &["run_chunked", "run_chunked_plan", "join"];

struct GuardBinding {
    name: String,
    line: usize,
}

/// Parses the `let` statement starting at token `i`. Returns
/// `(binding name, guard)` where `guard` is `Some` iff the statement binds
/// a live lock/rwlock guard: a simple `let [mut] name = …;` whose RHS is
/// not a deref copy, calls `.lock()`/`.read()`/`.write()` with no
/// arguments, and passes the guard through nothing but unwrap adapters.
fn let_binding(toks: &[Token], i: usize) -> Option<(String, Option<GuardBinding>)> {
    let mut j = i + 1;
    if is_ident(toks.get(j), "mut") {
        j += 1;
    }
    let name_tok = toks.get(j)?;
    if name_tok.kind != Kind::Ident {
        return None; // tuple/struct pattern: not a simple binding
    }
    let name = name_tok.text.clone();
    // Scan to the statement-terminating `;` at delimiter depth 0, noting
    // the first depth-0 `=` (the binding's).
    let mut depth = 0usize;
    let mut eq = None;
    let mut end = None;
    let mut k = j + 1;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            Kind::Open => depth += 1,
            Kind::Close => {
                if depth == 0 {
                    return None; // ran off the enclosing scope: malformed
                }
                depth -= 1;
            }
            Kind::Punct if depth == 0 && t.text == ";" => {
                end = Some(k);
                break;
            }
            Kind::Punct if depth == 0 && t.text == "=" && eq.is_none() => {
                eq = Some(k);
            }
            _ => {}
        }
        k += 1;
    }
    let (eq, end) = (eq?, end?);
    let rhs = &toks[eq + 1..end];
    if is_punct(rhs.first(), "*") {
        return Some((name, None)); // deref copy: the guard dies in-statement
    }
    // Last empty-args guard-method call in the chain.
    let mut after_call = None;
    let mut k = 0;
    while k + 3 < rhs.len() {
        if is_punct(rhs.get(k), ".")
            && rhs
                .get(k + 1)
                .is_some_and(|t| t.kind == Kind::Ident && GUARD_METHODS.contains(&t.text.as_str()))
            && is_open(rhs.get(k + 2), "(")
            && is_close(rhs.get(k + 3), ")")
        {
            after_call = Some(k + 4);
        }
        k += 1;
    }
    let Some(mut k) = after_call else {
        return Some((name, None));
    };
    // Everything after the guard call must be a pass-through chain.
    while k < rhs.len() {
        let adapter = is_punct(rhs.get(k), ".")
            && rhs
                .get(k + 1)
                .is_some_and(|t| t.kind == Kind::Ident && GUARD_CHAIN.contains(&t.text.as_str()))
            && is_open(rhs.get(k + 2), "(");
        if !adapter {
            return Some((name, None)); // consumed (indexed, method call, …)
        }
        let mut d = 1usize;
        k += 3;
        while k < rhs.len() && d > 0 {
            match rhs[k].kind {
                Kind::Open => d += 1,
                Kind::Close => d -= 1,
                _ => {}
            }
            k += 1;
        }
    }
    let line = toks[i].line;
    Some((name.clone(), Some(GuardBinding { name, line })))
}

/// Flags `run_chunked`/`run_chunked_plan`/`join` calls made while a lock
/// guard bound in an enclosing (still-open) scope is live.
fn lock_pass(file: &str, lexed: &Lexed, cutoff: usize, out: &mut Vec<Violation>) {
    let toks = &lexed.tokens;
    let mut frames: Vec<Vec<GuardBinding>> = vec![Vec::new()];
    let kill = |frames: &mut Vec<Vec<GuardBinding>>, name: &str| {
        for f in frames.iter_mut() {
            f.retain(|g| g.name != name);
        }
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        match t.kind {
            Kind::Open if t.text == "{" => frames.push(Vec::new()),
            Kind::Close if t.text == "}" && frames.len() > 1 => {
                frames.pop();
            }
            Kind::Ident
                if t.text == "drop"
                    && is_open(toks.get(i + 1), "(")
                    && toks.get(i + 2).is_some_and(|t| t.kind == Kind::Ident)
                    && is_close(toks.get(i + 3), ")") =>
            {
                let name = toks[i + 2].text.clone();
                kill(&mut frames, &name);
            }
            Kind::Ident if t.text == "let" && t.line <= cutoff => {
                if let Some((name, guard)) = let_binding(toks, i) {
                    // Shadowing ends the old binding's tracked liveness.
                    kill(&mut frames, &name);
                    if let Some(g) = guard {
                        frames.last_mut().expect("root frame").push(g);
                    }
                }
            }
            Kind::Ident
                if PARALLEL_CALLEES.contains(&t.text.as_str())
                    && is_open(toks.get(i + 1), "(")
                    && t.line <= cutoff =>
            {
                let prev = if i > 0 { toks.get(i - 1) } else { None };
                // `x.join(…)` is string/thread/path join; `fn join(` is a
                // definition. Neither enters a parallel region here.
                if is_punct(prev, ".") || is_ident(prev, "fn") {
                    continue;
                }
                for g in frames.iter().flatten() {
                    out.push(Violation {
                        file: file.to_string(),
                        line: t.line,
                        rule: "lock-across-parallel",
                        message: format!(
                            "`{}` called while lock guard `{}` (bound on line {}) is \
                             still live; drop or scope the guard before entering the \
                             parallel region",
                            t.text, g.name, g.line
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Pass: span coverage of chunked parallel stages
// ---------------------------------------------------------------------------

const SPAN_OPENERS: &[&str] = &["with_span", "with_span_args", "enter", "enter_with_args"];

/// Flags `run_chunked`/`run_chunked_plan` call sites that are not lexically
/// inside a span scope within their enclosing function.
fn span_pass(file: &str, lexed: &Lexed, cutoff: usize, out: &mut Vec<Violation>) {
    if SPAN_COVERAGE_EXEMPT.iter().any(|p| file.starts_with(p)) {
        return;
    }
    struct Frame {
        has_span: bool,
        is_fn: bool,
    }
    let toks = &lexed.tokens;
    let mut stack = vec![Frame {
        has_span: false,
        is_fn: false,
    }];
    let mut next_scope = 1usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        match t.kind {
            Kind::Open if t.text == "{" => {
                // Brace scopes are created in token order, so the k-th `{`
                // is scope k in the lexed brace tree.
                let is_fn = lexed
                    .scopes
                    .get(next_scope)
                    .is_some_and(|s| s.fn_name.is_some());
                next_scope += 1;
                stack.push(Frame {
                    has_span: false,
                    is_fn,
                });
            }
            Kind::Close if t.text == "}" && stack.len() > 1 => {
                stack.pop();
            }
            Kind::Ident => {
                let n1 = toks.get(i + 1);
                let callish = n1.is_some_and(|n| n.kind == Kind::Open && n.text == "(");
                if (SPAN_OPENERS.contains(&t.text.as_str()) && callish)
                    || (t.text == "span" && is_punct(n1, "!"))
                {
                    stack.last_mut().expect("root frame").has_span = true;
                } else if (t.text == "run_chunked" || t.text == "run_chunked_plan")
                    && callish
                    && t.line <= cutoff
                    && !is_ident(if i > 0 { toks.get(i - 1) } else { None }, "fn")
                {
                    let mut covered = false;
                    for f in stack.iter().rev() {
                        if f.has_span {
                            covered = true;
                            break;
                        }
                        if f.is_fn {
                            break; // span scopes do not leak across fn items
                        }
                    }
                    if !covered {
                        out.push(Violation {
                            file: file.to_string(),
                            line: t.line,
                            rule: "span-coverage",
                            message: format!(
                                "`{}` outside any `span!`/`with_span`/`enter` scope; \
                                 wrap the stage in a span so its trace records it and \
                                 `check-trace`'s stage rules cover its workers",
                                t.text
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs every pass over one source file; `file` is the workspace-relative
/// path with unix separators.
#[must_use]
pub fn analyze_file(file: &str, text: &str) -> FileReport {
    let raw_lines: Vec<&str> = text.lines().collect();
    let stripped = strip_code(text);
    let cutoff = test_cutoff(&raw_lines);
    let mut report = FileReport::default();
    let out = &mut report.violations;

    let allowlisted = UNSAFE_ALLOWLIST.contains(&file);
    for (i, code) in stripped.iter().enumerate().take(cutoff) {
        if has_unsafe_token(code) {
            if !allowlisted {
                out.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "unsafe-allowlist",
                    message: format!(
                        "`unsafe` outside the allowlist ({}); rewrite safely or move the \
                         code behind an allowlisted module",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                });
            } else if !safety_documented(&raw_lines, i) {
                out.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    rule: "safety-comment",
                    message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                              section) in the comment block directly above"
                        .to_string(),
                });
            }
        }
    }

    if HOT_PATHS.contains(&file) {
        for (i, code) in stripped.iter().enumerate().take(cutoff) {
            for ban in HOT_PATH_BANS {
                if code.contains(ban) {
                    out.push(Violation {
                        file: file.to_string(),
                        line: i + 1,
                        rule: "hot-path-panic",
                        message: format!(
                            "`{}` on the hot query path; return Option / saturate instead",
                            ban.trim_start_matches('.').trim_end_matches('(')
                        ),
                    });
                }
            }
        }
    }

    if DENY_UNSAFE_OP_ROOTS.contains(&file) && !text.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
        out.push(Violation {
            file: file.to_string(),
            line: 1,
            rule: "deny-unsafe-op",
            message: "crate root must carry #![deny(unsafe_op_in_unsafe_fn)]".to_string(),
        });
    }

    // Token-aware passes share one lex of the file. The cutoff is expressed
    // as "last linted line": a token on line L is exempt iff L > cutoff.
    let lexed = Lexed::lex(text);
    directive_pass(file, &raw_lines, cutoff, out, &mut report.waivers);
    alloc_pass(file, &raw_lines, &lexed, cutoff, out);
    ordering_pass(
        file,
        &raw_lines,
        &lexed,
        cutoff,
        out,
        &mut report.ordering_sites,
    );
    lock_pass(file, &lexed, cutoff, out);
    span_pass(file, &lexed, cutoff, out);

    report.violations.sort_by_key(|v| v.line);
    report
}

/// Lints one source file, returning only the violations (the full report,
/// including inventory rows and waivers, comes from [`analyze_file`]).
#[must_use]
pub fn lint_file(file: &str, text: &str) -> Vec<Violation> {
    analyze_file(file, text).violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const SORT_RS: &str = "crates/graph/src/sort.rs";
    const ANY_RS: &str = "crates/fixture/src/lib.rs";
    // Span-coverage-exempt path: lock-pass tests use it so their bare
    // `run_chunked_plan` calls exercise only the guard-liveness rule.
    const RT_RS: &str = "crates/runtime/src/stage.rs";

    fn rules(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn documented_unsafe_in_allowlisted_file_passes() {
        let src = "\
// SAFETY: writers touch disjoint indices.
unsafe impl Sync for T {}

fn caller(t: &T) {
    // SAFETY: index proven in bounds above.
    unsafe { t.write(0) };
}
";
        assert_eq!(lint_file(SORT_RS, src), []);
    }

    #[test]
    fn undocumented_unsafe_in_allowlisted_file_fails() {
        let src = "fn f(p: *mut u8) {\n    unsafe { p.write(0) };\n}\n";
        let v = lint_file(SORT_RS, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, "safety-comment");
    }

    #[test]
    fn safety_doc_section_counts_for_unsafe_fn() {
        let src = "\
/// # Safety
///
/// Caller must keep `i` in bounds.
#[inline]
unsafe fn write(i: usize) {}
";
        assert_eq!(lint_file(SORT_RS, src), []);
    }

    #[test]
    fn stale_safety_comment_separated_by_blank_line_fails() {
        // A blank line ends the comment block: the marker no longer
        // attaches to the `unsafe` below it.
        let src = "// SAFETY: far away.\n\nunsafe fn f() {}\n";
        assert_eq!(lint_file(SORT_RS, src).len(), 1);
    }

    #[test]
    fn stale_safety_comment_separated_by_code_fails() {
        let src = "// SAFETY: documents the wrong thing.\nfn g() {}\nunsafe fn f() {}\n";
        assert_eq!(lint_file(SORT_RS, src).len(), 1);
    }

    #[test]
    fn long_safety_block_with_interleaved_attribute_passes() {
        // The marker may sit many lines up, as long as the block of
        // comments/attributes between it and the `unsafe` is contiguous.
        let mut src = String::from("// SAFETY: a long argument follows.\n");
        src.push_str(&"// more detail.\n".repeat(8));
        src.push_str("#[inline]\nunsafe fn f() {}\n");
        assert_eq!(lint_file(SORT_RS, &src).len(), 0);
    }

    #[test]
    fn any_unsafe_outside_allowlist_fails() {
        let src = "// SAFETY: even documented.\nunsafe fn f() {}\n";
        let v = lint_file("crates/core/src/query.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-allowlist");
        for path in UNSAFE_ALLOWLIST {
            assert!(v[0].message.contains(path), "{}", v[0].message);
        }
    }

    #[test]
    fn unsafe_in_comments_strings_and_idents_is_ignored() {
        let src = "\
// this comment says unsafe and is fine
/* so does unsafe this one */
#![deny(unsafe_op_in_unsafe_fn)]
const MSG: &str = \"unsafe\";
const RAW: &str = r#\"unsafe { }\"#;
fn not_unsafe_fn() {}
";
        assert_eq!(lint_file("crates/core/src/lib.rs", src), []);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn ok() {}
#[cfg(test)]
mod tests {
    fn f(p: *mut u8) { unsafe { p.write(0) } }
}
";
        assert_eq!(lint_file("crates/core/src/lib.rs", src), []);
    }

    #[test]
    fn hot_path_bans_panicking_constructs() {
        let src = "\
fn lookup(v: &[u32], i: usize) -> u32 {
    let x = v.get(i);
    if i > 10 { panic!(\"bad\") }
    *x.unwrap_or(&0)
}
";
        let v = lint_file("crates/core/src/query.rs", src);
        assert_eq!(rules(&v), ["hot-path-panic"]);
        assert!(v[0].message.contains("panic!"));
    }

    #[test]
    fn hot_path_bans_do_not_apply_elsewhere() {
        let src = "fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
        assert_eq!(lint_file("crates/core/src/builder.rs", src), []);
    }

    #[test]
    fn deny_attr_required_in_unsafe_crate_roots() {
        let v = lint_file("crates/graph/src/lib.rs", "//! docs\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "deny-unsafe-op");
        let clean = "#![deny(unsafe_op_in_unsafe_fn)]\n//! docs\n";
        assert_eq!(lint_file("crates/graph/src/lib.rs", clean), []);
    }

    #[test]
    fn display_is_file_line_rule_message() {
        let v = Violation {
            file: "a/b.rs".into(),
            line: 7,
            rule: "hot-path-alloc",
            message: "nope".into(),
        };
        assert_eq!(v.to_string(), "a/b.rs:7: [hot-path-alloc] nope");
    }

    // -- hot-path-alloc ----------------------------------------------------

    #[test]
    fn alloc_banned_in_hot_file() {
        let src = "\
fn decode(n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    out.extend((0..n as u32).collect::<Vec<_>>());
    out
}
";
        let v = lint_file("crates/bitpack/src/cursor.rs", src);
        assert_eq!(rules(&v), ["hot-path-alloc", "hot-path-alloc"]);
        assert!(v[0].message.contains("with_capacity"), "{}", v[0]);
        assert!(v[1].message.contains(".collect()"), "{}", v[1]);
    }

    #[test]
    fn alloc_waiver_with_reason_passes_and_is_recorded() {
        let src = "\
fn decode(n: usize) -> Vec<u32> {
    // LINT: alloc-ok(result vector is the API contract)
    let mut out = Vec::with_capacity(n);
    out
}
";
        let r = analyze_file("crates/bitpack/src/cursor.rs", src);
        assert_eq!(r.violations, []);
        assert_eq!(r.waivers.len(), 1);
        assert_eq!(r.waivers[0].reason, "result vector is the API contract");
    }

    #[test]
    fn alloc_waiver_on_same_line_passes() {
        let src =
            "fn f() { let v = vec![0u32; 4]; } // LINT: alloc-ok(cold setup, not per-lookup)\n";
        assert_eq!(lint_file("crates/core/src/query.rs", src), []);
    }

    #[test]
    fn alloc_waiver_without_reason_is_a_violation() {
        let src = "\
fn decode() {
    // LINT: alloc-ok()
    let v = Vec::new();
}
";
        let v = lint_file("crates/bitpack/src/cursor.rs", src);
        // The malformed waiver does not waive, and is itself flagged.
        assert_eq!(rules(&v), ["lint-directive", "hot-path-alloc"]);
    }

    #[test]
    fn unknown_directive_is_a_violation() {
        let src = "fn f() {}\n// LINT: allocok(typo)\n";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["lint-directive"]);
        assert!(v[0].message.contains("allocok"), "{}", v[0]);
    }

    #[test]
    fn hot_marker_extends_ban_to_any_file() {
        let src = "\
fn cold() -> Vec<u32> { Vec::new() }

// LINT: hot
fn warm(out: &mut Vec<u32>) {
    let extra = Vec::new();
    out.push(1);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["hot-path-alloc"]);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn hot_marker_covers_nested_closures() {
        let src = "\
// LINT: hot
fn warm(xs: &[u32]) -> u32 {
    xs.iter().map(|x| { format!(\"{x}\"); *x }).sum()
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["hot-path-alloc"]);
        assert!(v[0].message.contains("format!"), "{}", v[0]);
    }

    #[test]
    fn alloc_tokens_in_raw_strings_and_comments_do_not_fire() {
        let src = "\
// LINT: hot
fn warm() -> &'static str {
    // Vec::new in a comment is fine.
    r#\"vec![ Box::new String::from .collect() \"#
}
";
        assert_eq!(lint_file(ANY_RS, src), []);
    }

    #[test]
    fn alloc_in_test_module_of_hot_file_is_exempt() {
        let src = "\
fn fine() -> u32 { 0 }
#[cfg(test)]
mod tests {
    fn helper() -> Vec<u32> { (0..4).collect() }
}
";
        assert_eq!(lint_file("crates/core/src/query.rs", src), []);
    }

    // -- atomic-ordering ---------------------------------------------------

    #[test]
    fn ordering_site_without_justification_fails() {
        let src = "\
fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["atomic-ordering"]);
        assert!(v[0].message.contains("Relaxed"), "{}", v[0]);
    }

    #[test]
    fn ordering_site_with_justification_passes_and_is_inventoried() {
        let src = "\
fn bump(c: &AtomicU64) {
    // ORDERING: Relaxed; a monotone counter read only after join.
    c.fetch_add(1, Ordering::Relaxed);
}
";
        let r = analyze_file(ANY_RS, src);
        assert_eq!(r.violations, []);
        assert_eq!(r.ordering_sites.len(), 1);
        assert_eq!(
            r.ordering_sites[0].justification.as_deref(),
            Some("Relaxed; a monotone counter read only after join.")
        );
        assert_eq!(r.ordering_sites[0].orderings, ["Relaxed"]);
    }

    #[test]
    fn ordering_cluster_shares_one_justification() {
        let src = "\
fn publish(a: &AtomicU64, b: &AtomicU64) {
    // ORDERING: Relaxed; both stores are sequenced before the join barrier.
    a.store(1, Ordering::Relaxed);
    b.store(2, Ordering::Relaxed);
}
";
        let r = analyze_file(ANY_RS, src);
        assert_eq!(r.violations, []);
        assert_eq!(r.ordering_sites.len(), 2);
        assert!(r.ordering_sites.iter().all(|s| s.justification.is_some()));
    }

    #[test]
    fn justified_import_covers_bare_uses() {
        let src = "\
// ORDERING: Relaxed throughout; counters are read only after the join.
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Relaxed);
}
";
        let r = analyze_file(ANY_RS, src);
        assert_eq!(r.violations, []);
        assert_eq!(r.ordering_sites.len(), 2);
        assert!(r.ordering_sites[0].is_import);
        assert_eq!(r.ordering_sites[1].via_import, Some(2));
    }

    #[test]
    fn unjustified_import_fails_once_not_per_use() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Relaxed);
    c.fetch_add(2, Relaxed);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["atomic-ordering"]);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn explicit_path_needs_local_justification_despite_import() {
        let src = "\
// ORDERING: Relaxed; see module docs.
use std::sync::atomic::Ordering;

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::SeqCst);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["atomic-ordering"]);
        assert!(v[0].message.contains("SeqCst"), "{}", v[0]);
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let src = "\
fn f(a: u32, b: u32) -> std::cmp::Ordering {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => std::cmp::Ordering::Less,
        o => o,
    }
}
";
        let r = analyze_file(ANY_RS, src);
        assert_eq!(r.violations, []);
        assert!(r.ordering_sites.is_empty());
    }

    // -- lock-across-parallel ----------------------------------------------

    #[test]
    fn guard_live_at_run_chunked_fails() {
        let src = "\
fn stage(m: &Mutex<u32>, plan: Vec<Chunk>) {
    let g = m.lock().unwrap();
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        let v = lint_file(RT_RS, src);
        assert_eq!(rules(&v), ["lock-across-parallel"]);
        assert!(v[0].message.contains("`g`"), "{}", v[0]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn guard_dropped_before_parallel_passes() {
        let src = "\
fn stage(m: &Mutex<u32>, plan: Vec<Chunk>) {
    let g = m.lock().unwrap();
    drop(g);
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        assert_eq!(lint_file(RT_RS, src), []);
    }

    #[test]
    fn guard_scoped_in_block_passes() {
        let src = "\
fn stage(m: &Mutex<u32>, plan: Vec<Chunk>) {
    {
        let g = m.lock().unwrap();
        *g;
    }
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        assert_eq!(lint_file(RT_RS, src), []);
    }

    #[test]
    fn shadowed_guard_ends_tracked_liveness() {
        let src = "\
fn stage(m: &Mutex<u32>, plan: Vec<Chunk>) {
    let g = m.lock().unwrap();
    let g = 0u32;
    run_chunked_plan(\"s\", plan, |c| c.index + g);
}
";
        assert_eq!(lint_file(RT_RS, src), []);
    }

    #[test]
    fn value_consumed_in_statement_is_not_a_guard() {
        // The guard dies at the end of its own statement in all of these.
        let src = "\
fn stage(m: &Mutex<Vec<u32>>, plan: Vec<Chunk>) {
    let len = m.lock().unwrap().len();
    let copied = *m.lock().unwrap();
    let first = (*m.lock().unwrap()).first();
    run_chunked_plan(\"s\", plan, |c| c.index + len);
}
";
        assert_eq!(lint_file(RT_RS, src), []);
    }

    #[test]
    fn dotted_and_definition_joins_are_not_parallel_calls() {
        let src = "\
fn join(a: u32) -> u32 { a }
fn f(h: std::thread::JoinHandle<()>, m: &Mutex<u32>) {
    let g = m.lock().unwrap();
    h.join();
    let p = std::path::Path::new(\"a\").join(\"b\");
}
";
        assert_eq!(lint_file(ANY_RS, src), []);
    }

    #[test]
    fn rayon_join_with_live_guard_fails() {
        let src = "\
fn f(m: &Mutex<u32>) {
    let g = m.lock().unwrap();
    rayon::join(|| 1, || 2);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["lock-across-parallel"]);
    }

    #[test]
    fn rwlock_write_guard_is_tracked() {
        let src = "\
fn f(m: &RwLock<u32>, plan: Vec<Chunk>) {
    let w = m.write().unwrap();
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        assert_eq!(rules(&lint_file(RT_RS, src)), ["lock-across-parallel"]);
    }

    #[test]
    fn io_write_with_args_is_not_a_guard() {
        let src = "\
fn f(w: &mut dyn std::io::Write, buf: &[u8], plan: Vec<Chunk>) {
    let n = w.write(buf).unwrap();
    run_chunked_plan(\"s\", plan, |c| c.index + n);
}
";
        assert_eq!(lint_file(RT_RS, src), []);
    }

    // -- span-coverage -----------------------------------------------------

    #[test]
    fn uncovered_run_chunked_fails() {
        let src = "\
fn stage(plan: Vec<Chunk>) {
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["span-coverage"]);
    }

    #[test]
    fn guard_form_span_covers() {
        let src = "\
fn stage(plan: Vec<Chunk>) {
    let _span = parcsr_obs::enter_with_args(\"stage\", args);
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        assert_eq!(lint_file(ANY_RS, src), []);
    }

    #[test]
    fn closure_form_span_covers_nested_call() {
        let src = "\
fn stage(plan: Vec<Chunk>) {
    parcsr_obs::with_span(\"stage\", || {
        run_chunked_plan(\"s\", plan, |c| c.index)
    });
}
";
        assert_eq!(lint_file(ANY_RS, src), []);
    }

    #[test]
    fn span_in_closed_sibling_closure_does_not_cover() {
        let src = "\
fn stage(plan: Vec<Chunk>) {
    helper(|| { parcsr_obs::enter(\"other\"); });
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["span-coverage"]);
    }

    #[test]
    fn span_does_not_leak_into_nested_fn_item() {
        let src = "\
fn outer(plan: Vec<Chunk>) {
    let _span = parcsr_obs::enter(\"outer\");
    fn inner(plan: Vec<Chunk>) {
        run_chunked_plan(\"s\", plan, |c| c.index);
    }
    inner(plan);
}
";
        let v = lint_file(ANY_RS, src);
        assert_eq!(rules(&v), ["span-coverage"]);
    }

    #[test]
    fn runtime_and_shims_are_exempt_from_span_coverage() {
        let src = "fn f(plan: Vec<Chunk>) { run_chunked_plan(\"s\", plan, |c| c.index); }\n";
        assert_eq!(lint_file("crates/runtime/src/lib.rs", src), []);
        assert_eq!(lint_file("shims/rayon/src/lib.rs", src), []);
    }

    // -- report ------------------------------------------------------------

    #[test]
    fn workspace_report_json_shape() {
        let src = "\
fn bump(c: &AtomicU64) {
    // ORDERING: Relaxed; read only after join.
    c.fetch_add(1, Ordering::Relaxed);
    run_chunked_plan(\"s\", plan, |c| c.index);
}
";
        let mut ws = WorkspaceReport::default();
        ws.merge(analyze_file(ANY_RS, src));
        let json = ws.to_json();
        let text = json.pretty();
        let parsed = Json::parse(&text).expect("report JSON parses");
        assert_eq!(parsed, json);
    }
}
