//! The six workspace invariant rules, evaluated over a lexed file.
//!
//! Rules are token-pattern matches scoped by a light structural pass
//! (`FileModel`) that tracks `#[cfg(test)]`/`#[test]` regions, attribute
//! spans, function bodies, and the lint marker comments:
//!
//! * `// lint: hot-path` — marks the next `fn` (or, before any code, the
//!   whole file) as a hot path subject to the allocation rule.
//! * `// lint: cold` — opts a `fn` out of a file-level hot-path marker.
//! * `// ALLOC: <why>` — sanctions an allocating call in a hot path
//!   (same line or the line above).
//! * `// PANIC: <why unreachable>` — justifies an `unwrap`/`expect`/
//!   `panic!` in library code (same line or the line above).
//! * `// SAFETY: <why sound>` — required adjacent to every `unsafe` block.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::HashSet;

/// One diagnostic. Rendered as `rule:file:line: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root, with forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation including the remedy.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: {}", self.rule, self.file, self.line, self.message)
    }
}

/// Rule IDs, in the order they are documented in DESIGN.md §12.
pub const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
pub const RULE_ATOMIC_WRITE: &str = "atomic-write";
pub const RULE_ENV_READ: &str = "env-read";
pub const RULE_PANIC_POLICY: &str = "panic-policy";
pub const RULE_UNSAFE_SAFETY: &str = "unsafe-safety";
pub const RULE_OBS: &str = "obs-discipline";

/// The only file allowed to open files for writing directly: everything
/// else must route through its `write_atomic` helpers.
const ATOMIC_WRITE_EXEMPT: &str = "crates/geometry/src/io.rs";

/// Files sanctioned to read environment variables (each caches the read).
const ENV_READ_SANCTIONED: [&str; 3] =
    ["crates/nn/src/pool.rs", "crates/litho/src/cache.rs", "crates/bench/src/lib.rs"];

/// Lints a single source file. `rel_path` is the workspace-relative path
/// used both for diagnostics and for path-scoped rules (exemptions,
/// sanctioned files, binary-vs-library classification).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let model = FileModel::build(rel_path, src);
    let mut out = Vec::new();
    model.check_hot_path_alloc(&mut out);
    model.check_atomic_write(&mut out);
    model.check_env_read(&mut out);
    model.check_panic_policy(&mut out);
    model.check_unsafe_safety(&mut out);
    model.check_obs(&mut out);
    out.sort();
    out.dedup();
    out
}

/// A function item: its name and the token range of its `{ … }` body.
struct FnSpan {
    name: String,
    /// Token indices of the body, including both braces.
    body: std::ops::Range<usize>,
    hot: bool,
    /// `#[cold]`-attributed or `// lint: cold`-marked: a declared error
    /// path, off-limits to metrics recording.
    cold: bool,
}

/// Per-file structural facts shared by all rules.
struct FileModel {
    rel_path: String,
    toks: Vec<Tok>,
    /// Token lies inside a `#[cfg(test)]` / `#[test]` region.
    in_test: Vec<bool>,
    /// Token is part of a `#[...]` / `#![...]` attribute.
    in_attr: Vec<bool>,
    /// Lines containing at least one non-attribute code token.
    code_lines: HashSet<u32>,
    hot_marker_lines: HashSet<u32>,
    cold_marker_lines: HashSet<u32>,
    alloc_ok_lines: HashSet<u32>,
    panic_ok_lines: HashSet<u32>,
    safety_lines: HashSet<u32>,
    file_hot: bool,
    fns: Vec<FnSpan>,
}

impl FileModel {
    fn build(rel_path: &str, src: &str) -> FileModel {
        let lexed = lex(src);
        let toks = lexed.tokens;
        let n = toks.len();

        // --- attribute spans and test regions ------------------------------
        let mut in_test = vec![false; n];
        let mut in_attr = vec![false; n];
        let mut depth = 0i64;
        let mut test_stack: Vec<i64> = Vec::new();
        let mut pending_test = false;
        let mut i = 0usize;
        while i < n {
            if toks[i].is_punct('#') {
                let mut j = i + 1;
                if j < n && toks[j].is_punct('!') {
                    j += 1;
                }
                if j < n && toks[j].is_punct('[') {
                    let mut brackets = 0i64;
                    let mut k = j;
                    while k < n {
                        if toks[k].is_punct('[') {
                            brackets += 1;
                        } else if toks[k].is_punct(']') {
                            brackets -= 1;
                            if brackets == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    let k = k.min(n - 1);
                    let inside_test = !test_stack.is_empty();
                    for flag in i..=k {
                        in_attr[flag] = true;
                        in_test[flag] = inside_test;
                    }
                    if is_test_attr(&toks[j + 1..=k.saturating_sub(1).max(j)]) {
                        pending_test = true;
                    }
                    i = k + 1;
                    continue;
                }
            }
            in_test[i] = !test_stack.is_empty();
            match toks[i].kind {
                TokKind::Punct('{') => {
                    depth += 1;
                    if pending_test {
                        test_stack.push(depth);
                        pending_test = false;
                        in_test[i] = true;
                    }
                }
                TokKind::Punct('}') => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth -= 1;
                }
                TokKind::Punct(';') => pending_test = false,
                _ => {}
            }
            i += 1;
        }

        // --- line classifications ------------------------------------------
        let mut code_lines = HashSet::new();
        for (idx, t) in toks.iter().enumerate() {
            if !in_attr[idx] {
                code_lines.insert(t.line);
            }
        }
        let first_code_line = toks
            .iter()
            .enumerate()
            .find(|(idx, _)| !in_attr[*idx])
            .map(|(_, t)| t.line)
            .unwrap_or(u32::MAX);

        let mut hot_marker_lines = HashSet::new();
        let mut cold_marker_lines = HashSet::new();
        let mut alloc_ok_lines = HashSet::new();
        let mut panic_ok_lines = HashSet::new();
        let mut safety_lines = HashSet::new();
        let mut file_hot = false;
        for c in &lexed.comments {
            // Doc comments are prose, not markers: `/// lint: hot-path`
            // in documentation must not change semantics.
            if c.text.starts_with("///")
                || c.text.starts_with("//!")
                || c.text.starts_with("/**")
                || c.text.starts_with("/*!")
            {
                continue;
            }
            let body = c.text.trim_start_matches('/').trim();
            if body == "lint: hot-path" {
                if c.start_line < first_code_line {
                    file_hot = true;
                } else {
                    hot_marker_lines.insert(c.start_line);
                }
            }
            if body == "lint: cold" {
                cold_marker_lines.insert(c.start_line);
            }
            if c.text.contains("ALLOC:") {
                alloc_ok_lines.extend(c.start_line..=c.end_line);
            }
            if c.text.contains("PANIC:") {
                panic_ok_lines.extend(c.start_line..=c.end_line);
            }
            if c.text.contains("SAFETY:") {
                safety_lines.extend(c.start_line..=c.end_line);
            }
        }
        // A justification may wrap onto continuation lines: a tagged
        // comment extends through every immediately following comment
        // line, so the block as a whole sits adjacent to the code line.
        for (a, b) in lexed.comments.iter().zip(lexed.comments.iter().skip(1)) {
            if b.start_line != a.end_line + 1 {
                continue;
            }
            for set in [&mut alloc_ok_lines, &mut panic_ok_lines, &mut safety_lines] {
                if set.contains(&a.end_line) {
                    set.extend(b.start_line..=b.end_line);
                }
            }
        }

        let mut model = FileModel {
            rel_path: rel_path.to_string(),
            toks,
            in_test,
            in_attr,
            code_lines,
            hot_marker_lines,
            cold_marker_lines,
            alloc_ok_lines,
            panic_ok_lines,
            safety_lines,
            file_hot,
            fns: Vec::new(),
        };
        model.scan_fns();
        model
    }

    /// Finds every `fn` item with a body and decides whether it is hot.
    fn scan_fns(&mut self) {
        let n = self.toks.len();
        let mut fns = Vec::new();
        for i in 0..n {
            if !self.toks[i].is_ident("fn") || self.in_attr[i] {
                continue;
            }
            let name = match self.toks.get(i + 1) {
                Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                _ => continue,
            };
            // First `{` before a `;` opens the body (a `;` means a
            // bodiless trait-method declaration).
            let mut body_open = None;
            let mut j = i + 2;
            while j < n {
                if self.toks[j].is_punct('{') {
                    body_open = Some(j);
                    break;
                }
                if self.toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            let Some(open) = body_open else { continue };
            let mut braces = 0i64;
            let mut close = open;
            while close < n {
                if self.toks[close].is_punct('{') {
                    braces += 1;
                } else if self.toks[close].is_punct('}') {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
                close += 1;
            }
            let kw_line = self.toks[i].line;
            let cold_marked = self.marker_applies(&self.cold_marker_lines, kw_line);
            let hot = if cold_marked {
                false
            } else {
                self.file_hot || self.marker_applies(&self.hot_marker_lines, kw_line)
            };
            let cold = cold_marked || self.has_cold_attr(i);
            fns.push(FnSpan { name, body: open..(close + 1).min(n), hot, cold });
        }
        self.fns = fns;
    }

    /// Is the `fn` keyword at token `i` preceded by a `#[cold]` attribute?
    /// Walks back over attributes and declaration modifiers (`pub(crate)`,
    /// `unsafe`, `const`, `async`, `extern`); anything else ends the item.
    fn has_cold_attr(&self, i: usize) -> bool {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &self.toks[j];
            if self.in_attr[j] {
                if t.is_ident("cold") {
                    return true;
                }
                continue;
            }
            let modifier = match t.kind {
                TokKind::Ident => matches!(
                    t.text.as_str(),
                    "pub"
                        | "crate"
                        | "super"
                        | "self"
                        | "in"
                        | "unsafe"
                        | "const"
                        | "async"
                        | "extern"
                ),
                TokKind::Punct(c) => c == '(' || c == ')',
                _ => false,
            };
            if !modifier {
                return false;
            }
        }
        false
    }

    /// A marker on line `l` applies to an item starting at `item_line`
    /// when every line strictly between them carries no code (comments,
    /// attributes, and blank lines are transparent).
    fn marker_applies(&self, markers: &HashSet<u32>, item_line: u32) -> bool {
        markers
            .iter()
            .any(|&l| l < item_line && (l + 1..item_line).all(|x| !self.code_lines.contains(&x)))
    }

    fn justified(&self, set: &HashSet<u32>, line: u32) -> bool {
        set.contains(&line) || (line > 1 && set.contains(&(line - 1)))
    }

    /// Binary targets (`src/main.rs`, `src/bin/*`) are exempt from the
    /// panic policy: a CLI aborting with a message is acceptable there.
    fn is_binary_target(&self) -> bool {
        self.rel_path.ends_with("src/main.rs") || self.rel_path.contains("/src/bin/")
    }

    fn ident_at(&self, i: usize, name: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_ident(name))
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(c))
    }

    /// `base :: name` ending at index `i` (the `name` token).
    fn path_call(&self, i: usize, base: &str) -> bool {
        i >= 3
            && self.punct_at(i - 1, ':')
            && self.punct_at(i - 2, ':')
            && self.ident_at(i - 3, base)
    }

    /// `.name(` or `.name::<…>(` at index `i` (the `name` token).
    fn method_call(&self, i: usize) -> bool {
        i >= 1
            && self.punct_at(i - 1, '.')
            && (self.punct_at(i + 1, '(') || self.punct_at(i + 1, ':'))
    }

    /// The innermost function whose body contains token `i`.
    fn enclosing_fn(&self, i: usize) -> Option<&FnSpan> {
        self.fns.iter().filter(|f| f.body.contains(&i)).min_by_key(|f| f.body.end - f.body.start)
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        out.push(Finding { file: self.rel_path.clone(), line, rule, message });
    }

    // --- rule 1: hot-path allocation ---------------------------------------
    fn check_hot_path_alloc(&self, out: &mut Vec<Finding>) {
        for f in &self.fns {
            // Constructors may allocate: the rule protects steady state,
            // and `new`/`with_*`/`default` run once at setup.
            if !f.hot || is_constructor(&f.name) {
                continue;
            }
            for i in f.body.clone() {
                if self.in_test[i] || self.in_attr[i] {
                    continue;
                }
                let t = &self.toks[i];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let what = match t.text.as_str() {
                    "collect" | "to_vec" | "clone" if self.method_call(i) => {
                        format!(".{}()", t.text)
                    }
                    "vec" if self.punct_at(i + 1, '!') => "vec![]".to_string(),
                    "format" if self.punct_at(i + 1, '!') => "format!".to_string(),
                    "new" if self.path_call(i, "Vec") => "Vec::new".to_string(),
                    "new" if self.path_call(i, "Box") => "Box::new".to_string(),
                    "from" if self.path_call(i, "String") => "String::from".to_string(),
                    _ => continue,
                };
                if self.justified(&self.alloc_ok_lines, t.line) {
                    continue;
                }
                self.push(
                    out,
                    RULE_HOT_PATH_ALLOC,
                    t.line,
                    format!(
                        "allocating call `{what}` in hot path `{}` (sanction with `// ALLOC: <why>` if intentional)",
                        f.name
                    ),
                );
            }
        }
    }

    // --- rule 2: atomic writes ---------------------------------------------
    fn check_atomic_write(&self, out: &mut Vec<Finding>) {
        if self.rel_path == ATOMIC_WRITE_EXEMPT {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test[i] || self.in_attr[i] || t.kind != TokKind::Ident {
                continue;
            }
            let what = match t.text.as_str() {
                "create" if self.path_call(i, "File") => "File::create",
                "write" if self.path_call(i, "fs") => "fs::write",
                "OpenOptions" => "OpenOptions",
                _ => continue,
            };
            self.push(
                out,
                RULE_ATOMIC_WRITE,
                t.line,
                format!(
                    "`{what}` outside {ATOMIC_WRITE_EXEMPT} — route artifact writes through geometry::io::write_atomic"
                ),
            );
        }
    }

    // --- rule 3: cached env reads ------------------------------------------
    fn check_env_read(&self, out: &mut Vec<Finding>) {
        let sanctioned = ENV_READ_SANCTIONED.contains(&self.rel_path.as_str());
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test[i] || self.in_attr[i] || t.kind != TokKind::Ident {
                continue;
            }
            if !t.text.starts_with("var") || !self.path_call(i, "env") {
                continue;
            }
            if sanctioned {
                // Sanctioned files must still read once: through a
                // `OnceLock::get_or_init` closure, or in a one-shot
                // constructor. Reverting the caching re-flags the site.
                let cached = self.enclosing_fn(i).is_some_and(|f| {
                    is_constructor(&f.name)
                        || self.toks[f.body.clone()].iter().any(|t| t.is_ident("get_or_init"))
                });
                if !cached {
                    self.push(
                        out,
                        RULE_ENV_READ,
                        t.line,
                        format!(
                            "`std::env::{}` in a sanctioned file must be read once via `OnceLock::get_or_init` (or a one-shot constructor)",
                            t.text
                        ),
                    );
                }
            } else {
                self.push(
                    out,
                    RULE_ENV_READ,
                    t.line,
                    format!(
                        "`std::env::{}` outside the sanctioned cached sites ({})",
                        t.text,
                        ENV_READ_SANCTIONED.join(", ")
                    ),
                );
            }
        }
    }

    // --- rule 4: panic policy ----------------------------------------------
    fn check_panic_policy(&self, out: &mut Vec<Finding>) {
        if self.is_binary_target() {
            return;
        }
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test[i] || self.in_attr[i] || t.kind != TokKind::Ident {
                continue;
            }
            let what = match t.text.as_str() {
                "unwrap" | "expect"
                    if i >= 1 && self.punct_at(i - 1, '.') && self.punct_at(i + 1, '(') =>
                {
                    format!(".{}()", t.text)
                }
                "panic" if self.punct_at(i + 1, '!') => "panic!".to_string(),
                _ => continue,
            };
            if self.justified(&self.panic_ok_lines, t.line) {
                continue;
            }
            self.push(
                out,
                RULE_PANIC_POLICY,
                t.line,
                format!(
                    "`{what}` in library code — propagate a Result or justify with `// PANIC: <why unreachable>`"
                ),
            );
        }
    }

    // --- rule 5: unsafe hygiene --------------------------------------------
    fn check_unsafe_safety(&self, out: &mut Vec<Finding>) {
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_attr[i] || !t.is_ident("unsafe") || !self.punct_at(i + 1, '{') {
                continue;
            }
            if self.justified(&self.safety_lines, t.line) {
                continue;
            }
            self.push(
                out,
                RULE_UNSAFE_SAFETY,
                t.line,
                "`unsafe` block without an adjacent `// SAFETY: <why sound>` comment".to_string(),
            );
        }
    }

    // --- rule 6: obs discipline --------------------------------------------
    //
    // Two failure modes of the instrumentation layer:
    //
    // * A span guard discarded at its own statement (`let _ = obs::span(…)`
    //   or a bare `obs::span(…);`) records an ~0 ns sample instead of the
    //   phase it was meant to cover — in particular it cannot survive a `?`
    //   or early return in the phase. Guards must be bound to a live
    //   binding (`let _sp = …`, underscore-prefixed names are fine) or
    //   consumed via `.finish()`.
    // * Metrics inside `#[cold]` / `// lint: cold` functions: error paths
    //   stay uninstrumented so failure handling never pays (or skews) the
    //   observability budget.
    fn check_obs(&self, out: &mut Vec<Finding>) {
        for (i, t) in self.toks.iter().enumerate() {
            if self.in_test[i] || self.in_attr[i] || t.kind != TokKind::Ident {
                continue;
            }
            if !(self.path_call(i, "obs") || self.path_call(i, "ganopc_obs")) {
                continue;
            }
            if let Some(f) = self.enclosing_fn(i) {
                if f.cold {
                    self.push(
                        out,
                        RULE_OBS,
                        t.line,
                        format!(
                            "obs recording inside cold fn `{}` — `#[cold]`/`// lint: cold` error paths stay uninstrumented",
                            f.name
                        ),
                    );
                    continue;
                }
            }
            if t.text == "span" && self.punct_at(i + 1, '(') && self.span_guard_discarded(i) {
                self.push(
                    out,
                    RULE_OBS,
                    t.line,
                    "span guard dropped at its own statement — bind it (`let _sp = obs::span(…)`) so the span covers the scope it measures"
                        .to_string(),
                );
            }
        }
    }

    /// Does the `obs::span(...)` call whose `span` token sits at `i` discard
    /// its guard immediately? True for `let _ = obs::span(…);` and for a
    /// bare statement `obs::span(…);` — both drop the guard at the `;`.
    fn span_guard_discarded(&self, i: usize) -> bool {
        // `let _ = …`: the wildcard pattern drops the guard at once.
        if i >= 6
            && self.ident_at(i - 6, "let")
            && self.ident_at(i - 5, "_")
            && self.punct_at(i - 4, '=')
        {
            return true;
        }
        // Bare statement: the path starts a statement and the call's close
        // paren is immediately followed by `;` (no binding, no method
        // chain, no surrounding expression).
        let starts_stmt = match i.checked_sub(4) {
            None => true,
            Some(b) => self.punct_at(b, ';') || self.punct_at(b, '{') || self.punct_at(b, '}'),
        };
        if !starts_stmt {
            return false;
        }
        let mut depth = 0i64;
        let mut k = i + 1;
        while k < self.toks.len() {
            if self.punct_at(k, '(') {
                depth += 1;
            } else if self.punct_at(k, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        self.punct_at(k + 1, ';')
    }
}

/// `#[test]`, `#[cfg(test)]`, and friends — but not `#[cfg(not(test))]`.
fn is_test_attr(inner: &[Tok]) -> bool {
    if inner.len() == 1 && inner[0].is_ident("test") {
        return true;
    }
    inner.windows(4).any(|w| {
        w[0].is_ident("cfg") && w[1].is_punct('(') && w[2].is_ident("test") && w[3].is_punct(')')
    })
}

/// One-shot setup functions exempt from the hot-path allocation rule.
fn is_constructor(name: &str) -> bool {
    name == "new"
        || name == "default"
        || name.starts_with("new_")
        || name.starts_with("with_")
        || name.starts_with("from_")
}
