//! The seven repo-specific lint rules.
//!
//! Each rule takes a scanned [`SourceFile`] and appends [`Violation`]s.
//! Rules are scoped to crate subsets (see [`lint_scope`]) chosen to match
//! where the failure mode bites: panics in solver hot paths, raw `f64`s in
//! physical interfaces, unguarded numerics at solver entry points,
//! undocumented public API in the foundation crates, order-unstable or
//! wall-clock-dependent constructs in replayable solver/opt code, bare
//! (poison-propagating) lock acquisitions on shared state, and silently
//! discarded `Result`s in solver code.

use crate::scan::SourceFile;

/// Lint: no `unwrap`/`expect`/`panic!`/`unreachable!` in solver crates.
pub const PANIC_FREE: &str = "panic-free-solvers";
/// Lint: physical quantities must use `coolnet-units` newtypes, not `f64`.
pub const UNIT_DISCIPLINE: &str = "unit-discipline";
/// Lint: solver/assembly entry points must guard against non-finite input.
pub const FINITE_GUARD: &str = "finite-guard";
/// Lint: public items in foundation crates must carry doc comments.
pub const DOC_COVERAGE: &str = "doc-coverage";
/// Lint: no order-unstable / wall-clock / unseeded-RNG constructs in
/// replayable solver and optimizer code.
pub const DETERMINISM: &str = "determinism";
/// Lint: lock acquisitions must tolerate poisoning
/// (`unwrap_or_else(|p| p.into_inner())` or an explicit `match`).
pub const SHARED_STATE: &str = "shared-state";
/// Lint: no silently discarded `Result`s in solver/flow/thermal code.
pub const ERROR_DISCIPLINE: &str = "error-discipline";

/// All lints, in reporting order.
pub const ALL_LINTS: [&str; 7] = [
    PANIC_FREE,
    UNIT_DISCIPLINE,
    FINITE_GUARD,
    DOC_COVERAGE,
    DETERMINISM,
    SHARED_STATE,
    ERROR_DISCIPLINE,
];

/// How a lint's regressions affect the analyzer's exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A regression past baseline fails the run.
    Error,
    /// A regression is reported loudly but only fails the run under
    /// `--deny-warnings` (CI and the tier-1 self-check both deny).
    Warning,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// The severity of each lint. Everything that can corrupt results or wedge
/// a shared substrate is an error; style-level lints are warnings.
pub fn severity(lint: &str) -> Severity {
    match lint {
        DOC_COVERAGE => Severity::Warning,
        _ => Severity::Error,
    }
}

/// One-line description of a lint (shown in reports and `--format json`).
pub fn describe(lint: &str) -> &'static str {
    match lint {
        PANIC_FREE => "no unwrap/expect/panic!/unreachable! in solver crates",
        UNIT_DISCIPLINE => "physical quantities use coolnet-units newtypes, not bare f64",
        FINITE_GUARD => "solve*/assemble* entry points guard against non-finite input",
        DOC_COVERAGE => "public items in foundation crates carry doc comments",
        DETERMINISM => {
            "no order-unstable, wall-clock or unseeded-RNG constructs in solver/opt code"
        }
        SHARED_STATE => "lock acquisitions tolerate poisoning instead of propagating it",
        ERROR_DISCIPLINE => "no silently discarded Results in solver/flow/thermal code",
        _ => "unknown lint",
    }
}

/// Long-form rationale and fix guidance for `--explain <lint>`.
pub fn explain(lint: &str) -> &'static str {
    match lint {
        PANIC_FREE => {
            "\
A stray panic in the hydraulic solver, a thermal model or the SA search
aborts a whole optimization run (or, inside a worker, silently costs a
candidate). Solver crates must propagate typed errors instead.
Fix: return the crate's error type; for infallible-by-invariant cases use
a total rewrite (`map_or`, `let .. else`) or justify the invariant with
`// analyze:allow(panic-free-solvers)`."
        }
        UNIT_DISCIPLINE => {
            "\
Bare `f64` parameters named like physical quantities (pressure, width,
flow, ...) invite unit mix-ups — exactly the class of bug the grouped
objective fix in PR 5 removed. Public interfaces must use the
`coolnet-units` newtypes (Pascal, Kelvin, Watt, Meters).
Fix: change the signature to the newtype; convert at the boundary."
        }
        FINITE_GUARD => {
            "\
NaNs entering a solver propagate silently and corrupt entire runs. Every
`pub fn solve*` / `pub fn assemble*` must validate its numeric input,
directly (`is_finite`) or via a named validator (`check_*`, `ensure_*`,
`valid*`).
Fix: add a finiteness guard at entry, or route through `resilience::solve`,
which guards inline."
        }
        DOC_COVERAGE => {
            "\
The foundation crates (units, sparse, core, obs) are the workspace's
public API surface; undocumented items rot fastest. Every `pub` item
needs a doc comment.
Fix: add `///` above the item (attributes in between are fine)."
        }
        DETERMINISM => {
            "\
A design query must be bit-for-bit replayable: job spec + seed must give
an identical DesignResult (the two-step evaluation of the source paper
only reproduces under that contract, and the eval-cache transparency
tests pin it). The contract now reaches end to end: generated-case specs
(coolnet-cases) must expand identically everywhere and corpus-fed jobs
(coolnet-serve) must replay, so those crates are in scope alongside the
solvers. This lint flags constructs whose behavior can differ
between runs in non-test solver/opt code: std HashMap/HashSet (iteration
and drain order are randomized per process), wall-clock reads
(Instant::now / SystemTime) feeding values, and unseeded RNG construction
(thread_rng, from_entropy, OsRng).
Fix: key ordered state on BTreeMap, derive RNGs from the job seed
(StdRng::seed_from_u64), and keep wall-clock reads in bench/obs code. If
order provably cannot leak into results, document why at the site and add
`// analyze:allow(determinism)`."
        }
        SHARED_STATE => {
            "\
The EvalCache and the evaluation pool (`opt::pool::Pool`) are shared
across worker threads and, in coolnet-serve, across concurrent jobs. A bare
`.lock().unwrap()` turns one absorbed worker panic into a poisoned mutex
that wedges every later user of the shared state. All lock acquisitions
outside tests must tolerate poisoning:
`lock().unwrap_or_else(|p| p.into_inner())` or an explicit match (the
idiom already used by obs, sparse::resilience and the eval cache).
The analyzer additionally inventories every Mutex/RwLock/atomic/static
site across the workspace into the `shared_state` section of
`--format json` — the seed artifact for the coolnet-serve Send+Sync
audit.
Fix: replace `.lock().unwrap()` with the poison-tolerant idiom."
        }
        ERROR_DISCIPLINE => {
            "\
`let _ = fallible_call(...)` and statement-final `.ok();` silence errors
that solver, flow and thermal code must surface — a dropped solve failure
turns into a wrong design, not a crash. This lint flags both discard
shapes outside tests. Chained uses (`.ok()?`, `.ok().map(...)`) convert
rather than discard and are not flagged.
Fix: handle or propagate the error; when a discard is deliberate (e.g.
crossbeam scope results whose only error is a worker panic that is
already absorbed or resumed), document why and add
`// analyze:allow(error-discipline)`."
        }
        _ => "unknown lint",
    }
}

/// One finding, pointing at a workspace-relative `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired (one of [`ALL_LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative source path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.lint, self.message
        )
    }
}

/// The crate directory names (under `crates/`) a lint applies to.
pub fn lint_scope(lint: &str) -> &'static [&'static str] {
    match lint {
        PANIC_FREE => &["sparse", "flow", "thermal", "opt"],
        UNIT_DISCIPLINE => &["flow", "thermal", "network"],
        FINITE_GUARD => &["sparse", "flow", "thermal", "opt"],
        // `cases` earns its place with the scenario engine: preset specs
        // and floorplan generators are user-facing API now.
        DOC_COVERAGE => &["units", "sparse", "core", "obs", "cases"],
        // Everything that feeds a replayable DesignResult: the solvers,
        // the models, the network builders, the optimizer — and, since
        // the generated-case corpus and corpus-fed jobs became part of
        // the replay contract, the case generators and the job service.
        // bench and obs are deliberately out of scope (wall-clock is
        // their job).
        DETERMINISM => &[
            "sparse", "flow", "thermal", "opt", "network", "cases", "serve",
        ],
        // Lock discipline applies workspace-wide: any crate can hold
        // state shared across SA workers or future concurrent jobs.
        SHARED_STATE => &[
            "analyze", "bench", "cases", "core", "flow", "grid", "network", "obs", "opt", "serve",
            "sparse", "thermal", "units",
        ],
        ERROR_DISCIPLINE => &["sparse", "flow", "thermal", "opt"],
        _ => &[],
    }
}

/// Runs every lint whose scope covers `crate_dir` (e.g. `"thermal"`) over
/// one scanned file, appending findings to `out`.
pub fn check_file(crate_dir: &str, file: &SourceFile, out: &mut Vec<Violation>) {
    if lint_scope(PANIC_FREE).contains(&crate_dir) {
        panic_free(file, out);
    }
    if lint_scope(UNIT_DISCIPLINE).contains(&crate_dir) {
        unit_discipline(file, out);
    }
    if lint_scope(FINITE_GUARD).contains(&crate_dir) {
        finite_guard(file, out);
    }
    if lint_scope(DOC_COVERAGE).contains(&crate_dir) {
        doc_coverage(file, out);
    }
    if lint_scope(DETERMINISM).contains(&crate_dir) {
        determinism(file, out);
    }
    if lint_scope(SHARED_STATE).contains(&crate_dir) {
        shared_state(file, out);
    }
    if lint_scope(ERROR_DISCIPLINE).contains(&crate_dir) {
        error_discipline(file, out);
    }
}

/// Panic-prone tokens and the message each one earns.
const PANIC_TOKENS: [(&str, &str); 4] = [
    (
        ".unwrap()",
        "`.unwrap()` in solver code; propagate an error instead",
    ),
    (
        ".expect(",
        "`.expect(...)` in solver code; propagate an error instead",
    ),
    ("panic!", "`panic!` in solver code; return an error instead"),
    (
        "unreachable!",
        "`unreachable!` in solver code; make the invariant a typed error",
    ),
];

/// `panic-free-solvers`: flags panic-prone tokens outside `#[cfg(test)]`.
pub fn panic_free(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let line_no = idx + 1;
        for (token, message) in PANIC_TOKENS {
            if contains_token(&line.code, token) && !file.allows(line_no, PANIC_FREE) {
                out.push(Violation {
                    lint: PANIC_FREE,
                    path: file.path.clone(),
                    line: line_no,
                    message: message.to_string(),
                });
            }
        }
    }
}

/// Parameter-name fragments that denote physical quantities.
const QUANTITY_WORDS: [&str; 7] = [
    "pressure",
    "temperature",
    "temp",
    "width",
    "flow",
    "power",
    "head",
];

/// `unit-discipline`: flags `pub fn` parameters typed bare `f64` whose
/// names denote physical quantities that `coolnet-units` wraps.
pub fn unit_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, sig) in signatures(file) {
        let Some(params) = param_list(&sig) else {
            continue;
        };
        for param in split_top_level(&params) {
            let Some((name, ty)) = param.split_once(':') else {
                continue;
            };
            let name = name.trim().trim_start_matches("mut ").trim();
            let ty = ty.trim();
            if ty != "f64" {
                continue;
            }
            let named_quantity = name
                .split('_')
                .any(|seg| QUANTITY_WORDS.contains(&seg.to_ascii_lowercase().as_str()));
            if named_quantity && !file.allows(idx + 1, UNIT_DISCIPLINE) {
                out.push(Violation {
                    lint: UNIT_DISCIPLINE,
                    path: file.path.clone(),
                    line: idx + 1,
                    message: format!(
                        "public parameter `{name}: f64` names a physical quantity; \
                         use the coolnet-units newtype"
                    ),
                });
            }
        }
    }
}

/// Substrings accepted as evidence of a finite/validity guard in a body.
const GUARD_HINTS: [&str; 6] = [
    "is_finite",
    "is_nan",
    "assert",
    "valid",
    "check_",
    "ensure_",
];

/// `finite-guard`: `pub fn solve*` / `pub fn assemble*` must contain a
/// finiteness or validity check (directly or by calling a validator).
pub fn finite_guard(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, sig) in signatures(file) {
        let Some(name) = fn_name(&sig) else {
            continue;
        };
        if !(name.starts_with("solve") || name.starts_with("assemble")) {
            continue;
        }
        let Some(body) = body_lines(file, idx) else {
            continue; // bodiless trait method
        };
        let guarded = body
            .iter()
            .any(|l| GUARD_HINTS.iter().any(|h| l.contains(h)));
        if !guarded && !file.allows(idx + 1, FINITE_GUARD) {
            out.push(Violation {
                lint: FINITE_GUARD,
                path: file.path.clone(),
                line: idx + 1,
                message: format!(
                    "entry point `{name}` has no finiteness/validity guard; \
                     assert inputs are finite or call a validator"
                ),
            });
        }
    }
}

/// Item keywords that `doc-coverage` cares about after `pub `.
const DOC_ITEMS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// `doc-coverage`: public items must be preceded by a doc comment
/// (attributes in between are skipped).
pub fn doc_coverage(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim_start();
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let Some(keyword) = rest.split_whitespace().next() else {
            continue;
        };
        // `pub async fn` / `pub unsafe fn` — look one word further.
        let keyword = if keyword == "async" || keyword == "unsafe" {
            rest.split_whitespace().nth(1).unwrap_or(keyword)
        } else {
            keyword
        };
        if !DOC_ITEMS.contains(&keyword) {
            continue;
        }
        if !has_doc_above(file, idx) && !file.allows(idx + 1, DOC_COVERAGE) {
            out.push(Violation {
                lint: DOC_COVERAGE,
                path: file.path.clone(),
                line: idx + 1,
                message: format!("public {keyword} is missing a doc comment"),
            });
        }
    }
}

/// Order-unstable / wall-clock / unseeded-RNG tokens and their messages.
const DETERMINISM_TOKENS: [(&str, &str); 6] = [
    (
        "HashMap",
        "std HashMap order is unstable across runs; use BTreeMap for ordered state, \
         or document why order cannot leak into results and allow",
    ),
    (
        "HashSet",
        "std HashSet order is unstable across runs; use BTreeSet, or document why \
         order cannot leak into results and allow",
    ),
    (
        "Instant::now",
        "wall-clock read in replayable solver/opt code; timing belongs in bench/obs",
    ),
    (
        "SystemTime",
        "wall-clock read in replayable solver/opt code; timing belongs in bench/obs",
    ),
    (
        "thread_rng",
        "unseeded RNG; derive the generator from the job seed (StdRng::seed_from_u64)",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG; derive the generator from the job seed \
         (StdRng::seed_from_u64)",
    ),
];

/// `determinism`: flags order-unstable constructs, wall-clock reads and
/// unseeded RNG construction outside `#[cfg(test)]`.
pub fn determinism(file: &SourceFile, out: &mut Vec<Violation>) {
    token_lint(file, out, DETERMINISM, &DETERMINISM_TOKENS);
}

/// Poison-propagating lock acquisitions and their messages.
const SHARED_STATE_TOKENS: [(&str, &str); 6] = [
    (
        ".lock().unwrap()",
        "bare lock(): a poisoned mutex wedges every later user; use \
         `.lock().unwrap_or_else(|p| p.into_inner())`",
    ),
    (
        ".lock().expect(",
        "bare lock(): a poisoned mutex wedges every later user; use \
         `.lock().unwrap_or_else(|p| p.into_inner())`",
    ),
    (
        ".read().unwrap()",
        "bare read(): a poisoned RwLock wedges every later reader; use \
         `.read().unwrap_or_else(|p| p.into_inner())`",
    ),
    (
        ".read().expect(",
        "bare read(): a poisoned RwLock wedges every later reader; use \
         `.read().unwrap_or_else(|p| p.into_inner())`",
    ),
    (
        ".write().unwrap()",
        "bare write(): a poisoned RwLock wedges every later writer; use \
         `.write().unwrap_or_else(|p| p.into_inner())`",
    ),
    (
        ".write().expect(",
        "bare write(): a poisoned RwLock wedges every later writer; use \
         `.write().unwrap_or_else(|p| p.into_inner())`",
    ),
];

/// `shared-state`: flags lock acquisitions that propagate poisoning
/// outside `#[cfg(test)]`. (The matching workspace-wide *inventory* of
/// shared-state sites lives in [`crate::inventory`].)
pub fn shared_state(file: &SourceFile, out: &mut Vec<Violation>) {
    token_lint(file, out, SHARED_STATE, &SHARED_STATE_TOKENS);
}

/// `error-discipline`: flags `let _ = call(...)` and statement-final
/// `.ok();` — both silently discard a potential `Result` — outside
/// `#[cfg(test)]`. Chained `.ok()` (`.ok()?`, `.ok().map(..)`) converts
/// rather than discards and is not flagged.
pub fn error_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let line_no = idx + 1;
        if file.allows(line_no, ERROR_DISCIPLINE) {
            continue;
        }
        if contains_token(&line.code, ".ok();") {
            out.push(Violation {
                lint: ERROR_DISCIPLINE,
                path: file.path.clone(),
                line: line_no,
                message: "statement-final `.ok();` discards an error; handle or propagate it"
                    .to_string(),
            });
        }
        // `let _ = <call>`: only flag when the right-hand side is a call
        // (contains `(`) — `let _ = x;` silences an unused binding, which
        // is noise, not a discarded Result.
        if let Some(pos) = find_token(&line.code, "let _ =") {
            if line.code[pos..].contains('(') {
                out.push(Violation {
                    lint: ERROR_DISCIPLINE,
                    path: file.path.clone(),
                    line: line_no,
                    message: "`let _ =` discards a call result; bind and handle it \
                              (or justify with an allow)"
                        .to_string(),
                });
            }
        }
    }
}

/// Shared body of the token-matching lints: flags every listed token on
/// non-test lines not covered by an allow escape.
fn token_lint(
    file: &SourceFile,
    out: &mut Vec<Violation>,
    lint: &'static str,
    tokens: &[(&str, &str)],
) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let line_no = idx + 1;
        for (token, message) in tokens {
            if contains_token(&line.code, token) && !file.allows(line_no, lint) {
                out.push(Violation {
                    lint,
                    path: file.path.clone(),
                    line: line_no,
                    message: message.to_string(),
                });
            }
        }
    }
}

/// Walks upward over attribute lines; true if a `///` or `#[doc` precedes.
fn has_doc_above(file: &SourceFile, item_idx: usize) -> bool {
    let mut i = item_idx;
    while i > 0 {
        i -= 1;
        let line = &file.lines[i];
        let raw = line.raw.trim_start();
        if raw.starts_with("///") || raw.starts_with("#[doc") {
            return true;
        }
        let code = line.code.trim();
        // Skip attributes (possibly multi-line: continuation lines end in
        // `]` or are fully bracketed expressions inside the attribute).
        if code.starts_with("#[") || code.ends_with(")]") || code.ends_with("]") {
            continue;
        }
        return false;
    }
    false
}

/// Yields `(line_index, signature_text)` for every non-test `pub fn`,
/// joining lines until the parameter list closes.
fn signatures(file: &SourceFile) -> Vec<(usize, String)> {
    let mut sigs = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim_start();
        let is_pub_fn = trimmed.starts_with("pub fn ")
            || trimmed.starts_with("pub async fn ")
            || trimmed.starts_with("pub unsafe fn ");
        if !is_pub_fn {
            continue;
        }
        let mut sig = String::new();
        let mut depth = 0i32;
        let mut opened = false;
        'join: for l in &file.lines[idx..idx + 24.min(file.lines.len() - idx)] {
            for c in l.code.chars() {
                sig.push(c);
                match c {
                    '(' => {
                        depth += 1;
                        opened = true;
                    }
                    ')' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            // Keep the rest of this line (return type, `{`).
                        }
                    }
                    '{' | ';' if opened && depth == 0 => break 'join,
                    _ => {}
                }
            }
            sig.push(' ');
            if opened && depth == 0 && (sig.contains('{') || sig.contains(';')) {
                break;
            }
        }
        sigs.push((idx, sig));
    }
    sigs
}

/// Extracts a function's name from its signature text.
fn fn_name(sig: &str) -> Option<String> {
    let after = sig.split("fn ").nth(1)?;
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Extracts the parenthesized parameter list from a signature.
fn param_list(sig: &str) -> Option<String> {
    let open = sig.find('(')?;
    let mut depth = 0i32;
    for (i, c) in sig[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(sig[open + 1..open + i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits `params` on commas not nested inside `<>`, `()`, or `[]`.
fn split_top_level(params: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in params.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// Returns the code lines of the function body starting at `fn_idx`, or
/// `None` for bodiless declarations.
fn body_lines(file: &SourceFile, fn_idx: usize) -> Option<Vec<String>> {
    let mut depth = 0i32;
    let mut opened = false;
    let mut body = Vec::new();
    for line in &file.lines[fn_idx..] {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                ';' if !opened && depth == 0 => return None,
                _ => {}
            }
        }
        if opened {
            body.push(line.code.clone());
        }
        if opened && depth <= 0 {
            return Some(body);
        }
    }
    Some(body)
}

/// Substring search requiring the match to start at a token boundary.
/// Tokens starting with `.` need no boundary (the receiver precedes them);
/// word-like tokens must not be the tail of a longer identifier.
fn contains_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

/// Like [`contains_token`], but returns the byte offset of the first
/// boundary-respecting match.
fn find_token(code: &str, token: &str) -> Option<usize> {
    if token.starts_with('.') {
        return code.find(token);
    }
    let mut start = 0;
    while let Some(pos) = code[start..].find(token) {
        let abs = start + pos;
        let boundary = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return Some(abs);
        }
        start = abs + token.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> SourceFile {
        SourceFile::parse("fixture.rs", src)
    }

    fn run(rule: fn(&SourceFile, &mut Vec<Violation>), src: &str) -> Vec<Violation> {
        let file = scan(src);
        let mut out = Vec::new();
        rule(&file, &mut out);
        out
    }

    // -- panic-free-solvers ------------------------------------------------

    #[test]
    fn panic_free_flags_unwrap_outside_tests() {
        let v = run(panic_free, "pub fn f() { x.unwrap(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].lint, PANIC_FREE);
    }

    #[test]
    fn panic_free_ignores_tests_comments_and_unwrap_or() {
        let src = "\
// a panic! in a comment\n\
let s = \"panic!\";\n\
let x = y.unwrap_or(0);\n\
#[cfg(test)]\n\
mod tests {\n\
    fn t() { z.unwrap(); panic!(); }\n\
}\n";
        assert!(run(panic_free, src).is_empty());
    }

    #[test]
    fn panic_free_honors_allow_escape() {
        let src = "x.unwrap(); // analyze:allow(panic-free-solvers)\n\
                   // analyze:allow(panic-free-solvers)\n\
                   y.expect(\"msg\");\n";
        assert!(run(panic_free, src).is_empty());
    }

    // -- unit-discipline ---------------------------------------------------

    #[test]
    fn unit_discipline_flags_bare_f64_quantities() {
        let v = run(
            unit_discipline,
            "pub fn set(pressure_drop: f64, n: usize) {}",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("pressure_drop"));
    }

    #[test]
    fn unit_discipline_accepts_newtypes_and_neutral_names() {
        let src = "pub fn set(pressure: Pascal, ratio: f64, widths: &WidthMap) {}\n\
                   fn private(width: f64) {}\n";
        assert!(run(unit_discipline, src).is_empty());
    }

    #[test]
    fn unit_discipline_honors_allow_escape() {
        let src = "// analyze:allow(unit-discipline)\n\
                   pub fn raw(temperature: f64) {}\n";
        assert!(run(unit_discipline, src).is_empty());
    }

    #[test]
    fn unit_discipline_handles_multiline_signatures() {
        let src = "pub fn set(\n    flow_rate: f64,\n) {}\n";
        let v = run(unit_discipline, src);
        assert_eq!(v.len(), 1);
    }

    // -- finite-guard ------------------------------------------------------

    #[test]
    fn finite_guard_flags_unguarded_solver() {
        let v = run(
            finite_guard,
            "pub fn solve_fast(b: &[f64]) -> Vec<f64> {\n    b.to_vec()\n}\n",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("solve_fast"));
    }

    #[test]
    fn finite_guard_accepts_guarded_and_non_entry_fns() {
        let src = "pub fn solve(b: &[f64]) {\n    assert!(b.iter().all(|x| x.is_finite()));\n}\n\
                   pub fn assemble_matrix(&self) {\n    self.validate();\n}\n\
                   pub fn helper() {}\n";
        assert!(run(finite_guard, src).is_empty());
    }

    #[test]
    fn finite_guard_honors_allow_escape() {
        let src = "// analyze:allow(finite-guard)\n\
                   pub fn solve_raw(b: &[f64]) {\n    drop(b);\n}\n";
        assert!(run(finite_guard, src).is_empty());
    }

    // -- doc-coverage ------------------------------------------------------

    #[test]
    fn doc_coverage_flags_undocumented_pub_items() {
        let v = run(doc_coverage, "pub struct Bare;\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("struct"));
    }

    #[test]
    fn doc_coverage_accepts_documented_and_private_items() {
        let src = "/// Documented.\npub struct Ok;\n\
                   /// Documented too.\n#[derive(Debug)]\npub enum E { A }\n\
                   struct Private;\n\
                   pub(crate) fn internal() {}\n";
        assert!(run(doc_coverage, src).is_empty());
    }

    #[test]
    fn doc_coverage_honors_allow_escape() {
        let src = "// analyze:allow(doc-coverage)\npub fn undocumented() {}\n";
        assert!(run(doc_coverage, src).is_empty());
    }

    // -- determinism -------------------------------------------------------

    #[test]
    fn determinism_flags_hash_collections_and_clocks() {
        let src = "use std::collections::HashMap;\n\
                   let t = Instant::now();\n\
                   let mut rng = rand::thread_rng();\n";
        let v = run(determinism, src);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|f| f.lint == DETERMINISM));
        assert!(v[0].message.contains("BTreeMap"));
        assert!(v[1].message.contains("wall-clock"));
        assert!(v[2].message.contains("seed"));
    }

    #[test]
    fn determinism_ignores_tests_comments_and_longer_idents() {
        let src = "// HashMap in a comment\n\
                   let s = \"HashSet\";\n\
                   struct MyHashMap;\n\
                   let m: MyHashMap = MyHashMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       fn t() { let _t = Instant::now(); }\n\
                   }\n";
        assert!(run(determinism, src).is_empty());
    }

    #[test]
    fn determinism_honors_allow_escape() {
        let src = "// analyze:allow(determinism)\n\
                   type Map<K, V> = std::collections::HashMap<K, V>;\n";
        assert!(run(determinism, src).is_empty());
    }

    #[test]
    fn determinism_scope_covers_case_generators_and_job_service() {
        // Regression for the RNG-stability bug: `floorplan::synthetic`
        // shipped on `rand::StdRng` while this lint's scope skipped
        // `cases`, so a swap to `thread_rng()` (or a rand upgrade
        // changing the stream) would never have been flagged even though
        // generated power maps are part of the replay contract. The same
        // held for `serve`, whose job specs now embed generated cases.
        let injected = scan("let mut rng = rand::thread_rng();\n");
        for crate_dir in ["cases", "serve"] {
            let mut out = Vec::new();
            check_file(crate_dir, &injected, &mut out);
            assert!(
                out.iter().any(|v| v.lint == DETERMINISM),
                "thread_rng in `{crate_dir}` must be flagged"
            );
        }
        // bench stays out of scope: wall-clock and ad-hoc RNG are its job.
        let mut out = Vec::new();
        check_file("bench", &injected, &mut out);
        assert!(out.iter().all(|v| v.lint != DETERMINISM));
    }

    // -- shared-state ------------------------------------------------------

    #[test]
    fn shared_state_flags_bare_lock_acquisitions() {
        let src = "let g = state.lock().unwrap();\n\
                   let r = map.read().expect(\"rw\");\n\
                   let w = map.write().unwrap();\n";
        let v = run(shared_state, src);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|f| f.lint == SHARED_STATE));
        assert!(v[0].message.contains("into_inner"));
    }

    #[test]
    fn shared_state_accepts_poison_tolerant_idiom_and_tests() {
        let src = "let g = state.lock().unwrap_or_else(|p| p.into_inner());\n\
                   let g = match state.lock() { Ok(g) => g, Err(p) => p.into_inner() };\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let g = state.lock().unwrap(); drop(g); }\n\
                   }\n";
        assert!(run(shared_state, src).is_empty());
    }

    #[test]
    fn shared_state_honors_allow_escape() {
        let src = "// analyze:allow(shared-state)\n\
                   let g = state.lock().unwrap();\n";
        assert!(run(shared_state, src).is_empty());
    }

    // -- error-discipline --------------------------------------------------

    #[test]
    fn error_discipline_flags_discarded_results() {
        let src = "let _ = do_work(input);\n\
                   sender.send(msg).ok();\n";
        let v = run(error_discipline, src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|f| f.lint == ERROR_DISCIPLINE));
    }

    #[test]
    fn error_discipline_ignores_conversions_bindings_and_tests() {
        let src = "let _ = unused_binding;\n\
                   let idx = xs.binary_search(&k).ok().map(|i| i + 1);\n\
                   let v = parse(s).ok()?;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let _ = do_work(input); sender.send(msg).ok(); }\n\
                   }\n";
        assert!(run(error_discipline, src).is_empty());
    }

    #[test]
    fn error_discipline_honors_allow_escape() {
        let src = "// analyze:allow(error-discipline)\n\
                   let _ = crossbeam::scope(|s| run(s));\n";
        assert!(run(error_discipline, src).is_empty());
    }

    // -- metadata ----------------------------------------------------------

    #[test]
    fn every_lint_has_metadata_and_scope() {
        for lint in ALL_LINTS {
            assert!(!lint_scope(lint).is_empty(), "{lint} has no scope");
            assert_ne!(describe(lint), "unknown lint", "{lint} lacks describe()");
            assert_ne!(explain(lint), "unknown lint", "{lint} lacks explain()");
        }
        assert_eq!(severity(DOC_COVERAGE), Severity::Warning);
        assert_eq!(severity(DETERMINISM), Severity::Error);
        assert_eq!(severity(SHARED_STATE), Severity::Error);
    }
}
