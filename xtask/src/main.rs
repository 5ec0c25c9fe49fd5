//! Workspace task runner.
//!
//! `cargo xtask lint` is the repo-invariant half of the static-analysis story:
//! the launch-plan verifier (`turbofno::verify`) proves runtime plans safe,
//! and this pass proves the *source* keeps the conventions those proofs rely
//! on. Six rules:
//!
//! - **lock-discipline**: no `.lock().unwrap()` / `.lock().expect(` outside
//!   the poison-recovery helpers in `crates/gpu-sim/src/exec.rs`
//!   (`lock_unpoisoned` / `wait_unpoisoned`). A caught panic in one launch
//!   thread must never wedge every later lock acquisition.
//! - **invariant-comment**: inside `fn try_*` bodies of the hot-path files
//!   (`session.rs`, `device.rs`, `exec.rs`), every `.unwrap()` / `.expect(`
//!   must carry an `// INVARIANT:` comment within the 3 lines above it,
//!   stating why the failure is impossible rather than a recoverable error.
//! - **no-panic-in-try**: `panic!(` inside any `fn try_*` body is forbidden —
//!   `try_*` is the fallible surface; it reports through `Result`. An
//!   `// INVARIANT:` comment within 3 lines marks a deliberate exception.
//! - **bench-ci-coverage**: every `harness = false` `[[bench]]` target in
//!   `crates/*/Cargo.toml` must be compiled by CI, either via a blanket
//!   `cargo bench --no-run` step or by naming the target in the workflow.
//! - **backend-isolation**: `crates/core` sees the execution device only
//!   through the `Backend` trait. Outside the adapter module
//!   (`backend.rs`) and the sim-specific kernel builders (`fused.rs`,
//!   `swizzle.rs`, `fused_tests.rs`), core source must not name
//!   `tfno_gpu_sim` or `GpuDevice` — new code goes through the trait so
//!   every backend benefits.
//! - **rank-isolation**: the engine and the baseline are rank-generic
//!   (`SpectralShape`); rank-suffixed twin entry points (`fn *_1d` /
//!   `fn *_2d` / `fn *_3d`) in `crates/core/src` and `crates/culib/src`
//!   are forbidden, with nothing grandfathered — add a rank-generic path
//!   instead of re-growing the per-rank twins that were collapsed. Other
//!   crates keep rank-specific code where the rank is the point (the 1D/2D
//!   field generators in `crates/fno/src/pde.rs`, the per-rank figure
//!   drivers).
//!
//! Test code (`#[cfg(test)] mod` regions) is exempt from the source rules:
//! tests assert invariants by panicking on purpose.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!(
                "usage: cargo xtask lint\n  (got: {})",
                other.unwrap_or("<no command>")
            );
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR points at xtask/ when run through cargo; the
    // workspace root is its parent. Fall back to cwd for direct invocation.
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).parent().unwrap_or(Path::new(".")).to_path_buf(),
        None => PathBuf::from("."),
    }
}

#[derive(Debug)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut findings = Vec::new();

    for file in rust_sources(&root) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        lint_source(&root, &file, &text, &mut findings);
        lint_backend_isolation(&root, &file, &text, &mut findings);
    }
    lint_bench_coverage(&root, &mut findings);

    if findings.is_empty() {
        println!("xtask lint: clean");
        return ExitCode::SUCCESS;
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    for f in &findings {
        eprintln!(
            "{}:{}: [{}] {}",
            f.file.strip_prefix(&root).unwrap_or(&f.file).display(),
            f.line,
            f.rule,
            f.message
        );
    }
    eprintln!("xtask lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

/// All first-party `.rs` files: crate sources, the umbrella crate, tests,
/// examples, and xtask itself. Vendored crates and build output are skipped —
/// we lint our code, not our dependencies.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "vendor" || name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Replaces the contents of comments and string/char literals with spaces,
/// preserving line structure, so that pattern matches and brace counting only
/// ever see real code. Comment text is inspected separately from the raw
/// lines (that is where `// INVARIANT:` markers live).
fn sanitize(text: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let b: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '"' => {
                    st = St::Str;
                    out.push('"');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a literal is '<c>' or '\<esc>'.
                    let is_char = next == Some('\\')
                        || (b.get(i + 2) == Some(&'\'') && next != Some('\''));
                    if is_char {
                        st = St::Char;
                        out.push('\'');
                    } else {
                        out.push('\'');
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                } else {
                    out.push(' ');
                }
            }
            St::Str => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    if b.get(i - 1) == Some(&'\n') {
                        // Escaped newline: keep line structure intact.
                        out.pop();
                        out.pop();
                        out.push_str(" \n");
                    }
                    continue;
                }
                '"' => {
                    st = St::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                    out.push(' ');
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Char => match c {
                '\\' => {
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                '\'' => {
                    st = St::Code;
                    out.push('\'');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// True when `raw_lines[line]` or any of the 3 lines above it carries an
/// `// INVARIANT:` comment justifying the flagged construct.
fn has_invariant_comment(raw_lines: &[&str], line: usize) -> bool {
    let lo = line.saturating_sub(3);
    raw_lines[lo..=line]
        .iter()
        .any(|l| l.contains("// INVARIANT:"))
}

/// Files whose `fn try_*` bodies are held to the invariant-comment rule for
/// `.unwrap()` / `.expect(` — the session/device/exec hot paths every
/// request runs through, where a stray panic fails the caller's request.
fn is_hot_path_file(file: &Path) -> bool {
    matches!(
        file.file_name().and_then(|n| n.to_str()),
        Some("session.rs" | "device.rs" | "exec.rs")
    )
}

/// The one file allowed to spell `.lock().unwrap()`: it defines the
/// poison-recovery wrappers everything else must use.
fn is_lock_helper_file(root: &Path, file: &Path) -> bool {
    file.strip_prefix(root)
        .map(|p| p == Path::new("crates/gpu-sim/src/exec.rs"))
        .unwrap_or(false)
}

fn lint_source(root: &Path, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let sanitized = sanitize(text);
    let code_lines: Vec<&str> = sanitized.lines().collect();
    let raw_lines: Vec<&str> = text.lines().collect();

    let hot_path = is_hot_path_file(file);
    let lock_exempt = is_lock_helper_file(root, file);
    let rank_scope = rank_isolation_scope(root, file);

    let mut depth: i64 = 0;
    // Depth at which a `#[cfg(test)]` item's body opened; everything inside
    // is exempt from the source rules.
    let mut test_open: Option<i64> = None;
    let mut pending_test = false;
    // Depths at which `fn try_*` bodies opened (supports nested items).
    let mut try_stack: Vec<i64> = Vec::new();
    let mut pending_try = false;

    for (idx, line) in code_lines.iter().enumerate() {
        let in_test = test_open.is_some();
        if !in_test {
            if line.contains("#[cfg(test)]") {
                pending_test = true;
            }
            if contains_try_fn_decl(line) {
                pending_try = true;
            }

            let lineno = idx + 1;
            if !lock_exempt
                && (line.contains(".lock().unwrap()") || line.contains(".lock().expect("))
            {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "lock-discipline",
                    message: "use lock_unpoisoned()/wait_unpoisoned() instead of \
                              .lock().unwrap(): poisoned locks must recover, not cascade"
                        .into(),
                });
            }
            let in_try = !try_stack.is_empty();
            if hot_path
                && in_try
                && (line.contains(".unwrap()") || line.contains(".expect("))
                && !line.contains(".lock().unwrap()")
                && !line.contains(".lock().expect(")
                && !has_invariant_comment(&raw_lines, idx)
            {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "invariant-comment",
                    message: "unwrap/expect in a try_* hot path needs an \
                              `// INVARIANT:` comment within 3 lines explaining \
                              why it cannot fire"
                        .into(),
                });
            }
            if in_try && line.contains("panic!(") && !has_invariant_comment(&raw_lines, idx) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: "no-panic-in-try",
                    message: "panic! inside a try_* body: fallible paths report \
                              through Result (add `// INVARIANT:` if the panic is \
                              a proven-unreachable guard)"
                        .into(),
                });
            }
            if rank_scope {
                if let Some(name) = rank_suffixed_fn_decl(line) {
                    findings.push(Finding {
                        file: file.to_path_buf(),
                        line: lineno,
                        rule: "rank-isolation",
                        message: format!(
                            "rank-suffixed entry point `fn {name}`: the engine and the \
                             baseline are rank-generic — take a `SpectralShape` (or \
                             extend the generic path) instead of adding a per-rank twin"
                        ),
                    });
                }
            }
        }

        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_test && test_open.is_none() {
                        test_open = Some(depth);
                        pending_test = false;
                    } else if pending_try && test_open.is_none() {
                        try_stack.push(depth);
                        pending_try = false;
                    }
                }
                '}' => {
                    if test_open == Some(depth) {
                        test_open = None;
                    }
                    if try_stack.last() == Some(&depth) {
                        try_stack.pop();
                    }
                    depth -= 1;
                }
                // A `;` before any `{` terminates the pending declaration
                // (a bodyless trait method like `fn try_alloc(...) -> X;`):
                // the next brace belongs to some other item, not to it.
                ';' => {
                    pending_try = false;
                    pending_test = false;
                }
                _ => {}
            }
        }
    }
}

/// Detects a `fn try_*` declaration on a (sanitized) line, including
/// `pub fn try_x`, `pub(crate) fn try_x`, and generic variants. Avoids
/// matching calls like `self.try_x(` by requiring the `fn` keyword.
fn contains_try_fn_decl(line: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find("fn ") {
        // `fn` must be a word boundary (not e.g. the tail of an identifier).
        let boundary = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        let after = rest[pos + 3..].trim_start();
        if boundary && after.starts_with("try_") {
            return true;
        }
        rest = &rest[pos + 3..];
    }
    false
}

/// Whether `file` is engine or baseline source held to the rank-isolation
/// rule: everything under `crates/core/src` and `crates/culib/src`.
/// `fused_tests.rs` is a test-only module (compiled under `cfg(test)` via
/// its `mod` declaration, so its helpers are test scaffolding).
fn rank_isolation_scope(root: &Path, file: &Path) -> bool {
    let Ok(rel) = file.strip_prefix(root) else {
        return false;
    };
    (rel.starts_with("crates/core/src") || rel.starts_with("crates/culib/src"))
        && file.file_name().and_then(|n| n.to_str()) != Some("fused_tests.rs")
}

/// Returns the name of a `fn` declared on the (sanitized) line when it
/// ends in a rank suffix (`_1d` / `_2d` / `_3d`), using the same
/// `fn`-keyword boundary logic as [`contains_try_fn_decl`].
fn rank_suffixed_fn_decl(line: &str) -> Option<&str> {
    let mut rest = line;
    while let Some(pos) = rest.find("fn ") {
        let boundary = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        let after = rest[pos + 3..].trim_start();
        if boundary {
            let end = after
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(after.len());
            let name = &after[..end];
            if name.ends_with("_1d") || name.ends_with("_2d") || name.ends_with("_3d") {
                return Some(name);
            }
        }
        rest = &rest[pos + 3..];
    }
    None
}

/// Whether `file` is core source held to the backend-isolation rule:
/// everything under `crates/core/src` except the backend adapter module
/// and the sim-specific kernel builders it wraps.
fn backend_isolation_scope(root: &Path, file: &Path) -> bool {
    let Ok(rel) = file.strip_prefix(root) else {
        return false;
    };
    if !rel.starts_with("crates/core/src") {
        return false;
    }
    !matches!(
        file.file_name().and_then(|n| n.to_str()),
        Some("backend.rs" | "fused.rs" | "swizzle.rs" | "fused_tests.rs")
    )
}

/// Rule 5: `crates/core` talks to the device only through the `Backend`
/// trait. Direct references to the simulator crate or its concrete device
/// type belong in the adapter module, not in engine code.
fn lint_backend_isolation(root: &Path, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    if !backend_isolation_scope(root, file) {
        return;
    }
    let sanitized = sanitize(text);
    for (idx, line) in sanitized.lines().enumerate() {
        if line.contains("tfno_gpu_sim") || line.contains("GpuDevice") {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "backend-isolation",
                message: "core engine code must not reference tfno_gpu_sim/GpuDevice \
                          directly: go through the `Backend` trait (or the adapter \
                          re-exports in crates/core/src/backend.rs)"
                    .into(),
            });
        }
    }
}

/// Rule 4: every `harness = false` bench target must be compiled by CI.
fn lint_bench_coverage(root: &Path, findings: &mut Vec<Finding>) {
    let workflow = root.join(".github/workflows/ci.yml");
    let ci = fs::read_to_string(&workflow).unwrap_or_default();
    if ci.is_empty() {
        findings.push(Finding {
            file: workflow,
            line: 1,
            rule: "bench-ci-coverage",
            message: "missing CI workflow: bench targets cannot be checked".into(),
        });
        return;
    }
    // A blanket `cargo bench --no-run` compiles every bench target; with one
    // present the per-name check is vacuous (but still validates manifests).
    let blanket = ci.contains("cargo bench --no-run");

    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return;
    };
    for entry in entries.flatten() {
        let manifest = entry.path().join("Cargo.toml");
        let Ok(text) = fs::read_to_string(&manifest) else {
            continue;
        };
        for (name, line) in harness_false_benches(&text) {
            if !blanket && !ci.contains(&name) {
                findings.push(Finding {
                    file: manifest.clone(),
                    line,
                    rule: "bench-ci-coverage",
                    message: format!(
                        "bench target `{name}` (harness = false) is not compiled \
                         by CI: add it to the workflow or restore the blanket \
                         `cargo bench --no-run` step"
                    ),
                });
            }
        }
    }
}

/// Extracts `(name, line)` for every `[[bench]]` section with
/// `harness = false` from a Cargo.toml's text.
fn harness_false_benches(manifest: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_bench = false;
    let mut name: Option<(String, usize)> = None;
    let mut harness_false = false;
    let mut flush = |name: &mut Option<(String, usize)>, harness_false: &mut bool| {
        if *harness_false {
            if let Some(pair) = name.take() {
                out.push(pair);
            }
        }
        *name = None;
        *harness_false = false;
    };
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            if in_bench {
                flush(&mut name, &mut harness_false);
            }
            in_bench = line == "[[bench]]";
            continue;
        }
        if !in_bench {
            continue;
        }
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start().strip_prefix('=').unwrap_or(rest).trim();
            let value = rest.trim_matches('"');
            name = Some((value.to_string(), idx + 1));
        } else if line.starts_with("harness") && line.ends_with("false") {
            harness_false = true;
        }
    }
    if in_bench {
        flush(&mut name, &mut harness_false);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_strips_strings_and_comments() {
        let src = "let s = \"{ not a brace }\"; // { comment }\nlet c = '{';\n";
        let clean = sanitize(src);
        assert!(!clean.contains("not a brace"));
        assert!(!clean.contains("comment"));
        assert_eq!(clean.matches('{').count(), 0);
        assert_eq!(clean.lines().count(), src.lines().count());
    }

    #[test]
    fn sanitize_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"{ raw }\"#; }\n";
        let clean = sanitize(src);
        assert!(!clean.contains("raw"));
        // The fn-body braces survive; the raw-string braces do not.
        assert_eq!(clean.matches('{').count(), 1);
        assert_eq!(clean.matches('}').count(), 1);
        assert!(clean.contains("'a"));
    }

    #[test]
    fn try_fn_decl_detection() {
        assert!(contains_try_fn_decl("pub fn try_run(&self) {"));
        assert!(contains_try_fn_decl("    pub(crate) fn try_submit<T>("));
        assert!(!contains_try_fn_decl("self.try_run()?;"));
        assert!(!contains_try_fn_decl("fn run_try_harder() {"));
    }

    #[test]
    fn panic_in_try_body_is_flagged_and_invariant_silences() {
        let src = "\
pub fn try_thing() -> Result<(), ()> {
    panic!(\"boom\");
}
pub fn try_other() -> Result<(), ()> {
    // INVARIANT: unreachable because callers pre-validate.
    panic!(\"boom\");
}
fn plain() {
    panic!(\"fine outside try_*\");
}
";
        let mut findings = Vec::new();
        lint_source(
            Path::new("/tmp"),
            Path::new("/tmp/lib.rs"),
            src,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].rule, "no-panic-in-try");
    }

    #[test]
    fn test_mod_regions_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn try_helper() {
        let x = m.lock().unwrap();
        panic!(\"asserting\");
    }
}
";
        let mut findings = Vec::new();
        lint_source(
            Path::new("/tmp"),
            Path::new("/tmp/lib.rs"),
            src,
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hot_path_unwrap_needs_invariant() {
        let src = "\
pub fn try_wait(&self) -> Result<(), ()> {
    let v = runs.pop().expect(\"one run\");
    Ok(())
}
";
        let mut findings = Vec::new();
        lint_source(
            Path::new("/tmp"),
            Path::new("/tmp/session.rs"),
            src,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "invariant-comment");
    }

    #[test]
    fn bench_sections_parse() {
        let toml = "\
[[bench]]
name = \"throughput\"
harness = false

[[bench]]
name = \"with_harness\"

[dependencies]
";
        let benches = harness_false_benches(toml);
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].0, "throughput");
    }

    #[test]
    fn lock_unwrap_flagged_outside_helper_file() {
        let src = "fn f() { let g = m.lock().unwrap(); }\n";
        let mut findings = Vec::new();
        lint_source(
            Path::new("/repo"),
            Path::new("/repo/crates/core/src/session.rs"),
            src,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "lock-discipline");

        findings.clear();
        lint_source(
            Path::new("/repo"),
            Path::new("/repo/crates/gpu-sim/src/exec.rs"),
            src,
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn bodyless_trait_try_decl_does_not_capture_next_body() {
        // `fn try_alloc(...) -> X;` has no body: the provided method that
        // follows must not inherit its try_* status.
        let src = "\
trait Backend {
    fn try_alloc(&mut self, len: usize) -> Result<u32, ()>;

    fn alloc(&mut self, len: usize) -> u32 {
        self.try_alloc(len).unwrap_or_else(|e| panic!(\"fault: {e}\"))
    }
}
";
        let mut findings = Vec::new();
        lint_source(
            Path::new("/tmp"),
            Path::new("/tmp/lib.rs"),
            src,
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn rank_isolation_flags_new_twin_entry_points() {
        let root = Path::new("/repo");
        let src = "pub fn run_spectral_1d(&mut self) {\n}\n";
        let mut findings = Vec::new();
        lint_source(
            root,
            &root.join("crates/core/src/pipeline.rs"),
            src,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "rank-isolation");
        assert_eq!(findings[0].line, 1);

        // The baseline crate is in scope, and `_3d` is a rank suffix too.
        let src = "pub fn run_pytorch_3d() {}\n";
        lint_source(
            root,
            &root.join("crates/culib/src/pytorch.rs"),
            src,
            &mut findings,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert_eq!(findings[1].rule, "rank-isolation");
    }

    #[test]
    fn rank_isolation_allows_grandfathered_shims_tests_and_other_crates() {
        let root = Path::new("/repo");
        // Nothing is grandfathered any more: the old shim names are flagged.
        let shims = "\
pub fn from_problem_1d(p: &FnoProblem1d) -> Self { todo!() }
pub fn problem_2d(&self) -> Option<FnoProblem2d> { None }
";
        let mut findings = Vec::new();
        lint_source(
            root,
            &root.join("crates/core/src/session.rs"),
            shims,
            &mut findings,
        );
        assert_eq!(findings.len(), 2, "{findings:?}");
        findings.clear();

        // Test modules assert per-rank behavior on purpose.
        let test_src = "#[cfg(test)]\nmod tests {\n    fn run_1d() {}\n}\n";
        lint_source(
            root,
            &root.join("crates/core/src/lib.rs"),
            test_src,
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");

        // Other crates (the PDE field generators, root tests) may be
        // rank-specific.
        let src = "pub fn gaussian_random_field_2d() {}\n";
        lint_source(
            root,
            &root.join("crates/fno/src/pde.rs"),
            src,
            &mut findings,
        );
        lint_source(root, &root.join("tests/rank_equivalence.rs"), src, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn rank_suffixed_decl_detection() {
        assert_eq!(rank_suffixed_fn_decl("pub fn run_1d(p: &P) {"), Some("run_1d"));
        assert_eq!(rank_suffixed_fn_decl("    fn stage_2d<T>("), Some("stage_2d"));
        assert_eq!(rank_suffixed_fn_decl("self.run_1d();"), None);
        assert_eq!(rank_suffixed_fn_decl("pub fn run_3d() {"), Some("run_3d"));
        assert_eq!(rank_suffixed_fn_decl("pub fn rank() {"), None);
    }

    #[test]
    fn backend_isolation_flags_core_device_refs() {
        let root = Path::new("/repo");
        let src = "use crate::backend::ExecMode;\nuse tfno_gpu_sim::GpuDevice;\n";
        let mut findings = Vec::new();
        lint_backend_isolation(
            root,
            &root.join("crates/core/src/session.rs"),
            src,
            &mut findings,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "backend-isolation");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn backend_isolation_exempts_adapter_and_other_crates() {
        let root = Path::new("/repo");
        let src = "pub use tfno_gpu_sim::GpuDevice;\n";
        for rel in [
            "crates/core/src/backend.rs",    // the adapter module itself
            "crates/core/src/fused.rs",      // sim-specific kernel builders
            "crates/gpu-sim/src/device.rs",  // the simulator crate
            "tests/verify.rs",               // root tests may pin the sim
        ] {
            let mut findings = Vec::new();
            lint_backend_isolation(root, &root.join(rel), src, &mut findings);
            assert!(findings.is_empty(), "{rel}: {findings:?}");
        }
    }

    #[test]
    fn backend_isolation_ignores_comment_mentions() {
        let root = Path::new("/repo");
        let src = "// The sim's GpuDevice used to live here.\nfn f() {}\n";
        let mut findings = Vec::new();
        lint_backend_isolation(
            root,
            &root.join("crates/core/src/pool.rs"),
            src,
            &mut findings,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
