//! Repository source lints, run in CI as `cargo run -p xtask -- lint`.
//!
//! Hand-rolled on `std::fs` only (the build image has no network, so no
//! external lint crates). Five invariants are enforced:
//!
//! 1. **Crate-root headers** — every crate root (`src/lib.rs` of the facade
//!    and of each `crates/*` member) carries both `#![forbid(unsafe_code)]`
//!    and `#![warn(missing_docs)]`.
//! 2. **No `unwrap()`/`expect()` in non-test library code** — panicking
//!    escape hatches are confined to `#[cfg(test)]` modules; vetted
//!    exceptions live in `xtask/lint-allow.txt` as per-file budgets
//!    (`path = count` lines), so new ones cannot slip in unreviewed.
//! 3. **No wall-clock/date nondeterminism in bench code** — the
//!    perf-regression gate regenerates the committed `BENCH_*.json` snapshots
//!    and fails on any `git diff`, so bench sources must not embed
//!    `SystemTime`/epoch-derived values or entropy (`Instant` for a duration
//!    printed on stderr is fine).
//! 4. **One JSON codec mechanism, and no document tree on a typed path** —
//!    typed documents are written and read through the `Json` trait and the
//!    `json_object!` field tables of `crates/core/src/json.rs`, straight to
//!    and from text. Naming `Value::Object(` or `BTreeMap<String, Value>`
//!    anywhere else in non-test library or bench code is hand-building (or
//!    hand-reading) an object; the vetted sites — the one bench report
//!    writer, the fuzzer's generator and walker — are counted per file in
//!    `xtask/codec-allow.txt`. `Value::parse(` outside the codec, the bench
//!    crate and the testkit (the fuzz oracle) is a typed path growing a tree
//!    again: its budget is 0 everywhere.
//! 5. **The allowlists are a ratchet** — every entry of `lint-allow.txt` and
//!    `codec-allow.txt` names a file that still exists, with a budget no
//!    higher than that file's current count, so a removed call site lowers
//!    the budget in the same change instead of leaving room for a new one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The file that owns the JSON object representation.
const CODEC_HOME: &str = "crates/core/src/json.rs";

/// What hand-written object construction and reading looks like.
const HAND_BUILT_OBJECT: &[&str] = &["Value::Object(", "BTreeMap<String, Value>"];

/// What parsing a text into the generic document looks like, and the crates
/// that may: the report writer's and the fuzz oracle's.
const TREE_PARSE: &[&str] = &["Value::parse("];
const TREE_USERS: &[&str] = &["crates/bench/", "crates/testkit/"];

/// Substrings banned from bench sources: each one injects wall-clock or
/// entropy state into artifacts that must be reproducible run to run.
const BENCH_NONDETERMINISM: &[&str] = &["SystemTime", "UNIX_EPOCH", "thread_rng", "from_entropy"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() != 1 || args[0] != "lint" {
        eprintln!("usage: cargo run -p xtask -- lint");
        return ExitCode::from(2);
    }

    let root = workspace_root();
    let load = |name: &str| load_allowlist(&root.join("xtask").join(name));
    let (unwraps, codec) = match (load("lint-allow.txt"), load("codec-allow.txt")) {
        (Ok(unwraps), Ok(codec)) => (unwraps, codec),
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("xtask lint: {message}");
            return ExitCode::FAILURE;
        }
    };

    let violations = run_lints(&root, &unwraps, &codec);
    if violations.is_empty() {
        println!("xtask lint: OK");
        ExitCode::SUCCESS
    } else {
        for violation in &violations {
            eprintln!("xtask lint: {violation}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The workspace root is the parent of this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}

/// Runs all five lints rooted at `root` and returns every violation found.
fn run_lints(
    root: &Path,
    unwraps: &BTreeMap<String, usize>,
    codec: &BTreeMap<String, usize>,
) -> Vec<String> {
    let mut violations = lint_crate_root_headers(root);
    violations.extend(lint_no_unwrap(root, unwraps));
    violations.extend(lint_bench_determinism(root));
    violations.extend(lint_one_codec(root, codec));
    violations.extend(lint_ratchet(root, "lint-allow.txt", unwraps, count_unwraps));
    violations.extend(lint_ratchet(root, "codec-allow.txt", codec, |text| {
        count_in_code(text, HAND_BUILT_OBJECT)
    }));
    violations
}

/// Parses an allow-list (`lint-allow.txt`, `codec-allow.txt`): `#` comments,
/// blank lines, and `path = budget` entries granting a file a fixed number
/// of vetted occurrences of what the lint counts.
fn load_allowlist(path: &Path) -> Result<BTreeMap<String, usize>, String> {
    let mut allowlist = BTreeMap::new();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => return Ok(allowlist), // no allowlist file: empty budgets
    };
    let at = |number: usize| format!("{}:{}", path.display(), number + 1);
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (file, budget) = line
            .split_once('=')
            .ok_or_else(|| format!("{}: expected `path = count`", at(number)))?;
        let budget: usize = budget
            .trim()
            .parse()
            .map_err(|_| format!("{}: count must be an integer", at(number)))?;
        allowlist.insert(file.trim().to_string(), budget);
    }
    Ok(allowlist)
}

/// Crate roots that must carry the lint headers.
fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let lib = entry.path().join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    roots.sort();
    roots
}

/// Lint 1: every crate root carries both safety/doc headers.
fn lint_crate_root_headers(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    for lib in crate_roots(root) {
        let text = match fs::read_to_string(&lib) {
            Ok(text) => text,
            Err(e) => {
                violations.push(format!("{}: unreadable: {e}", rel(root, &lib)));
                continue;
            }
        };
        for header in ["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"] {
            if !text.contains(header) {
                violations.push(format!("{}: missing `{header}`", rel(root, &lib)));
            }
        }
    }
    violations
}

/// Lint 2: no `unwrap()`/`expect()` outside `#[cfg(test)]` code, modulo the
/// per-file budgets of the allowlist.
fn lint_no_unwrap(root: &Path, allowlist: &BTreeMap<String, usize>) -> Vec<String> {
    let mut violations = Vec::new();
    for file in library_sources(root) {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        let count = count_unwraps(&text);
        let path = rel(root, &file);
        let budget = allowlist.get(&path).copied().unwrap_or(0);
        if count > budget {
            violations.push(format!(
                "{path}: {count} `unwrap()`/`expect()` call(s) in non-test code \
                 (allowlist budget {budget}); handle the error or vet it in \
                 xtask/lint-allow.txt"
            ));
        }
    }
    violations
}

/// Library sources subject to the unwrap lint: the facade's `src/` and every
/// `crates/*/src/` tree. Tests, benches and examples are out of scope.
fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            dirs.push(entry.path().join("src"));
        }
    }
    for dir in dirs {
        collect_rs_files(&dir, &mut files);
    }
    files.sort();
    files
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

/// Counts `.unwrap()` / `.expect(` occurrences in the non-test, non-comment
/// part of `text`.
fn count_unwraps(text: &str) -> usize {
    count_in_code(text, &[".unwrap()", ".expect("])
}

/// Counts occurrences of `needles` in the non-test, non-comment part of
/// `text`.
///
/// Test code is recognized by the repo-wide convention that `#[cfg(test)]`
/// introduces the trailing test module: everything from the first
/// `#[cfg(test)]` line onward is ignored.
fn count_in_code(text: &str, needles: &[&str]) -> usize {
    let mut count = 0;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue; // doc and line comments
        }
        for needle in needles {
            count += trimmed.matches(needle).count();
        }
    }
    count
}

/// Lint 4: JSON objects are built and read by the codec mechanism; every
/// other non-test mention of their representation is budgeted per file, and
/// no typed path parses a text into a tree.
fn lint_one_codec(root: &Path, allowlist: &BTreeMap<String, usize>) -> Vec<String> {
    let mut files = library_sources(root);
    collect_rs_files(&root.join("crates/bench/benches"), &mut files);
    files.sort();
    let mut violations = Vec::new();
    for file in files {
        let path = rel(root, &file);
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        if path == CODEC_HOME {
            continue;
        }
        let count = count_in_code(&text, HAND_BUILT_OBJECT);
        let budget = allowlist.get(&path).copied().unwrap_or(0);
        if count > budget {
            violations.push(format!(
                "{path}: {count} hand-built JSON object(s) (`Value::Object(` / \
                 `BTreeMap<String, Value>`) in non-test code (codec-allow.txt budget \
                 {budget}); declare the type in a `json_object!` table, or vet the \
                 site in xtask/codec-allow.txt"
            ));
        }
        let parses = count_in_code(&text, TREE_PARSE);
        if parses > 0 && !TREE_USERS.iter().any(|user| path.starts_with(user)) {
            violations.push(format!(
                "{path}: {parses} `Value::parse(` call(s) in non-test code; a typed \
                 document is read with `Json::from_json`, which builds no tree"
            ));
        }
    }
    violations
}

/// Lint 5: every entry of the allowlist `name` names an existing file, with
/// a budget no higher than what `count` finds in it today.
fn lint_ratchet(
    root: &Path,
    name: &str,
    allowlist: &BTreeMap<String, usize>,
    count: impl Fn(&str) -> usize,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (path, &budget) in allowlist {
        let Ok(text) = fs::read_to_string(root.join(path)) else {
            violations.push(format!(
                "xtask/{name}: {path} no longer exists; delete its entry"
            ));
            continue;
        };
        let count = count(&text);
        if budget > count {
            violations.push(format!(
                "xtask/{name}: {path} has budget {budget} but {count} occurrence(s); \
                 lower the budget to {count}"
            ));
        }
    }
    violations
}

/// Lint 3: bench sources must not use wall-clock dates or entropy.
fn lint_bench_determinism(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates/bench"), &mut files);
    files.sort();
    for file in files {
        let Ok(text) = fs::read_to_string(&file) else {
            continue;
        };
        for (number, line) in text.lines().enumerate() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("//") {
                continue;
            }
            for banned in BENCH_NONDETERMINISM {
                if trimmed.contains(banned) {
                    violations.push(format!(
                        "{}:{}: bench code must stay deterministic; found `{banned}`",
                        rel(root, &file),
                        number + 1
                    ));
                }
            }
        }
    }
    violations
}

/// `path` relative to `root`, with `/` separators (stable lint output).
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch workspace under the target-adjacent temp dir; removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("xtask-lint-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }

        fn write(&self, path: &str, content: &str) {
            let full = self.0.join(path);
            fs::create_dir_all(full.parent().expect("parent")).expect("mkdir");
            fs::write(full, content).expect("write");
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    const CLEAN_LIB: &str = "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";

    #[test]
    fn missing_headers_are_violations() {
        let scratch = Scratch::new("headers");
        scratch.write("src/lib.rs", CLEAN_LIB);
        scratch.write("crates/bad/src/lib.rs", "//! Docs but no headers.\n");
        let violations = lint_crate_root_headers(&scratch.0);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("crates/bad/src/lib.rs"));
        assert!(violations[0].contains("forbid(unsafe_code)"));
    }

    #[test]
    fn unwrap_in_library_code_is_a_violation_and_budgets_vet_it() {
        let scratch = Scratch::new("unwrap");
        scratch.write("src/lib.rs", CLEAN_LIB);
        scratch.write(
            "crates/bad/src/lib.rs",
            "fn f() { Some(1).unwrap(); }\nfn g() { Some(1).expect(\"x\"); }\n",
        );
        let empty = BTreeMap::new();
        let violations = lint_no_unwrap(&scratch.0, &empty);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("2 `unwrap()`"));

        let mut vetted = BTreeMap::new();
        vetted.insert("crates/bad/src/lib.rs".to_string(), 2);
        assert!(lint_no_unwrap(&scratch.0, &vetted).is_empty());
    }

    #[test]
    fn test_modules_and_comments_are_exempt() {
        let source = "fn f() -> Option<u8> { None }\n\
                      // a comment mentioning .unwrap() is fine\n\
                      /// so is a doc comment with .expect(\n\
                      #[cfg(test)]\n\
                      mod tests {\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert_eq!(count_unwraps(source), 0);
        assert_eq!(count_unwraps("fn f() { x.unwrap_or(0); }"), 0);
        assert_eq!(count_unwraps("fn f() { x.unwrap(); }"), 1);
    }

    #[test]
    fn bench_nondeterminism_is_a_violation() {
        let scratch = Scratch::new("bench");
        scratch.write(
            "crates/bench/benches/seeded.rs",
            "use std::time::SystemTime;\nfn stamp() { let _ = SystemTime::now(); }\n",
        );
        let violations = lint_bench_determinism(&scratch.0);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("SystemTime"));
    }

    #[test]
    fn hand_built_objects_outside_the_codec_are_a_violation_and_budgets_vet_them() {
        let scratch = Scratch::new("codec");
        let hand_built = "fn f(map: BTreeMap<String, Value>) -> Value { Value::Object(map) }\n\
                          // Value::Object( in a comment is fine\n\
                          #[cfg(test)]\nmod tests { fn t() { Value::Object(m); } }\n";
        scratch.write(CODEC_HOME, hand_built);
        scratch.write("crates/core/src/export.rs", hand_built);
        scratch.write(
            "crates/bench/benches/report.rs",
            "fn f() { Value::Object(m); }\n",
        );
        let violations = lint_one_codec(&scratch.0, &BTreeMap::new());
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("crates/bench/benches/report.rs: 1 hand-built"));
        assert!(violations[1].contains("crates/core/src/export.rs: 2 hand-built"));

        let mut vetted = BTreeMap::new();
        vetted.insert("crates/core/src/export.rs".to_string(), 2);
        vetted.insert("crates/bench/benches/report.rs".to_string(), 1);
        assert!(lint_one_codec(&scratch.0, &vetted).is_empty());
    }

    #[test]
    fn parsing_into_a_tree_on_a_typed_path_is_a_violation_no_budget_vets() {
        let scratch = Scratch::new("tree");
        let parses = "fn f(text: &str) { let _ = Value::parse(text); }\n\
                      // Value::parse( in a comment is fine\n\
                      #[cfg(test)]\nmod tests { fn t() { Value::parse(\"1\"); } }\n";
        for path in [
            CODEC_HOME,
            "crates/bench/src/lib.rs",
            "crates/testkit/src/json_fuzz.rs",
            "crates/service/src/protocol.rs",
        ] {
            scratch.write(path, parses);
        }
        let mut vetted = BTreeMap::new();
        vetted.insert("crates/service/src/protocol.rs".to_string(), 5);
        let violations = lint_one_codec(&scratch.0, &vetted);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("crates/service/src/protocol.rs: 1 `Value::parse(`"));
    }

    #[test]
    fn an_entry_for_a_missing_file_is_a_violation() {
        let scratch = Scratch::new("stale");
        let mut allowlist = BTreeMap::new();
        allowlist.insert("crates/core/src/gone.rs".to_string(), 2);
        let violations = lint_ratchet(&scratch.0, "lint-allow.txt", &allowlist, count_unwraps);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("crates/core/src/gone.rs no longer exists"));
    }

    #[test]
    fn a_budget_above_the_current_count_is_a_violation() {
        let scratch = Scratch::new("loose");
        scratch.write(
            "crates/core/src/x.rs",
            "fn f() { Some(1).unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n",
        );
        let mut allowlist = BTreeMap::new();
        allowlist.insert("crates/core/src/x.rs".to_string(), 2);
        let violations = lint_ratchet(&scratch.0, "lint-allow.txt", &allowlist, count_unwraps);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("budget 2 but 1 occurrence(s)"));

        allowlist.insert("crates/core/src/x.rs".to_string(), 1);
        assert!(lint_ratchet(&scratch.0, "lint-allow.txt", &allowlist, count_unwraps).is_empty());
    }

    #[test]
    fn allowlist_parses_budgets_and_rejects_garbage() {
        let scratch = Scratch::new("allow");
        scratch.write(
            "xtask/lint-allow.txt",
            "# vetted exceptions\ncrates/core/src/x.rs = 3\n\n",
        );
        let allowlist = load_allowlist(&scratch.0.join("xtask/lint-allow.txt")).expect("parses");
        assert_eq!(allowlist.get("crates/core/src/x.rs"), Some(&3));

        scratch.write("xtask/lint-allow.txt", "no-equals-sign\n");
        assert!(load_allowlist(&scratch.0.join("xtask/lint-allow.txt")).is_err());
    }

    #[test]
    fn missing_allowlist_file_means_empty_budgets() {
        let scratch = Scratch::new("noallow");
        let allowlist = load_allowlist(&scratch.0.join("xtask/lint-allow.txt")).expect("ok");
        assert!(allowlist.is_empty());
    }

    /// The acceptance test: the real repository passes its own lint.
    #[test]
    fn repository_is_lint_clean() {
        let root = workspace_root();
        let unwraps = load_allowlist(&root.join("xtask/lint-allow.txt")).expect("parses");
        let codec = load_allowlist(&root.join("xtask/codec-allow.txt")).expect("parses");
        let violations = run_lints(&root, &unwraps, &codec);
        assert!(
            violations.is_empty(),
            "repo lint violations: {violations:#?}"
        );
    }

    /// The negative acceptance test: seeding a violation makes the lint fail.
    #[test]
    fn seeded_violation_fails_the_full_lint() {
        let scratch = Scratch::new("seeded");
        scratch.write("src/lib.rs", CLEAN_LIB);
        scratch.write(
            "crates/seeded/src/lib.rs",
            "//! Docs.\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n\
             fn f() { Some(1).unwrap(); }\n",
        );
        let violations = run_lints(&scratch.0, &BTreeMap::new(), &BTreeMap::new());
        assert_eq!(violations.len(), 1, "{violations:?}");
    }
}
