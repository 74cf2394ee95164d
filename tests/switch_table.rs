//! The README's "Runtime switches" table is the contract for the
//! process environment: every `MWP_*` variable the code reads has a row,
//! and every row names a variable the code still reads. A switch cannot
//! be added without documenting it, nor retired without deleting its row
//! — nor read in a second place: each name appears in one source file.
//! The same goes for the commands the docs tell a reader to run: every
//! cargo target they name is one a manifest still declares.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Every `"MWP_…"` string literal in the `.rs` files under `dir`, with
/// the files it occurs in — the shape of each `env::var` read (messages
/// like `"MWP_TRACE: {e}"` do not close the quote right after the name,
/// so they do not match).
fn names_read_under(dir: &Path, out: &mut BTreeMap<String, BTreeSet<PathBuf>>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            names_read_under(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = fs::read_to_string(&path).expect("source file is UTF-8");
            for (at, _) in text.match_indices("\"MWP_") {
                let name: String = text[at + 1..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                if text[at + 1 + name.len()..].starts_with('"') {
                    out.entry(name).or_default().insert(path.clone());
                }
            }
        }
    }
}

/// The README table's rows: variable name → its "values (default
/// first)" cell.
fn readme_rows(root: &Path) -> BTreeMap<String, String> {
    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let section = readme
        .split("## Runtime switches")
        .nth(1)
        .expect("README has a 'Runtime switches' section");
    let section = section.split("\n## ").next().expect("split yields a first piece");
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `MWP_"))
        .map(|rest| {
            let mut cells = rest.split(" | ");
            let name = cells.next().expect("split yields a first piece").trim_end_matches('`');
            (format!("MWP_{name}"), cells.next().expect("a values cell").to_string())
        })
        .collect()
}

#[test]
fn readme_switch_table_lists_exactly_the_variables_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut read = BTreeMap::new();
    names_read_under(&root.join("src"), &mut read);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        names_read_under(&krate.expect("directory entry").path().join("src"), &mut read);
    }
    for (name, files) in &read {
        assert_eq!(files.len(), 1, "{name} is named in more than one source file: {files:?}");
    }

    let read: BTreeSet<String> = read.into_keys().collect();
    let documented: BTreeSet<String> = readme_rows(root).into_keys().collect();
    assert_eq!(
        read, documented,
        "left: MWP_* variables read under src/ and crates/*/src; right: README table rows"
    );
    assert_eq!(documented.len(), 4, "the README counts its switches: {documented:?}");
}

#[test]
fn config_default_is_the_readme_defaults() {
    // The first value of a row's cell is the default: a millisecond count,
    // or `*unset*`.
    let rows = readme_rows(Path::new(env!("CARGO_MANIFEST_DIR")));
    let default_of = |name: &str| rows[name].split(',').next().expect("a first value").trim();
    let millis = |name: &str| {
        let ms = default_of(name).trim_matches('`').split('`').next().expect("a first token");
        Duration::from_millis(ms.parse().unwrap_or_else(|e| panic!("{name} default {ms}: {e}")))
    };
    let config = mwp_msg::config::Config::default();
    assert_eq!(config.liveness, Some(millis("MWP_DEADLINE_MS")));
    assert_eq!(millis("MWP_RUN_DEADLINE_MS"), Duration::ZERO, "0 = no budget");
    assert_eq!(config.run_deadline, None);
    assert_eq!(default_of("MWP_FLEET_SECRET"), "*unset*");
    assert!(config.fleet_secret.is_empty());
}

/// The README's kernel table lists exactly the dispatch table — the
/// names `by_name`'s refusal cites — so a kernel row cannot be added or
/// retired without the README following. (x86_64 builds compile every
/// row; other targets carry fewer.)
#[cfg(target_arch = "x86_64")]
#[test]
fn readme_kernel_values_are_the_dispatch_table() {
    let readme = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md")).expect("README.md exists");
    let rows = readme.split("| kernel |").nth(1).expect("README has a kernel table");
    // Past the header's tail and the separator, one row per kernel.
    let documented: BTreeSet<&str> = rows
        .lines()
        .skip(2)
        .map_while(|line| line.strip_prefix("| `"))
        .map(|rest| rest.split('`').next().expect("split yields a first piece"))
        .collect();
    let refusal = mwp_blockmat::kernel::by_name("?").expect_err("'?' names no kernel");
    let cited = refusal
        .split("(valid: ")
        .nth(1)
        .and_then(|rest| rest.strip_suffix(')'))
        .unwrap_or_else(|| panic!("refusal does not list the valid names: {refusal}"));
    let table: BTreeSet<&str> = cited.split(", ").collect();
    assert_eq!(documented, table, "left: README kernel table; right: dispatch table");
}

/// The `name = "…"` of every package and target table in the
/// `Cargo.toml`s under `dir` (build directories skipped).
fn targets_declared_under(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") && !path.ends_with(".git") {
                targets_declared_under(&path, out);
            }
        } else if path.ends_with("Cargo.toml") {
            let text = fs::read_to_string(&path).expect("manifest is UTF-8");
            out.extend(
                text.lines()
                    .filter_map(|line| line.strip_prefix("name = \""))
                    .map(|rest| rest.trim_end_matches('"').to_string()),
            );
        }
    }
}

#[test]
fn docs_name_only_cargo_targets_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut declared = BTreeSet::new();
    targets_declared_under(root, &mut declared);
    for example in fs::read_dir(root.join("examples")).expect("examples/ exists") {
        let path = example.expect("directory entry").path();
        declared.insert(path.file_stem().expect("example has a name").to_string_lossy().into_owned());
    }

    let mut stale = BTreeSet::new();
    for doc in [
        "README.md",
        "docs/ARCHITECTURE.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("read {doc}: {e}"));
        for marker in ["--bin ", "--bench ", "--example ", "target/release/"] {
            for (at, _) in text.match_indices(marker) {
                let name: String = text[at + marker.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                // An empty name is the bare `target/release/` directory.
                if !name.is_empty() && !declared.contains(&name) {
                    stale.insert(format!("{doc}: {marker}{name}"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "docs name targets no Cargo.toml declares: {stale:#?}");
}
