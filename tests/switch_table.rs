//! The README's "Runtime switches" table is the contract for the
//! process environment: every `MWP_*` variable the code reads has a row,
//! and every row names a variable the code still reads. A switch cannot
//! be added without documenting it, nor retired without deleting its row.
//! The same goes for the commands the docs tell a reader to run: every
//! cargo target they name is one a manifest still declares.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Every `"MWP_…"` string literal in the `.rs` files under `dir` — the
/// shape of each `env::var` read (messages like `"MWP_KERNEL: {e}"` do
/// not close the quote right after the name, so they do not match).
fn names_read_under(dir: &Path, out: &mut BTreeSet<String>) {
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
                    out.insert(name);
                }
            }
        }
    }
}

#[test]
fn readme_switch_table_lists_exactly_the_variables_the_code_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));

    let mut read = BTreeSet::new();
    names_read_under(&root.join("src"), &mut read);
    for krate in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        names_read_under(&krate.expect("directory entry").path().join("src"), &mut read);
    }

    let readme = fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let section = readme
        .split("## Runtime switches")
        .nth(1)
        .expect("README has a 'Runtime switches' section");
    let section = section.split("\n## ").next().expect("split yields a first piece");
    let documented: BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `MWP_"))
        .map(|rest| format!("MWP_{}", rest.split('`').next().expect("split yields a first piece")))
        .collect();

    assert_eq!(
        read, documented,
        "left: MWP_* variables read under src/ and crates/*/src; right: README table rows"
    );
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
