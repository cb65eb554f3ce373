//! Every package of the workspace opts into `[workspace.lints]`.
//!
//! The unsafe-audit, waiver and condvar lints are set once, in the root
//! manifest's `[workspace.lints]`, but Cargo applies them only to a package
//! whose own manifest says `[lints] workspace = true`. A crate added
//! without that line would compile with none of them, so this test reads
//! the root manifest and every `crates/*/Cargo.toml` and requires it.

use std::fs;
use std::path::{Path, PathBuf};

/// Whether `manifest` has a `[lints]` table containing `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.split_whitespace().collect::<String>() == "workspace=true" {
            return true;
        }
    }
    false
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    manifests.sort();
    assert!(manifests.len() >= 10, "found only {} member manifests", manifests.len());
    manifests.push(root.join("Cargo.toml"));

    let missing: Vec<_> = manifests
        .iter()
        .filter(|manifest| {
            !inherits_workspace_lints(&fs::read_to_string(manifest).expect("read manifest"))
        })
        .collect();
    assert!(missing.is_empty(), "add `[lints]\\nworkspace = true` to {missing:?}");
}

#[test]
fn only_a_lints_table_with_workspace_true_counts() {
    assert!(inherits_workspace_lints("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"));
    assert!(inherits_workspace_lints("[lints]\nworkspace=true\n[dependencies]\n"));
    assert!(!inherits_workspace_lints("[package]\nname = \"x\"\n"));
    assert!(!inherits_workspace_lints("[lints]\n\n[features]\nworkspace = true\n"));
    assert!(!inherits_workspace_lints("[workspace.lints.rust]\nworkspace = true\n"));
    assert!(!inherits_workspace_lints("[lints]\nworkspace = false\n"));
}
