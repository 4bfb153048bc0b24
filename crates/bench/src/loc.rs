//! Repository line-count inventory (the reproduction's analog of the
//! paper's Table 1).

use std::fs;
use std::path::Path;

/// Lines of Rust code per component (crate or directory).
#[derive(Debug, Clone)]
pub struct LocEntry {
    /// Component name.
    pub component: String,
    /// Total non-empty lines in `.rs` files.
    pub lines: usize,
    /// Number of `.rs` files.
    pub files: usize,
}

fn count_dir(dir: &Path) -> (usize, usize) {
    let mut lines = 0;
    let mut files = 0;
    let Ok(entries) = fs::read_dir(dir) else { return (0, 0) };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            let (l, f) = count_dir(&path);
            lines += l;
            files += f;
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(content) = fs::read_to_string(&path) {
                lines += content.lines().filter(|l| !l.trim().is_empty()).count();
                files += 1;
            }
        }
    }
    (lines, files)
}

/// Counts lines per workspace component, rooted at the workspace
/// directory containing `crates/`.
#[must_use]
pub fn inventory(workspace_root: &Path) -> Vec<LocEntry> {
    let mut out = Vec::new();
    let crates = workspace_root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            if dir.is_dir() {
                let (lines, files) = count_dir(&dir);
                out.push(LocEntry {
                    component: format!(
                        "crates/{}",
                        dir.file_name().and_then(|n| n.to_str()).unwrap_or("?")
                    ),
                    lines,
                    files,
                });
            }
        }
    }
    for extra in ["examples", "tests", "src", "benchmark", "stubs"] {
        let dir = workspace_root.join(extra);
        if dir.is_dir() {
            let (lines, files) = count_dir(&dir);
            out.push(LocEntry { component: extra.to_string(), lines, files });
        }
    }
    out
}

/// Locates the workspace root from this crate's manifest dir.
#[must_use]
pub fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap_or_else(|_| {
        std::env::current_dir().expect("cwd")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_sees_this_workspace() {
        let entries = inventory(&workspace_root());
        assert!(entries.iter().any(|e| e.component == "crates/sim"));
        assert!(entries.iter().any(|e| e.component == "benchmark" && e.lines > 0));
        let total: usize = entries.iter().map(|e| e.lines).sum();
        assert!(total > 5_000, "suspiciously small workspace: {total} lines");
    }
}
