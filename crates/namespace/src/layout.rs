//! The layout of the bootstrap tree, the "existing directory tree" every
//! experiment runs against (§5.2–5.3): `dirs` directories `dir00000`,
//! `dir00001`, … under a root, each holding `files_per_dir` files
//! `file00000`, `file00001`, …. The loader, the workload drivers and the
//! prewarm probe all name its entries here, so they cannot drift apart.

use std::fmt::Write as _;

use crate::path::{DfsPath, InodeName};

/// The shape of one bootstrap tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeLayout {
    /// Directories directly under the tree's root.
    pub dirs: usize,
    /// Files in each directory.
    pub files_per_dir: usize,
}

impl TreeLayout {
    /// The name of file `f` of every directory.
    #[must_use]
    pub fn file_name(f: usize) -> InodeName {
        render("file", f, &mut String::new())
    }

    /// Every directory name, in order.
    #[must_use]
    pub fn dir_names(&self) -> Vec<InodeName> {
        names("dir", self.dirs)
    }

    /// Every file name of one directory, in order.
    #[must_use]
    pub fn file_names(&self) -> Vec<InodeName> {
        names("file", self.files_per_dir)
    }

    /// The directories' paths under `root`, in order: what loading the
    /// tree at `root` returns.
    #[must_use]
    pub fn dir_paths(&self, root: &DfsPath) -> Vec<DfsPath> {
        self.dir_names().into_iter().map(|name| root.join_interned(name)).collect()
    }

    /// The file paths of `dirs`, directory by directory: directory `d`'s
    /// files start at `d * files_per_dir`.
    #[must_use]
    pub fn file_paths(&self, dirs: &[DfsPath]) -> Vec<DfsPath> {
        let names = self.file_names();
        dirs.iter().flat_map(|dir| names.iter().map(|&name| dir.join_interned(name))).collect()
    }
}

/// `count` names `{prefix}00000` onwards, rendered through one buffer.
fn names(prefix: &str, count: usize) -> Vec<InodeName> {
    let mut buf = String::new();
    (0..count).map(|i| render(prefix, i, &mut buf)).collect()
}

fn render(prefix: &str, i: usize, buf: &mut String) -> InodeName {
    buf.clear();
    write!(buf, "{prefix}{i:05}").expect("write to String");
    InodeName::new(buf)
}
