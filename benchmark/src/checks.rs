//! Post-run integrity checks: the same invariants as `LambdaFs::audit`,
//! with the namespace walk done in O(n).
//!
//! `audit()`'s namespace check compares every inode with every row — fine
//! for the chaos tests' few hundred inodes, 30 s for the 120k inodes
//! `write_mix` leaves behind. Full-size runs use this linear equivalent;
//! `--smoke` runs also call `audit()` itself, so the two are held to the
//! same verdict on every smoke run.

use std::collections::{HashMap, HashSet};

use lambda_fs::LambdaFs;
use lambda_namespace::ROOT_INODE_ID;

/// Namespace well-formedness: every inode is stored under its own id, has
/// a live directory as parent and is indexed under its name; every
/// children row points at a live inode.
fn namespace_violations(fs: &LambdaFs) -> Vec<String> {
    let (schema, db) = (fs.schema(), fs.db());
    let inodes = db.peek_range(schema.inodes, ..);
    let children = db.peek_range(schema.children, ..);
    let is_dir: HashMap<u64, bool> = inodes
        .iter()
        .map(|(id, inode)| (*id, inode.is_dir()))
        .collect();
    let index: HashSet<(u64, &str, u64)> = children
        .iter()
        .map(|((parent, name), child)| (*parent, name.as_str(), *child))
        .collect();
    let mut problems = Vec::new();
    for (id, inode) in &inodes {
        if *id != inode.id {
            problems.push(format!("inode {} stored under key {id}", inode.id));
        }
        if *id == ROOT_INODE_ID {
            continue;
        }
        match is_dir.get(&inode.parent) {
            None => problems.push(format!("inode {id} has dangling parent {}", inode.parent)),
            Some(false) => problems.push(format!("inode {id} parent {} is a file", inode.parent)),
            Some(true) => {}
        }
        if !index.contains(&(inode.parent, inode.name.as_str(), *id)) {
            problems.push(format!("inode {id} missing from children index"));
        }
    }
    for ((parent, name), child) in &children {
        if !is_dir.contains_key(child) {
            problems.push(format!(
                "children row ({parent},{}) -> dangling inode {child}",
                name.as_str()
            ));
        }
    }
    problems
}

/// Violations of the quiesced system's invariants (empty = coherent):
/// namespace ↔ store agreement (skipped where the namespace is too large
/// to copy without distorting `host_peak_rss_mb`), no leaked transactions,
/// locks, lock waits, invocations or queued requests, no post-crash
/// divergence of the durable backend, and operation conservation.
pub fn integrity_violations(fs: &LambdaFs, walk_namespace: bool) -> Vec<String> {
    let mut out = Vec::new();
    if walk_namespace {
        out.extend(
            namespace_violations(fs)
                .into_iter()
                .map(|v| format!("namespace: {v}")),
        );
    }
    let db = fs.db();
    let mut leak = |count: usize, what: &str| {
        if count != 0 {
            out.push(format!("{count} {what}"));
        }
    };
    leak(db.active_txn_count(), "store transactions never terminated");
    leak(db.locked_rows(), "row locks leaked");
    leak(db.pending_seq_count(), "lock-wait sequences still parked");
    leak(
        fs.platform().pending_invocations(),
        "invocation records leaked",
    );
    leak(fs.platform().queued_requests(), "requests still queued");
    out.extend(
        db.durability_violations()
            .into_iter()
            .map(|v| format!("durability: {v}")),
    );
    let metrics = fs.metrics();
    let m = metrics.borrow();
    if m.issued != m.accounted() {
        out.push(format!(
            "conservation: issued {} != accounted {}",
            m.issued,
            m.accounted()
        ));
    }
    out.truncate(16);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_fs::{DfsService, LambdaFsConfig};
    use lambda_namespace::{DfsPath, Inode};
    use lambda_sim::Sim;

    fn small_fs() -> LambdaFs {
        let mut sim = Sim::new(5);
        let fs = LambdaFs::build(
            &mut sim,
            LambdaFsConfig {
                deployments: 2,
                clients: 4,
                ..Default::default()
            },
        );
        fs.bootstrap_tree(&DfsPath::root(), 6, 5);
        fs
    }

    /// The linear walk and the repository's quadratic reference agree on a
    /// clean namespace and on one with an orphan and a mis-keyed row.
    #[test]
    fn linear_namespace_walk_agrees_with_the_reference_check() {
        let fs = small_fs();
        assert_eq!(namespace_violations(&fs), Vec::<String>::new());
        assert!(fs.check_consistency().is_empty());
        assert!(integrity_violations(&fs, true).is_empty());

        // An inode whose parent does not exist and that no children row
        // indexes, stored under a key that is not its id.
        fs.db().bootstrap_insert(
            fs.schema().inodes,
            9_000,
            Inode::file(9_001, 8_888, "orphan"),
        );
        let mut ours = namespace_violations(&fs);
        let mut reference = fs.check_consistency();
        ours.sort();
        reference.sort();
        assert_eq!(ours, reference);
        assert_eq!(ours.len(), 3, "{ours:?}");
        assert!(integrity_violations(&fs, true)
            .iter()
            .all(|v| v.starts_with("namespace: ")));
        assert!(integrity_violations(&fs, false).is_empty());
    }
}
