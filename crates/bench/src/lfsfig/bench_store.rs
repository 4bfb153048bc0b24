//! Store-engine microbenchmark: the arena-backed B+ tree
//! ([`lambda_store::bptree::BpTree`]) versus the std `BTreeMap` it
//! replaced, and the id-addressed pages under the inode table
//! ([`lambda_store::idrows::IdRows`]), at the fig08d row scales.
//!
//! The fig08d steady-state residual is almost entirely store lookups: at
//! 10M inodes every point get of an ordered engine walks a ~720 MB
//! structure, and each level is a DRAM + TLB miss. This bench isolates that
//! cost from the simulator: identical keys, values, and access sequences
//! against every engine, 64-byte values (the packed
//! [`lambda_namespace::Inode`] row when the engines were chosen; it is 48
//! bytes now, and 40 in the inode table's id-addressed slots), at 250k /
//! 1M / 10M rows. Every engine's get hands out an owned row, as the
//! store's tables do since the id engine rebuilds rows from their slots;
//! the 64-byte row is `Copy` and stores itself whole, so the recorded
//! rates measure the same lookups as when gets returned references.
//!
//! Scenarios per scale:
//!
//! * `get/uni` — point gets, keys uniform over the table;
//! * `get/zipf` — point gets, keys zipf(1)-distributed (hot directories:
//!   rank sampled as `N^u`, which gives the 1/rank density without a
//!   10M-entry CDF table);
//! * `scan48` — 48-row range scans (one directory listing in the fig08d
//!   namespace), visitor-folded, no per-scan allocation on the B+ side;
//! * `churn` — random insert/remove churn (splits, frees, recycling);
//! * `build` — dense bulk build from an ascending stream vs
//!   `BTreeMap::from_iter`.
//!
//! The id engine runs the point scenarios and the build — what the inode
//! table asks of it; listings and churn are the ordered tables' work.
//! It prints per-scale rates for the engines, the B+ tree's ratio to the
//! std map (`bp:std`) and the id engine's to the B+ tree (`ids:bp`);
//! `--smoke` runs small scales for CI liveness.
//!
//! Flags: `--smoke`, `--seed=N`.

use lambda_bench::{fmt_ops, print_table, Args};
use lambda_sim::SimRng;
use lambda_store::bptree::BpTree;
use lambda_store::idrows::IdRows;
use lambda_store::IdRow;
use std::collections::BTreeMap;
use std::time::Instant;

/// A 64-byte row, the size the packed inode row had when the recorded
/// engine comparison was taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Row([u64; 8]);

impl Row {
    fn new(k: u64) -> Self {
        Row([k; 8])
    }
}

/// The id engine keeps the row whole: the measured slot is 64 bytes.
impl IdRow for Row {
    type Stored = Row;

    fn store(self, _id: u64) -> Result<Row, Row> {
        Ok(self)
    }

    fn load(_id: u64, stored: &Row) -> Row {
        *stored
    }
}

/// Zipf(s≈1) rank in `[0, n)`: `n^u` has density ∝ 1/rank, so hot keys
/// dominate the way hot directories dominate a metadata workload.
fn zipf_rank(rng: &mut SimRng, n: u64) -> u64 {
    let u = rng.gen_unit();
    ((n as f64).powf(u) as u64).min(n - 1)
}

/// One engine's point-access rates at one scale, in ops/sec.
#[derive(Debug, Clone, Copy)]
struct PointRates {
    get_uniform: f64,
    get_zipf: f64,
    build: f64,
}

/// An ordered engine's listing and churn rates at one scale, in ops/sec.
#[derive(Debug, Clone, Copy)]
struct OrderedRates {
    scan48: f64,
    churn: f64,
}

/// Ops and reps per scenario, scaled down under `--smoke`.
struct Budget {
    gets: u64,
    scans: u64,
    churn: u64,
    reps: u32,
}

/// Best-of-`reps` wall-clock rate for `run`, which returns executed ops.
fn measure(reps: u32, mut run: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let started = Instant::now();
        let ops = run();
        let rate = ops as f64 / started.elapsed().as_secs_f64().max(1e-12);
        best = best.max(rate);
    }
    best
}

/// The surface every engine is measured on: a dense build and point gets,
/// each handing out an owned row, as the store's tables do.
trait Engine: Sized {
    fn build(rows: u64) -> Self;
    fn get(&self, k: &u64) -> Option<Row>;
}

/// What the ordered engines are measured on besides.
trait Ordered: Engine {
    fn insert(&mut self, k: u64, v: Row) -> Option<Row>;
    fn remove(&mut self, k: &u64) -> Option<Row>;
    /// Folds the half-open range `[lo, hi)` through `visit`.
    fn scan_range(&self, lo: u64, hi: u64, visit: impl FnMut(&u64, &Row));
}

impl Engine for BpTree<u64, Row> {
    fn build(rows: u64) -> Self {
        BpTree::from_ascending((0..rows).map(|k| (k, Row::new(k))))
    }
    fn get(&self, k: &u64) -> Option<Row> {
        BpTree::get(self, k).copied()
    }
}

impl Ordered for BpTree<u64, Row> {
    fn insert(&mut self, k: u64, v: Row) -> Option<Row> {
        BpTree::insert(self, k, v)
    }
    fn remove(&mut self, k: &u64) -> Option<Row> {
        BpTree::remove(self, k)
    }
    fn scan_range(&self, lo: u64, hi: u64, visit: impl FnMut(&u64, &Row)) {
        self.scan_with(&(lo..hi), visit);
    }
}

impl Engine for BTreeMap<u64, Row> {
    fn build(rows: u64) -> Self {
        (0..rows).map(|k| (k, Row::new(k))).collect()
    }
    fn get(&self, k: &u64) -> Option<Row> {
        BTreeMap::get(self, k).copied()
    }
}

impl Ordered for BTreeMap<u64, Row> {
    fn insert(&mut self, k: u64, v: Row) -> Option<Row> {
        BTreeMap::insert(self, k, v)
    }
    fn remove(&mut self, k: &u64) -> Option<Row> {
        BTreeMap::remove(self, k)
    }
    fn scan_range(&self, lo: u64, hi: u64, mut visit: impl FnMut(&u64, &Row)) {
        for (k, v) in self.range(lo..hi) {
            visit(k, v);
        }
    }
}

impl Engine for IdRows<Row> {
    fn build(rows: u64) -> Self {
        (0..rows).map(|k| (k, Row::new(k))).collect()
    }
    fn get(&self, k: &u64) -> Option<Row> {
        IdRows::get(self, *k)
    }
}

/// Builds `E` at `rows` (timed) and measures its point gets; returns the
/// built table for the ordered scenarios.
fn point_rates<E: Engine>(rows: u64, seed: u64, budget: &Budget) -> (E, PointRates) {
    let mut built: Option<E> = None;
    let build = measure(budget.reps.min(2), || {
        built = Some(E::build(rows));
        rows
    });
    let table = built.expect("built at least once");

    let get_uniform = measure(budget.reps, || {
        let mut rng = SimRng::new(seed);
        let mut hits = 0u64;
        for _ in 0..budget.gets {
            let k = rng.gen_range(0..rows);
            if table.get(&k).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, budget.gets, "all sampled keys exist");
        budget.gets
    });

    let get_zipf = measure(budget.reps, || {
        let mut rng = SimRng::new(seed ^ 0x5eed);
        let mut hits = 0u64;
        for _ in 0..budget.gets {
            let k = zipf_rank(&mut rng, rows);
            if table.get(&k).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, budget.gets);
        budget.gets
    });

    (table, PointRates { get_uniform, get_zipf, build })
}

fn ordered_rates<E: Ordered>(table: E, rows: u64, seed: u64, budget: &Budget) -> OrderedRates {
    // 48-row listings: one simulated directory per scan, zipf-hot.
    let dirs = rows / 48;
    let scan48 = measure(budget.reps, || {
        let mut rng = SimRng::new(seed ^ 0xd1f5);
        let mut seen = 0u64;
        for _ in 0..budget.scans {
            let d = zipf_rank(&mut rng, dirs.max(1));
            table.scan_range(d * 48, (d + 1) * 48, |_, v| {
                seen += u64::from(v.0[0] != u64::MAX);
            });
        }
        assert_eq!(seen, budget.scans * 48, "every listing is full");
        budget.scans
    });
    drop(table);

    // Churn on a fresh mid-size table: uniform inserts and removes over a
    // keyspace 2x the live size (so both hit and miss paths run). The
    // rebuild per rep is setup, not churn — it stays outside the clock.
    let churn_rows = rows.min(1_000_000);
    let churn = {
        let mut best = 0.0f64;
        for _ in 0..budget.reps {
            let mut t = E::build(churn_rows);
            let mut rng = SimRng::new(seed ^ 0xc4c4);
            let started = Instant::now();
            for _ in 0..budget.churn {
                let k = rng.gen_range(0..churn_rows * 2);
                if rng.gen_bool(0.5) {
                    t.insert(k, Row::new(k));
                } else {
                    t.remove(&k);
                }
            }
            let rate = budget.churn as f64 / started.elapsed().as_secs_f64().max(1e-12);
            best = best.max(rate);
        }
        best
    };

    OrderedRates { scan48, churn }
}

fn ordered_engine<E: Ordered>(rows: u64, seed: u64, budget: &Budget) -> (PointRates, OrderedRates) {
    let (table, points) = point_rates::<E>(rows, seed, budget);
    (points, ordered_rates(table, rows, seed, budget))
}

pub fn run(args: &Args) {
    let seed = args.u64("seed", 17);
    let smoke = args.flag("smoke");
    let scales: &[u64] = if smoke {
        &[25_000, 100_000]
    } else {
        &[250_000, 1_000_000, 10_000_000]
    };
    let budget = if smoke {
        Budget { gets: 200_000, scans: 20_000, churn: 100_000, reps: 1 }
    } else {
        Budget { gets: 2_000_000, scans: 100_000, churn: 1_000_000, reps: 3 }
    };

    let mut rows_out: Vec<Vec<String>> = Vec::new();
    for &rows in scales {
        let (bp, bp_ordered) = ordered_engine::<BpTree<u64, Row>>(rows, seed, &budget);
        let (std, std_ordered) = ordered_engine::<BTreeMap<u64, Row>>(rows, seed, &budget);
        let ids = point_rates::<IdRows<Row>>(rows, seed, &budget).1;
        for (name, b, s, i) in [
            ("get/uni", bp.get_uniform, std.get_uniform, Some(ids.get_uniform)),
            ("get/zipf", bp.get_zipf, std.get_zipf, Some(ids.get_zipf)),
            ("scan48", bp_ordered.scan48, std_ordered.scan48, None),
            ("churn", bp_ordered.churn, std_ordered.churn, None),
            ("build", bp.build, std.build, Some(ids.build)),
        ] {
            let dash = || "-".to_string();
            rows_out.push(vec![
                rows.to_string(),
                name.to_string(),
                fmt_ops(b),
                fmt_ops(s),
                format!("{:.2}x", b / s),
                i.map_or_else(dash, fmt_ops),
                i.map_or_else(dash, |i| format!("{:.2}x", i / b)),
            ]);
        }
    }

    print_table(
        &format!(
            "Store engines: arena B+ tree vs std BTreeMap, and id-addressed pages (seed {seed}{})",
            if smoke { ", smoke" } else { "" }
        ),
        &["rows", "scenario", "bptree/s", "btreemap/s", "bp:std", "idrows/s", "ids:bp"],
        &rows_out,
    );
}
