//! # lambda-allocstats
//!
//! A counting global allocator for byte-accurate memory accounting in the
//! memory-footprint benches (`fig08d_million_scale` and the
//! `bytes_per_inode` regression gate).
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and maintains process-wide
//! live/peak byte counters in [`GLOBAL`]. It is *not* registered anywhere in
//! library code: a binary (or integration-test crate) opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: lambda_allocstats::CountingAlloc = lambda_allocstats::CountingAlloc;
//! ```
//!
//! so the accounting overhead (two relaxed atomic RMWs per allocation) is
//! only ever paid by binaries that asked for it. In `lambda-bench` the
//! registration sits behind the `alloc-stats` cargo feature.
//!
//! The counters track **requested** bytes (`Layout::size`), not allocator
//! bucket sizes — the quantity the row-layout arithmetic in DESIGN.md §3.6
//! predicts. All accounting logic lives in [`Counters`], which is plain safe
//! code and unit-testable without touching the real global allocator; the
//! `unsafe` surface is the delegating [`GlobalAlloc`] impl plus the raw
//! `madvise` syscall that asks the kernel for huge pages under the store's
//! multi-hundred-MB arena tables (`advise_huge`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live/peak byte counters. The process-wide instance is [`GLOBAL`];
/// tests construct their own to exercise the accounting deterministically.
#[derive(Debug)]
pub struct Counters {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl Counters {
    /// A zeroed counter set.
    #[must_use]
    pub const fn new() -> Self {
        Counters {
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    /// Records an allocation of `bytes`.
    pub fn note_alloc(&self, bytes: u64) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Records a deallocation of `bytes`.
    pub fn note_dealloc(&self, bytes: u64) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records a reallocation from `old` to `new` bytes.
    pub fn note_realloc(&self, old: u64, new: u64) {
        if new >= old {
            self.note_alloc(new - old);
            // One logical event, not an alloc+free pair.
            self.frees.fetch_add(1, Ordering::Relaxed);
        } else {
            self.note_dealloc(old - new);
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Currently live (allocated, not yet freed) bytes.
    #[must_use]
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Counters::live`] since process start (or the
    /// last [`Counters::reset_peak`]).
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live level, so a measurement window
    /// observes only its own high-water mark.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of allocation events recorded.
    #[must_use]
    pub fn alloc_count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Number of deallocation events recorded.
    #[must_use]
    pub fn free_count(&self) -> u64 {
        self.frees.load(Ordering::Relaxed)
    }

    /// Opens a measurement scope anchored at the current live level.
    /// Scopes nest freely — each one only remembers its own baseline.
    #[must_use]
    pub fn scope(&self) -> MemScope<'_> {
        MemScope { counters: self, base_live: self.live(), base_allocs: self.alloc_count() }
    }
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

/// A measurement window over a [`Counters`]: bytes that became live since
/// the scope opened. Purely observational — dropping a scope changes
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct MemScope<'a> {
    counters: &'a Counters,
    base_live: u64,
    base_allocs: u64,
}

impl MemScope<'_> {
    /// Net bytes allocated (and still live) since the scope opened.
    /// Saturates at zero if the scope freed more than it allocated.
    #[must_use]
    pub fn grown(&self) -> u64 {
        self.counters.live().saturating_sub(self.base_live)
    }

    /// Signed net live-byte delta since the scope opened.
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.counters.live() as i64 - self.base_live as i64
    }

    /// The live level when this scope opened.
    #[must_use]
    pub fn baseline(&self) -> u64 {
        self.base_live
    }

    /// Allocation *events* since the scope opened (reallocs count once).
    ///
    /// This is the per-op allocation counter behind the zero-alloc
    /// regression gates: unlike byte deltas, which an alloc+free pair
    /// cancels out of, the event count catches every transient
    /// allocation on a path that claims to make none.
    #[must_use]
    pub fn allocs(&self) -> u64 {
        self.counters.alloc_count() - self.base_allocs
    }
}

/// The process-wide counter set fed by [`CountingAlloc`].
pub static GLOBAL: Counters = Counters::new();

/// Currently live heap bytes (zero unless a binary registered
/// [`CountingAlloc`]).
#[must_use]
pub fn live_bytes() -> u64 {
    GLOBAL.live()
}

/// Peak live heap bytes since process start or the last
/// [`reset_peak`].
#[must_use]
pub fn peak_bytes() -> u64 {
    GLOBAL.peak()
}

/// Resets the process-wide peak to the current live level.
pub fn reset_peak() {
    GLOBAL.reset_peak();
}

/// Whether a [`CountingAlloc`] is actually feeding [`GLOBAL`]: true once
/// any allocation has been recorded (the runtime allocates long before
/// `main`, so under a registered counter this is never zero).
#[must_use]
pub fn active() -> bool {
    GLOBAL.alloc_count() > 0
}

/// Allocations at least this large get `MADV_HUGEPAGE` advice. 2 MiB is
/// the x86-64 huge-page size; anything smaller cannot contain one.
const HUGE_THRESHOLD: usize = 2 << 20;

/// Advises the kernel to back `[ptr, ptr + len)` with transparent huge
/// pages (`MADV_HUGEPAGE`), on hosts where THP is in `madvise` mode.
///
/// The store's arena tables are a handful of multi-hundred-MB buffers; on
/// 4 KiB pages a 10M-row table costs a dTLB miss on nearly every descent
/// level, and huge pages collapse that ~512×. The build has no `libc`, so
/// the one-line `madvise` call is a raw syscall; it is advisory — any
/// failure (foreign kernel, THP disabled) changes nothing.
///
/// Container runtimes commonly start processes with `PR_SET_THP_DISABLE`
/// set, which silently voids every `MADV_HUGEPAGE`; the first call here
/// clears that per-process flag once (`prctl(PR_SET_THP_DISABLE, 0)` —
/// unprivileged, affects only this process).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)]
fn advise_huge(ptr: *mut u8, len: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    const PAGE: usize = 4096;
    const MADV_HUGEPAGE: usize = 14;
    const SYS_MADVISE: usize = 28;
    const SYS_PRCTL: usize = 157;
    const PR_SET_THP_DISABLE: usize = 41;

    // SAFETY for both syscalls below: madvise on a range inside an
    // allocation this process owns never unmaps or alters contents, and
    // prctl(PR_SET_THP_DISABLE, 0) only clears this process's THP opt-out;
    // both are advisory and their failure changes nothing.
    static THP_ENABLED: AtomicBool = AtomicBool::new(false);
    if !THP_ENABLED.swap(true, Ordering::Relaxed) {
        // prctl demands args 3..5 be zero, so all six registers are pinned.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_PRCTL => _,
                in("rdi") PR_SET_THP_DISABLE,
                in("rsi") 0usize,
                in("rdx") 0usize,
                in("r10") 0usize,
                in("r8") 0usize,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }

    // madvise wants a page-aligned start: round in to the aligned interior
    // of the block (malloc headers may offset it).
    let addr = (ptr as usize).next_multiple_of(PAGE);
    let len = len.saturating_sub(addr - ptr as usize) & !(PAGE - 1);
    if len == 0 {
        return;
    }
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => _,
            in("rdi") addr,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn advise_huge(_ptr: *mut u8, _len: usize) {}

/// The counting allocator: [`System`] plus [`GLOBAL`] accounting, plus
/// huge-page advice for arena-scale blocks (see `advise_huge`). Register
/// it with `#[global_allocator]` in a binary to activate both.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// A pass-through to `System` with the same contracts the caller already
// promised `GlobalAlloc`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            GLOBAL.note_alloc(layout.size() as u64);
            if layout.size() >= HUGE_THRESHOLD {
                advise_huge(p, layout.size());
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        GLOBAL.note_dealloc(layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            GLOBAL.note_alloc(layout.size() as u64);
            if layout.size() >= HUGE_THRESHOLD {
                advise_huge(p, layout.size());
            }
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            GLOBAL.note_realloc(layout.size() as u64, new_size as u64);
            if new_size >= HUGE_THRESHOLD {
                advise_huge(p, new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_dealloc_track_live_bytes() {
        let c = Counters::new();
        c.note_alloc(100);
        c.note_alloc(50);
        assert_eq!(c.live(), 150);
        c.note_dealloc(100);
        assert_eq!(c.live(), 50);
        c.note_dealloc(50);
        assert_eq!(c.live(), 0);
        assert_eq!(c.alloc_count(), 2);
        assert_eq!(c.free_count(), 2);
    }

    #[test]
    fn peak_is_a_high_water_mark() {
        let c = Counters::new();
        c.note_alloc(100);
        assert_eq!(c.peak(), 100);
        c.note_dealloc(100);
        // Freeing never lowers the peak.
        assert_eq!(c.peak(), 100);
        c.note_alloc(60);
        assert_eq!(c.peak(), 100);
        c.note_alloc(60);
        assert_eq!(c.peak(), 120);
    }

    #[test]
    fn reset_peak_rebases_to_live() {
        let c = Counters::new();
        c.note_alloc(500);
        c.note_dealloc(400);
        assert_eq!(c.peak(), 500);
        c.reset_peak();
        assert_eq!(c.peak(), 100);
        c.note_alloc(10);
        assert_eq!(c.peak(), 110);
    }

    #[test]
    fn realloc_accounts_the_delta_both_ways() {
        let c = Counters::new();
        c.note_alloc(64);
        c.note_realloc(64, 256);
        assert_eq!(c.live(), 256);
        assert_eq!(c.peak(), 256);
        c.note_realloc(256, 32);
        assert_eq!(c.live(), 32);
        assert_eq!(c.peak(), 256);
    }

    #[test]
    fn nested_scopes_each_keep_their_own_baseline() {
        let c = Counters::new();
        let outer = c.scope();
        c.note_alloc(50);
        let inner = c.scope();
        c.note_alloc(25);
        assert_eq!(inner.grown(), 25);
        assert_eq!(outer.grown(), 75);
        c.note_dealloc(25);
        assert_eq!(inner.grown(), 0);
        assert_eq!(inner.delta(), 0);
        assert_eq!(outer.grown(), 50);
        // The peak survives the inner scope's churn.
        assert_eq!(c.peak(), 75);
    }

    #[test]
    fn scope_counts_allocation_events_not_bytes() {
        let c = Counters::new();
        c.note_alloc(10);
        let s = c.scope();
        assert_eq!(s.allocs(), 0);
        c.note_alloc(100);
        c.note_dealloc(100);
        // The byte delta cancelled; the event did not.
        assert_eq!(s.grown(), 0);
        assert_eq!(s.allocs(), 1);
        c.note_realloc(10, 50);
        assert_eq!(s.allocs(), 2, "realloc is one logical event");
    }

    #[test]
    fn scope_delta_can_go_negative_grown_saturates() {
        let c = Counters::new();
        c.note_alloc(100);
        let s = c.scope();
        c.note_dealloc(40);
        assert_eq!(s.delta(), -40);
        assert_eq!(s.grown(), 0);
        assert_eq!(s.baseline(), 100);
    }

    #[test]
    fn global_counters_are_reachable() {
        // No CountingAlloc is registered in this test binary, so the
        // global counters are silent — but the accessors must work.
        let live = live_bytes();
        let peak = peak_bytes();
        assert!(peak >= live || peak == 0);
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
    }
}
