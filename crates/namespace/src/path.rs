//! Validated DFS paths over interned component symbols.
//!
//! Path components are interned once into a process-wide symbol arena and
//! referenced by `u32` symbol ids. A [`DfsPath`] is then a small sequence of
//! symbols — stored inline for up to [`INLINE_COMPS`] components, in a
//! shared `Arc<[Sym]>` beyond — so the hot-path operations `parent()`,
//! `join()`, `components()`, `depth()` and `ancestors()` neither allocate
//! nor copy component strings. The rendered form is materialized lazily and
//! cached (`as_str`); parsing caches it eagerly since the caller already
//! holds the string.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use lambda_store::{NameEntry, NameKey};

/// Interned path-component symbol: an index into the process-wide arena.
///
/// Two components are the same string iff their symbols are equal, which is
/// what lets the metadata cache key its trie children by `(node, Sym)`
/// instead of hashing component strings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Sym(pub(crate) u32);

impl Sym {
    /// The component as a children-index key suffix: one thread-local
    /// table read, no interner lock, no allocation.
    pub(crate) fn key(self) -> NameKey {
        entry(self).key()
    }
}

struct SymTab {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static NameEntry>,
}

fn symtab() -> &'static Mutex<SymTab> {
    static TAB: OnceLock<Mutex<SymTab>> = OnceLock::new();
    TAB.get_or_init(|| Mutex::new(SymTab { ids: HashMap::new(), names: Vec::new() }))
}

/// Interns one component. Each distinct component string is leaked exactly
/// once (as a [`NameEntry`], so the store's children-index keys point at
/// the same record); namespace vocabularies (directory/file names) are
/// bounded, so the arena is too.
fn intern(comp: &str) -> Sym {
    let mut tab = symtab().lock().expect("symbol table poisoned");
    if let Some(&id) = tab.ids.get(comp) {
        return Sym(id);
    }
    let entry = NameEntry::leak(comp);
    let id = u32::try_from(tab.names.len()).expect("symbol arena overflow");
    tab.names.push(entry);
    tab.ids.insert(entry.text(), id);
    Sym(id)
}

thread_local! {
    /// Read-only mirror of the arena's entries, refreshed on miss, so
    /// resolving a symbol needs no lock after first sight on this thread.
    static NAMES: RefCell<Vec<&'static NameEntry>> = const { RefCell::new(Vec::new()) };
}

fn entry(sym: Sym) -> &'static NameEntry {
    NAMES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if (sym.0 as usize) >= cache.len() {
            // The arena is append-only, so the mirror's prefix is always
            // current: copy only the tail it hasn't seen. (Rebuilding the
            // whole mirror per new symbol made resolving a fresh symbol
            // O(arena) — quadratic over a bulk load that interns hundreds
            // of thousands of names.)
            let tab = symtab().lock().expect("symbol table poisoned");
            let seen = cache.len();
            cache.extend_from_slice(&tab.names[seen..]);
        }
        cache[sym.0 as usize]
    })
}

fn resolve(sym: Sym) -> &'static str {
    entry(sym).text()
}

/// Interns `name` as a path component and returns the arena-backed string.
/// For a name that is already in the arena (every path component that ever
/// appeared in a parsed or joined [`DfsPath`] is), this is a hash probe —
/// no allocation — so message types can replace owned `String` fields with
/// `&'static str` copies.
#[must_use]
pub fn interned(name: &str) -> &'static str {
    resolve(intern(name))
}

/// An inode's name within its parent directory, stored as a 4-byte interned
/// symbol instead of a 24-byte (plus heap) `String`.
///
/// `Copy`, so cloning an [`Inode`](crate::Inode) row — which the store does
/// on every read — copies a word where it used to allocate. Two names are
/// equal iff their symbols are equal (the interner guarantees one symbol
/// per distinct string); ordering is by content, matching the `String` it
/// replaced.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct InodeName(Sym);

impl InodeName {
    /// Interns `name`. A hash probe for any name seen before (every
    /// component of every parsed or joined path already is).
    #[must_use]
    pub fn new(name: &str) -> InodeName {
        InodeName(intern(name))
    }

    /// The name text, backed by the interner arena (outlives `self`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }

    /// Whether the name is empty (only the root's is).
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.as_str().is_empty()
    }

    /// This name as a children-index key suffix (resolves the symbol to
    /// its arena entry; no interner lock, no allocation).
    #[must_use]
    pub fn key(self) -> NameKey {
        self.0.key()
    }
}

impl From<InodeName> for NameKey {
    fn from(name: InodeName) -> NameKey {
        name.key()
    }
}

impl From<&str> for InodeName {
    fn from(name: &str) -> InodeName {
        InodeName::new(name)
    }
}

impl From<String> for InodeName {
    fn from(name: String) -> InodeName {
        InodeName::new(&name)
    }
}

impl From<&String> for InodeName {
    fn from(name: &String) -> InodeName {
        InodeName::new(name)
    }
}

impl std::ops::Deref for InodeName {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for InodeName {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for InodeName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<InodeName> for str {
    fn eq(&self, other: &InodeName) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<InodeName> for &str {
    fn eq(&self, other: &InodeName) -> bool {
        *self == other.as_str()
    }
}

impl Ord for InodeName {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for InodeName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for InodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for InodeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// Interner for *rendered* full-path strings (backing [`DfsPath::as_str`]):
/// one allocation per distinct rendered path, shared by every `DfsPath`
/// that renders it.
fn intern_full(s: &str) -> &'static str {
    static TAB: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let tab = TAB.get_or_init(|| Mutex::new(HashSet::new()));
    let mut tab = tab.lock().expect("path table poisoned");
    if let Some(&existing) = tab.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    tab.insert(leaked);
    leaked
}

/// Components stored inline up to this depth; deeper paths spill to a
/// shared heap slice.
const INLINE_COMPS: usize = 8;

#[derive(Clone)]
enum Comps {
    Inline { len: u8, syms: [Sym; INLINE_COMPS] },
    Heap(Arc<[Sym]>),
}

impl Comps {
    const EMPTY: Comps = Comps::Inline { len: 0, syms: [Sym(0); INLINE_COMPS] };

    fn as_slice(&self) -> &[Sym] {
        match self {
            Comps::Inline { len, syms } => &syms[..usize::from(*len)],
            Comps::Heap(syms) => syms,
        }
    }

    fn from_slice(slice: &[Sym]) -> Comps {
        if slice.len() <= INLINE_COMPS {
            let mut syms = [Sym(0); INLINE_COMPS];
            syms[..slice.len()].copy_from_slice(slice);
            Comps::Inline { len: slice.len() as u8, syms }
        } else {
            Comps::Heap(slice.into())
        }
    }

    fn push(&self, sym: Sym) -> Comps {
        match self {
            Comps::Inline { len, syms } if usize::from(*len) < INLINE_COMPS => {
                let mut syms = *syms;
                syms[usize::from(*len)] = sym;
                Comps::Inline { len: len + 1, syms }
            }
            _ => {
                let old = self.as_slice();
                let mut v = Vec::with_capacity(old.len() + 1);
                v.extend_from_slice(old);
                v.push(sym);
                Comps::Heap(v.into())
            }
        }
    }
}

/// A validated, absolute, normalized DFS path (e.g. `/dir/file.txt`).
///
/// Invariants: starts with `/`, contains no empty, `.` or `..` components,
/// and has no trailing slash (except the root itself).
///
/// # Examples
///
/// ```
/// use lambda_namespace::DfsPath;
///
/// let p: DfsPath = "/data/logs/app.log".parse()?;
/// assert_eq!(p.components().collect::<Vec<_>>(), vec!["data", "logs", "app.log"]);
/// assert_eq!(p.parent().unwrap().as_str(), "/data/logs");
/// assert_eq!(p.file_name(), Some("app.log"));
/// assert_eq!(p.depth(), 3);
/// # Ok::<(), lambda_namespace::ParsePathError>(())
/// ```
#[derive(Clone)]
pub struct DfsPath {
    comps: Comps,
    /// Lazily rendered-and-interned full string; `Cell` so `as_str(&self)`
    /// can fill it in.
    full: Cell<Option<&'static str>>,
}

/// Error returned when parsing an invalid path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError {
    input: String,
    reason: &'static str,
}

impl fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid DFS path {:?}: {}", self.input, self.reason)
    }
}

impl Error for ParsePathError {}

impl DfsPath {
    /// The filesystem root, `/`.
    #[must_use]
    pub fn root() -> DfsPath {
        DfsPath { comps: Comps::EMPTY, full: Cell::new(Some("/")) }
    }

    /// Whether this is the root path.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.comps.as_slice().is_empty()
    }

    /// The path as a string slice.
    ///
    /// The first call on a non-parsed path renders and interns the string;
    /// subsequent calls are free. The slice borrows the interner arena, so
    /// it outlives the path — row types (e.g. subtree-lock rows) can carry
    /// it as a plain `&'static str` instead of cloning a `String`.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        if let Some(s) = self.full.get() {
            return s;
        }
        let s = intern_full(&self.render());
        self.full.set(Some(s));
        s
    }

    fn render(&self) -> String {
        let comps = self.comps.as_slice();
        if comps.is_empty() {
            return "/".to_string();
        }
        let mut out = String::new();
        for &c in comps {
            out.push('/');
            out.push_str(resolve(c));
        }
        out
    }

    /// The path components, in order (empty for the root).
    pub fn components(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.comps.as_slice().iter().map(|&s| resolve(s))
    }

    /// The components as interned symbols (for symbol-keyed tries).
    pub(crate) fn comp_syms(&self) -> &[Sym] {
        self.comps.as_slice()
    }

    /// Number of components (0 for the root).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.comps.as_slice().len()
    }

    /// The final component, or `None` for the root. The returned string
    /// borrows the component interner's arena, so it outlives the path —
    /// wire types can carry it without cloning.
    #[must_use]
    pub fn file_name(&self) -> Option<&'static str> {
        self.comps.as_slice().last().map(|&s| resolve(s))
    }

    /// [`DfsPath::file_name`] as the already-interned [`InodeName`]: what
    /// an inode row or a children-index key for this path's entry is built
    /// from, without going back through the interner by text.
    #[must_use]
    pub fn file_name_interned(&self) -> Option<InodeName> {
        self.comps.as_slice().last().map(|&s| InodeName(s))
    }

    /// The parent path, or `None` for the root.
    #[must_use]
    pub fn parent(&self) -> Option<DfsPath> {
        let comps = self.comps.as_slice();
        let (_, init) = comps.split_last()?;
        // If our rendered form is cached, the parent's is a prefix slice of
        // the same interned string — no re-rendering, no new interning.
        let full = self.full.get().map(|s: &'static str| -> &'static str {
            match s.rfind('/') {
                Some(0) => "/",
                Some(idx) => &s[..idx],
                None => unreachable!("cached path string always contains '/'"),
            }
        });
        Some(DfsPath { comps: Comps::from_slice(init), full: Cell::new(full) })
    }

    /// Appends a single component.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePathError`] if `name` is empty or contains `/`.
    pub fn join(&self, name: &str) -> Result<DfsPath, ParsePathError> {
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(ParsePathError { input: name.to_string(), reason: "invalid component" });
        }
        Ok(DfsPath { comps: self.comps.push(intern(name)), full: Cell::new(None) })
    }

    /// Appends an already-interned name without re-validating or
    /// re-interning it.
    ///
    /// Equivalent to [`DfsPath::join`] for any name that parses as a valid
    /// component (an [`InodeName`] always does — it came from one), but
    /// skips the interner lock and the byte scan, which matters when a
    /// bulk loader joins millions of names it already interned.
    #[must_use]
    pub fn join_interned(&self, name: InodeName) -> DfsPath {
        DfsPath { comps: self.comps.push(name.0), full: Cell::new(None) }
    }

    /// The ancestor path with the first `k` of our components.
    fn prefix(&self, k: usize) -> DfsPath {
        let full = if k == 0 { Some("/") } else { None };
        DfsPath { comps: Comps::from_slice(&self.comps.as_slice()[..k]), full: Cell::new(full) }
    }

    /// Iterates over all ancestor paths from the root down to the parent
    /// (exclusive of `self`). Empty for the root.
    ///
    /// Each yielded `DfsPath` is built from this path's own symbols without
    /// touching the interner or cloning strings.
    #[must_use]
    pub fn ancestors(&self) -> Ancestors<'_> {
        Ancestors { path: self, next: 0, end: self.depth() }
    }

    /// Whether `self` is `other` or a descendant of `other`.
    #[must_use]
    pub fn starts_with(&self, other: &DfsPath) -> bool {
        self.comps.as_slice().starts_with(other.comps.as_slice())
    }
}

/// Borrowing iterator over a path's ancestors, root first.
///
/// Returned by [`DfsPath::ancestors`].
#[derive(Debug, Clone)]
pub struct Ancestors<'a> {
    path: &'a DfsPath,
    next: usize,
    end: usize,
}

impl Iterator for Ancestors<'_> {
    type Item = DfsPath;

    fn next(&mut self) -> Option<DfsPath> {
        if self.next >= self.end {
            return None;
        }
        let p = self.path.prefix(self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Ancestors<'_> {}

impl DoubleEndedIterator for Ancestors<'_> {
    fn next_back(&mut self) -> Option<DfsPath> {
        if self.next >= self.end {
            return None;
        }
        self.end -= 1;
        Some(self.path.prefix(self.end))
    }
}

impl PartialEq for DfsPath {
    fn eq(&self, other: &Self) -> bool {
        self.comps.as_slice() == other.comps.as_slice()
    }
}

impl Eq for DfsPath {}

impl Hash for DfsPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let comps = self.comps.as_slice();
        state.write_usize(comps.len());
        for &Sym(id) in comps {
            state.write_u32(id);
        }
    }
}

/// Compares two component sequences as the byte strings they render to
/// (each component preceded by `/`), so the ordering matches the previous
/// `String`-backed representation exactly — including names containing
/// bytes below `/` such as `.` and `-`.
fn cmp_comps(a: &[Sym], b: &[Sym]) -> Ordering {
    let shared = a.len().min(b.len());
    for i in 0..shared {
        if a[i] == b[i] {
            continue;
        }
        let xs = resolve(a[i]).as_bytes();
        let ys = resolve(b[i]).as_bytes();
        let m = xs.len().min(ys.len());
        for j in 0..m {
            match xs[j].cmp(&ys[j]) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        // One name is a strict prefix of the other. The shorter side's next
        // rendered byte is `/` (if it has more components) or end-of-string;
        // the longer name's next byte is never `/`, so this decides.
        return if xs.len() < ys.len() {
            if i + 1 == a.len() { Ordering::Less } else { b'/'.cmp(&ys[m]) }
        } else if i + 1 == b.len() {
            Ordering::Greater
        } else {
            xs[m].cmp(&b'/')
        };
    }
    a.len().cmp(&b.len())
}

impl Ord for DfsPath {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Some(a), Some(b)) = (self.full.get(), other.full.get()) {
            return a.cmp(b);
        }
        cmp_comps(self.comps.as_slice(), other.comps.as_slice())
    }
}

impl PartialOrd for DfsPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::str::FromStr for DfsPath {
    type Err = ParsePathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if !s.starts_with('/') {
            return Err(ParsePathError { input: s.to_string(), reason: "must be absolute" });
        }
        if s == "/" {
            return Ok(DfsPath::root());
        }
        if s.ends_with('/') {
            return Err(ParsePathError { input: s.to_string(), reason: "trailing slash" });
        }
        let mut comps = Comps::EMPTY;
        for comp in s[1..].split('/') {
            if comp.is_empty() {
                return Err(ParsePathError { input: s.to_string(), reason: "empty component" });
            }
            if comp == "." || comp == ".." {
                return Err(ParsePathError {
                    input: s.to_string(),
                    reason: "relative components not allowed",
                });
            }
            comps = comps.push(intern(comp));
        }
        // The caller already holds the rendered string: cache it now.
        Ok(DfsPath { comps, full: Cell::new(Some(intern_full(s))) })
    }
}

impl fmt::Display for DfsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(s) = self.full.get() {
            return f.write_str(s);
        }
        let comps = self.comps.as_slice();
        if comps.is_empty() {
            return f.write_str("/");
        }
        for &c in comps {
            f.write_str("/")?;
            f.write_str(resolve(c))?;
        }
        Ok(())
    }
}

impl fmt::Debug for DfsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DfsPath(\"{self}\")")
    }
}

impl AsRef<str> for DfsPath {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    #[test]
    fn parses_valid_paths() {
        assert!(p("/").is_root());
        assert_eq!(p("/a/b").depth(), 2);
        assert_eq!(p("/a").parent(), Some(DfsPath::root()));
        assert_eq!(p("/a/b/c").parent(), Some(p("/a/b")));
    }

    #[test]
    fn rejects_invalid_paths() {
        for bad in ["", "relative", "/a/", "//", "/a//b", "/a/./b", "/a/../b"] {
            assert!(bad.parse::<DfsPath>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ancestors_run_root_to_parent() {
        let path = p("/a/b/c");
        let anc: Vec<String> = path.ancestors().map(|a| a.to_string()).collect();
        assert_eq!(anc, vec!["/", "/a", "/a/b"]);
        assert_eq!(p("/").ancestors().count(), 0);
    }

    #[test]
    fn ancestors_iterate_both_ways_without_allocation() {
        let path = p("/a/b/c/d");
        let fwd: Vec<String> = path.ancestors().map(|a| a.to_string()).collect();
        let mut rev: Vec<String> = path.ancestors().rev().map(|a| a.to_string()).collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(path.ancestors().len(), 4);
        assert_eq!(path.ancestors().last(), path.parent());
    }

    #[test]
    fn join_builds_children() {
        assert_eq!(DfsPath::root().join("a").unwrap(), p("/a"));
        assert_eq!(p("/a").join("b").unwrap(), p("/a/b"));
        assert!(p("/a").join("b/c").is_err());
        assert!(p("/a").join("").is_err());
        assert!(p("/a").join("..").is_err());
    }

    #[test]
    fn starts_with_respects_component_boundaries() {
        assert!(p("/a/b").starts_with(&p("/a")));
        assert!(p("/a/b").starts_with(&p("/a/b")));
        assert!(p("/a/b").starts_with(&DfsPath::root()));
        assert!(!p("/ab").starts_with(&p("/a")));
        assert!(!p("/a").starts_with(&p("/a/b")));
    }

    #[test]
    fn file_name_of_root_is_none() {
        assert_eq!(p("/").file_name(), None);
        assert_eq!(p("/x/y").file_name(), Some("y"));
    }

    #[test]
    fn deep_paths_spill_to_heap_and_round_trip() {
        let mut path = DfsPath::root();
        let mut expect = String::new();
        for i in 0..12 {
            let name = format!("d{i}");
            expect.push('/');
            expect.push_str(&name);
            path = path.join(&name).unwrap();
        }
        assert_eq!(path.depth(), 12);
        assert_eq!(path.as_str(), expect);
        assert_eq!(path, expect.parse().unwrap());
        assert_eq!(path.parent().unwrap().depth(), 11);
    }

    #[test]
    fn ordering_matches_rendered_strings() {
        let mut strs =
            vec!["/", "/a", "/a/b", "/a-x", "/a.b", "/ab", "/a/b/c", "/b", "/a/b-c", "/a/bb"];
        let mut paths: Vec<DfsPath> = strs.iter().map(|s| p(s)).collect();
        // Defeat the cached-string fast path: rebuild via join so `full`
        // starts unset for non-root paths.
        let mut rebuilt: Vec<DfsPath> = paths
            .iter()
            .map(|path| {
                let mut q = DfsPath::root();
                for c in path.components() {
                    q = q.join(c).unwrap();
                }
                q
            })
            .collect();
        strs.sort_unstable();
        paths.sort();
        rebuilt.sort();
        let sorted: Vec<String> = paths.iter().map(ToString::to_string).collect();
        let sorted2: Vec<String> = rebuilt.iter().map(ToString::to_string).collect();
        assert_eq!(sorted, strs);
        assert_eq!(sorted2, strs);
    }

    #[test]
    fn display_and_as_str_agree_for_joined_paths() {
        let q = DfsPath::root().join("x").unwrap().join("y").unwrap();
        assert_eq!(q.to_string(), "/x/y");
        assert_eq!(q.as_str(), "/x/y");
        assert_eq!(format!("{q:?}"), "DfsPath(\"/x/y\")");
    }
}
