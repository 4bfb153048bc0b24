//! Spans recorded by the benchmark around its calls into the system:
//! phases of a repetition and layer probes. Kept in memory, written out
//! once at exit. Spans inside the crates are a later change (ROADMAP
//! items 2 and 5).

use std::time::Instant;

use crate::json::{obj, Json};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under whichever span
    /// is currently open, and returns `f`'s result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let out = f();
        self.exit(idx);
        out
    }

    /// Opens a span that stays open across calls that need the tracer
    /// themselves; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn exit(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Time in span `idx` not covered by its direct children.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (self.spans[idx].end_ns - self.spans[idx].start_ns).saturating_sub(covered)
    }

    pub fn to_json(&self, run_id: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                obj([
                    ("name", s.name.as_str().into()),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("self_ns", self.self_ns(idx).into()),
                    ("parent", s.parent.map_or(Json::Null, |p| (p as u64).into())),
                ])
            })
            .collect();
        obj([("run_id", run_id.into()), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("rep");
        let inner_value = t.span("build", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        t.exit(outer);
        assert_eq!(inner_value, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[0].parent, None);
        let child_ns = t.spans[1].end_ns - t.spans[1].start_ns;
        assert!(child_ns >= 2_000_000);
        assert_eq!(
            t.self_ns(outer),
            t.spans[0].end_ns - t.spans[0].start_ns - child_ns
        );
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut t = Tracer::new();
        t.span("a", || ());
        let j = t.to_json("w-1");
        assert_eq!(j.get("run_id").and_then(Json::as_str), Some("w-1"));
        let Some(Json::Arr(spans)) = j.get("spans") else {
            panic!("spans array")
        };
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }
}
