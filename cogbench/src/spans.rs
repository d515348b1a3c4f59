//! Spans recorded by the traced run.
//!
//! A span is one call into a layer: its name (`<layer>.<what>`), start and
//! end in nanoseconds since the run began, the span that caused it, and the
//! tick and session it belongs to. Spans stay in memory while the run is
//! measured and are written out once it ends.
//!
//! Work that runs on pool workers records into a [`SpanLog::child`] log
//! (same origin, no shared state) that the caller adopts after the fan-out,
//! so recording never synchronizes threads.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `ml.predict`.
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start: u64,
    /// Nanoseconds since the log's origin (0 while still open).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Serving tick the span belongs to.
    pub tick: Option<u32>,
    /// Session (admission index) the span belongs to.
    pub session: Option<u32>,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Where a new span sits: its parent, tick and session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct At {
    /// The causing span.
    pub parent: Option<u32>,
    /// Serving tick.
    pub tick: Option<u32>,
    /// Session index.
    pub session: Option<u32>,
}

impl At {
    /// The same position under a different parent.
    #[must_use]
    pub fn under(self, parent: u32) -> Self {
        Self {
            parent: Some(parent),
            ..self
        }
    }

    /// The same position for one session.
    #[must_use]
    pub fn session(self, session: u32) -> Self {
        Self {
            session: Some(session),
            ..self
        }
    }
}

/// An append-only span log sharing one time origin.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty log on the same origin, for work recorded on another
    /// thread; hand it back with [`SpanLog::adopt`].
    #[must_use]
    pub fn child(&self) -> Self {
        Self {
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, at: At) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: at.parent,
            tick: at.tick,
            session: at.session,
        });
        id
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Runs `f` inside a span.
    pub fn record<R>(&mut self, name: &'static str, at: At, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, at);
        let out = f();
        self.close(id);
        out
    }

    /// Appends a child log's spans: its root spans become children of
    /// `parent`, and its internal parent links are re-indexed.
    pub fn adopt(&mut self, child: SpanLog, parent: u32) {
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| base + p));
            s
        }));
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans `keep` selects as JSON lines, one span per line,
    /// with its index as `id`.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &Path, keep: impl Fn(&Span) -> bool) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| keep(s)) {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"tick\":{},\"session\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.tick),
                opt(s.session)
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Each span's self time: its duration minus the part of its interval its
/// children cover. Children that ran in parallel overlap; the covered part
/// is their union, so overlapping children are not subtracted twice.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| s.dur() - covered(kids, s.start, s.end))
        .collect()
}

/// Self time attributed to wall-clock time: where children ran in
/// parallel, each child's subtree is scaled by (covered ÷ Σ child
/// durations), so the attributed self times of a tree sum to its root's
/// duration. This is what lets per-layer self times add up to the tick.
///
/// # Panics
///
/// Panics if a span's parent was recorded after it.
#[must_use]
pub fn attributed_self(spans: &[Span]) -> Vec<f64> {
    let own = self_times(spans);
    let mut child_sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            assert!((p as usize) < i, "parent recorded before child");
            child_sum[p as usize] += s.dur();
        }
    }
    let mut scale = vec![1.0f64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let p = p as usize;
            let covered = spans[p].dur() - own[p];
            scale[i] = if child_sum[p] == 0 {
                scale[p]
            } else {
                scale[p] * covered as f64 / child_sum[p] as f64
            };
        }
    }
    own.iter()
        .zip(&scale)
        .map(|(&o, &k)| o as f64 * k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t.x",
            start,
            end,
            parent,
            tick: None,
            session: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A fan-out span with two items that ran in parallel on two
        // threads ([10, 50] and [30, 80] overlap on [30, 50]), and a
        // nested grandchild.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(35, 45, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 70, 40, 50 - 10, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 10 - 5 - 2);
    }

    #[test]
    fn attributed_self_times_sum_to_the_root() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 80, Some(0)),
            span(35, 45, Some(2)),
            span(85, 95, Some(0)),
        ];
        let attributed = attributed_self(&spans);
        let total: f64 = attributed.iter().sum();
        assert!((total - 100.0).abs() < 1e-9, "sum {total}");
        // Serial children keep their own time; parallel ones share the
        // covered wall time.
        assert!((attributed[4] - 10.0 * 80.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn adopted_child_logs_are_reparented_and_reindexed() {
        let mut log = SpanLog::new();
        let root = log.open("serve.tick", At::default());
        let mut worker = log.child();
        let item = worker.open("core.advance", At::default().session(3));
        worker.record("eeg.board", At::default().under(item), || ());
        worker.close(item);
        log.adopt(worker, root);
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].session, Some(3));
        assert_eq!(spans[2].layer(), "eeg");
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
