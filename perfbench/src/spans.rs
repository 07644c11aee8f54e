//! The benchmark's own span recorder.
//!
//! Traced runs open one span around each public call the benchmark
//! makes into a layer (name, start, end, parent). Spans stay in a
//! thread-local buffer until the run ends and are then summarised per
//! name into a count, busy time and self time (busy time minus the
//! time covered by child spans). The program itself is not
//! instrumented: every span sits at a call boundary the benchmark owns.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// An open span; it closes when dropped.
pub struct Guard {
    id: usize,
}

impl Guard {
    /// Renames the span, for calls whose outcome decides the name.
    pub fn rename(&self, name: &'static str) {
        RECORDER.with(|r| r.borrow_mut().spans[self.id].name = name);
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[self.id].end = end;
            r.open.pop();
        });
    }
}

/// Opens a span nested under the innermost open span of this thread.
pub fn enter(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let now = Instant::now();
        let parent = r.open.last().copied();
        let id = r.spans.len();
        r.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        r.open.push(id);
        Guard { id }
    })
}

/// Takes every closed span recorded on this thread so far.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "spans still open");
        std::mem::take(&mut r.spans)
    })
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub busy_s: f64,
    pub self_s: f64,
}

pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_s = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p] += s.seconds();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_s) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_s += s.seconds();
        t.self_s += s.seconds() - children;
    }
    out
}
