//! The benchmark's own span recorder. Spans wrap calls into the
//! program's public functions from the outside; the program itself is not
//! instrumented. Spans are kept in memory and written out when the run
//! ends; with tracing off, [`Tracer::span`] only calls the closure.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded call: name, start and end (nanoseconds since the tracer
/// was created) and the index of the span that was open around it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans from one thread. Worker threads inside a call are
/// covered by the caller's span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Total seconds spent in spans called `name` under the root span `root`
/// (at any depth).
pub fn seconds_in(spans: &[Span], root: usize, name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| s.name == name && descends_from(spans, *i, root))
        .map(|(_, s)| s.seconds())
        .sum()
}

fn descends_from(spans: &[Span], mut i: usize, root: usize) -> bool {
    while let Some(p) = spans[i].parent {
        if p == root {
            return true;
        }
        i = p;
    }
    false
}

/// A span's duration minus the time its direct children cover. Children
/// of one span run one after another, so their durations add up.
pub fn self_seconds(spans: &[Span], index: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::seconds)
        .sum();
    spans[index].seconds() - children
}

/// The share of a root span's wall time its direct children cover, and,
/// when that share is short, the largest stretch no child covers, named
/// by the children on either side of it.
pub fn coverage(spans: &[Span], root: usize) -> (f64, Option<String>) {
    let r = &spans[root];
    let total = (r.end_ns - r.start_ns).max(1);
    let mut cursor = r.start_ns;
    let mut before = "start";
    let mut covered = 0u64;
    let mut widest: (u64, String) = (0, String::new());
    let children = spans.iter().filter(|s| s.parent == Some(root));
    for child in children.chain(std::iter::once(&Span {
        name: "end",
        start_ns: r.end_ns,
        end_ns: r.end_ns,
        parent: None,
    })) {
        let gap = child.start_ns.saturating_sub(cursor);
        if gap > widest.0 {
            widest = (gap, format!("between {before} and {}", child.name));
        }
        covered += child.end_ns - child.start_ns;
        cursor = child.end_ns;
        before = child.name;
    }
    let share = covered as f64 / total as f64;
    let untracked = (widest.0 > 0).then(|| {
        format!(
            "{:.1}% of {} is untracked {}",
            widest.0 as f64 / total as f64 * 100.0,
            r.name,
            widest.1
        )
    });
    (share, untracked)
}

/// The spans as one JSON document (name, start, end, parent, self time).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"self_s\": {}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            self_seconds(spans, i),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_cover_their_root() {
        let tracer = Tracer::new(true);
        tracer.span("root", || {
            tracer.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tracer.span("b", || {
                tracer.span("c", || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                })
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let (share, _) = coverage(&spans, 0);
        assert!(share > 0.95, "children cover {share}");
        assert!(seconds_in(&spans, 0, "c") >= 0.005);
        assert!(self_seconds(&spans, 2) < seconds_in(&spans, 0, "c"));
    }

    #[test]
    fn an_untracked_stretch_is_named() {
        let tracer = Tracer::new(true);
        tracer.span("root", || {
            tracer.span("a", || ());
            std::thread::sleep(std::time::Duration::from_millis(20));
            tracer.span("b", || ());
        });
        let (share, untracked) = coverage(&tracer.spans(), 0);
        assert!(share < 0.5);
        let untracked = untracked.expect("gap reported");
        assert!(untracked.contains("between a and b"), "{untracked}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
