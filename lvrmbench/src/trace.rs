//! Spans recorded by the bench around each public call of the driver loop.
//!
//! The untraced run uses [`NoTrace`], whose calls compile to nothing, so
//! end-to-end numbers never pay for tracing. The traced run uses
//! [`SpanTracer`]: one root span per loop iteration, one child span per
//! public call sharing the root's id and carrying a frame count. Per-kind
//! totals are kept for the whole run; the spans themselves go into a
//! bounded buffer that is written out at exit.

use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// One driver-loop iteration (the root).
    Iter,
    /// Generator: hand due frames to the far end of the ingress ring.
    Gen,
    /// `SupervisedAdapter::poll_batch`.
    Rx,
    /// Stamp `ts_ns`/`ingress_if`, as lvrmd does.
    Stamp,
    /// `Lvrm::ingress_batch`.
    Ingress,
    /// `FaultyHost::apply`.
    Faults,
    /// `SupervisedAdapter::tick`.
    NicTick,
    /// `Lvrm::process_control`.
    Control,
    /// `Lvrm::maybe_reallocate`.
    Realloc,
    /// `Lvrm::poll_egress`.
    Egress,
    /// `SupervisedAdapter::send_batch`.
    Tx,
    /// `Lvrm::take_tick_line` (and the adapter metrics publish it triggers).
    TickLine,
    /// Read the far end of the egress ring and check each frame.
    Sink,
    /// `Lvrm::render_prometheus`.
    Scrape,
}

pub const KINDS: usize = Kind::Scrape as usize + 1;

impl Kind {
    pub fn name(self) -> &'static str {
        [
            "iter",
            "gen",
            "rx",
            "stamp",
            "ingress",
            "faults",
            "nic_tick",
            "control",
            "realloc",
            "egress",
            "tx",
            "tick_line",
            "sink",
            "scrape",
        ][self as usize]
    }
}

/// No parent: the root span of an iteration.
pub const ROOT: u16 = u16::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Id of the iteration (root) this span belongs to.
    pub id: u32,
    /// Index of the parent within the iteration's spans, or [`ROOT`].
    pub parent: u16,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
    pub frames: u32,
}

/// Self time of each span in `spans` (one tree, parents referenced by
/// index): its duration minus the part of it that its children cover.
/// `covered` is scratch space, reused so the traced loop does not allocate.
pub fn self_times(spans: &[Span], out: &mut [u64], covered: &mut Vec<(u64, u64)>) {
    for (i, s) in spans.iter().enumerate() {
        covered.clear();
        covered.extend(
            spans
                .iter()
                .filter(|c| c.parent as usize == i)
                .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                .filter(|(a, b)| a < b),
        );
        covered.sort_unstable();
        let (mut union, mut reach) = (0, s.start);
        for (a, b) in covered.iter() {
            let a = (*a).max(reach);
            if *b > a {
                union += b - a;
                reach = *b;
            }
        }
        out[i] = (s.end - s.start) - union;
    }
}

/// Spans kept for writing out; further spans are counted, not stored.
pub struct SpanBuf {
    spans: Vec<Span>,
    cap: usize,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(cap: usize) -> SpanBuf {
        SpanBuf { spans: Vec::with_capacity(cap), cap, dropped: 0 }
    }

    pub fn push(&mut self, s: Span) {
        if self.spans.len() < self.cap {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_csv(&self) -> String {
        let mut out = String::from("iter,parent,kind,start_ns,end_ns,frames\n");
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            out += &format!(
                "{},{},{},{},{},{}\n",
                s.id,
                parent,
                s.kind.name(),
                s.start,
                s.end,
                s.frames
            );
        }
        out
    }
}

/// Whole-run totals of one span kind.
#[derive(Clone, Copy, Default, Debug)]
pub struct KindTotal {
    pub calls: u64,
    pub self_ns: u64,
    /// Self time of the calls that carried at least one frame.
    pub busy_ns: u64,
    pub frames: u64,
}

pub trait Tracer {
    /// Start an iteration; returns the time the first call starts.
    fn begin(&mut self) -> u64;
    /// Close the span of `kind` that started at `start`; returns its end,
    /// which is where the next call starts.
    fn span(&mut self, kind: Kind, start: u64, frames: usize) -> u64;
    /// Close the iteration. `busy` marks one that moved frames.
    fn end(&mut self, busy: bool);
}

/// Tracing off: no clock reads, no stores.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn begin(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn span(&mut self, _: Kind, _: u64, _: usize) -> u64 {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: bool) {}
}

pub struct SpanTracer {
    epoch: Instant,
    iter: u32,
    cur: Vec<Span>,
    self_scratch: Vec<u64>,
    covered: Vec<(u64, u64)>,
    pub totals: [KindTotal; KINDS],
    /// Root time of iterations that moved frames.
    pub busy_ns: u64,
    /// Per-iteration control time: process_control + maybe_reallocate + tick.
    pub control: crate::hist::Histogram,
    pub buf: SpanBuf,
}

impl SpanTracer {
    pub fn new(epoch: Instant, cap: usize) -> SpanTracer {
        SpanTracer {
            epoch,
            iter: 0,
            cur: Vec::with_capacity(KINDS),
            self_scratch: vec![0; KINDS],
            covered: Vec::with_capacity(KINDS),
            totals: [KindTotal::default(); KINDS],
            busy_ns: 0,
            control: crate::hist::Histogram::default(),
            buf: SpanBuf::new(cap),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn total(&self, k: Kind) -> KindTotal {
        self.totals[k as usize]
    }
}

impl Tracer for SpanTracer {
    fn begin(&mut self) -> u64 {
        let t = self.now();
        self.cur.clear();
        self.cur.push(Span {
            id: self.iter,
            parent: ROOT,
            kind: Kind::Iter,
            start: t,
            end: t,
            frames: 0,
        });
        t
    }

    fn span(&mut self, kind: Kind, start: u64, frames: usize) -> u64 {
        let end = self.now();
        self.cur.push(Span { id: self.iter, parent: 0, kind, start, end, frames: frames as u32 });
        end
    }

    fn end(&mut self, busy: bool) {
        let end = self.now();
        self.cur[0].end = end;
        let n = self.cur.len();
        self_times(&self.cur, &mut self.self_scratch[..n], &mut self.covered);
        let mut control = 0;
        for (s, self_ns) in self.cur.iter().zip(&self.self_scratch) {
            let t = &mut self.totals[s.kind as usize];
            t.calls += 1;
            t.self_ns += self_ns;
            t.frames += s.frames as u64;
            if s.frames > 0 {
                t.busy_ns += self_ns;
            }
            if matches!(s.kind, Kind::Control | Kind::Realloc | Kind::TickLine) {
                control += s.end - s.start;
            }
            self.buf.push(*s);
        }
        self.control.record(control);
        if busy {
            self.busy_ns += end - self.cur[0].start;
        }
        self.iter = self.iter.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u16, start: u64, end: u64) -> Span {
        Span { id: 1, parent, kind: Kind::Gen, start, end, frames: 0 }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        // root [0,100) has children [10,40) and [50,70); each has one
        // grandchild.
        let mut spans = vec![
            span(ROOT, 0, 100),
            span(0, 10, 40),
            span(1, 20, 30),
            span(0, 50, 70),
            span(3, 52, 60),
        ];
        let mut out = [0u64; 6];
        let mut scratch = Vec::new();
        self_times(&spans, &mut out[..5], &mut scratch);
        assert_eq!(out[..5], [50, 20, 10, 12, 8]);
        // Self times of a tree without overlaps sum to the root's duration.
        assert_eq!(out.iter().sum::<u64>(), 100);
        // Overlapping children are covered once, by their union [52,65).
        spans.push(span(3, 55, 65));
        self_times(&spans, &mut out, &mut scratch);
        assert_eq!(out, [50, 20, 10, 7, 8, 10]);
    }

    #[test]
    fn a_child_outside_its_parent_is_clipped() {
        let spans = [span(ROOT, 10, 20), span(0, 5, 15)];
        let mut out = [0u64; 2];
        self_times(&spans, &mut out, &mut Vec::new());
        assert_eq!(out[0], 5);
    }

    #[test]
    fn span_buffer_stays_bounded() {
        let mut buf = SpanBuf::new(100);
        for i in 0..1_000 {
            buf.push(span(ROOT, i, i + 1));
        }
        assert_eq!(buf.spans().len(), 100);
        assert_eq!(buf.dropped, 900);
        assert_eq!(buf.spans.capacity(), 100, "no growth past the bound");
        assert_eq!(buf.to_csv().lines().count(), 101);
    }

    #[test]
    fn tracer_totals_cover_each_iteration() {
        let mut t = SpanTracer::new(Instant::now(), 16);
        for _ in 0..10 {
            let s = t.begin();
            let s = t.span(Kind::Rx, s, 3);
            t.span(Kind::Ingress, s, 3);
            t.end(true);
        }
        let root = t.total(Kind::Iter);
        assert_eq!(root.calls, 10);
        assert_eq!(t.total(Kind::Rx).frames, 30);
        assert_eq!(t.total(Kind::Rx).busy_ns, t.total(Kind::Rx).self_ns);
        assert_eq!(t.total(Kind::Iter).busy_ns, 0, "the root carries no frames");
        assert_eq!(t.buf.spans().len(), 16);
        assert_eq!(t.buf.dropped, 14);
        let sum: u64 = t.totals.iter().map(|k| k.self_ns).sum();
        assert_eq!(sum, t.busy_ns, "self times add up to the iterations");
    }
}
