//! Inter-process communication queues for LVRM (paper §3.5).
//!
//! LVRM and each VRI exchange frames and control events through bounded FIFO
//! queues placed in shared memory. The paper stresses that IPC must be cheap:
//! its prototype uses **lock-free synchronization** after Lamport's proof that
//! a single-producer/single-consumer ring buffer is correct without locks,
//! and cites FastForward-style cache-optimized variants as drop-in upgrades.
//!
//! The runtime uses one ring per queue shape:
//!
//! * [`LamportQueue`] — the classic SPSC ring with shared head/tail indices,
//!   published with Acquire/Release atomics (the paper's default, \[23\]).
//!   Every point-to-point queue is one: per-VRI data and control, and the
//!   in-process NIC ring.
//! * [`VLinkQueue`] — a bounded MPMC ring, used only as a VR's shared
//!   ingress ring that its VRIs steal bursts from (the VLink fabric).
//!
//! Two more rings exist only for the queue ablation (`ipc_queue` bench,
//! `bench-report` `queue_ops` rows, property tests), which construct them
//! directly; see [`for_each_ring!`]:
//!
//! * [`FastForwardQueue`] — a slot-flag ring in which producer and consumer
//!   never share an index cache line (the paper's cited upgrade \[17\]);
//! * [`MutexQueue`] — a lock-based baseline that justifies the lock-free
//!   choice.
//!
//! Endpoints are **typed**: a queue splits into a sender and a receiver,
//! each `Send` but deliberately not `Clone`/`Sync` for the SPSC rings, so the
//! single-producer/single-consumer contract is enforced by the type system
//! rather than by discipline. [`QueueKind`] picks the dispatch fabric at run
//! time: pinned per-VRI queues or the shared stealing ring.
//!
//! The [`channels`] module bundles queues into the shapes LVRM needs: a
//! bidirectional data-plane pair plus a control pair per VRI, with the
//! control queue given strict priority (paper §2.1: "each VRI first processes
//! any control event available in its incoming control queue").

pub mod channels;
pub mod fastforward;
pub mod lamport;
pub mod mutexq;
pub mod vlink;

pub use channels::{Attachment, ControlEvent, VriChannels, VriEndpoint};
pub use fastforward::FastForwardQueue;
pub use lamport::{LamportQueue, LamportReceiver, LamportSender};
pub use mutexq::MutexQueue;
pub use vlink::{VLinkQueue, VLinkReceiver, VLinkSender};

/// Which dispatch fabric to run (extensibility dimension §3.5). Every
/// point-to-point queue is a Lamport ring either way; the kind decides only
/// whether a VR's frames are pinned to per-VRI queues or published to one
/// shared ring its VRIs steal from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum QueueKind {
    /// Pinned dispatch over per-VRI Lamport SPSC rings (the paper's default).
    #[default]
    Lamport,
    /// Virtual-Link-style bounded MPMC ring: under `lvrm-core` it enables the
    /// shared per-VR ingress ring that VRIs steal bursts from.
    VLink,
}

/// Error returned when a queue-kind name doesn't parse; carries the names
/// that would have.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownQueueKind(pub String);

impl std::fmt::Display for UnknownQueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown queue kind {:?} (expected one of", self.0)?;
        for kind in QueueKind::ALL {
            write!(f, " {}", kind.as_str())?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for UnknownQueueKind {}

impl QueueKind {
    /// All variants, for sweeps and ablations.
    pub const ALL: [QueueKind; 2] = [QueueKind::Lamport, QueueKind::VLink];

    /// Canonical name: the single source of truth for every flag, config
    /// directive, env filter, and bench label. [`QueueKind::from_str`] is the
    /// inverse; `QueueKind::ALL` round-trips through the pair.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Lamport => "lamport",
            QueueKind::VLink => "vlink",
        }
    }
}

impl std::str::FromStr for QueueKind {
    type Err = UnknownQueueKind;

    fn from_str(s: &str) -> Result<QueueKind, UnknownQueueKind> {
        QueueKind::ALL
            .into_iter()
            .find(|kind| kind.as_str() == s)
            .ok_or_else(|| UnknownQueueKind(s.to_string()))
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Pressure level derived from a queue's occupancy against [`Watermarks`].
///
/// Ordered so that an aggregate over several queues is simply the `max`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum PressureLevel {
    /// Occupancy at or below the low watermark.
    #[default]
    Normal,
    /// Occupancy between the watermarks: elevated, but admission continues.
    Pressured,
    /// Occupancy at or above the high watermark: the consumer is not keeping
    /// up and new work is liable to tail-drop.
    Overloaded,
}

impl PressureLevel {
    pub fn name(self) -> &'static str {
        match self {
            PressureLevel::Normal => "normal",
            PressureLevel::Pressured => "pressured",
            PressureLevel::Overloaded => "overloaded",
        }
    }
}

/// High/low occupancy watermarks, as fractions of queue capacity.
///
/// `classify` is stateless; the hysteresis between the two marks lives in the
/// caller's state machine (see `lvrm-core`'s `PressureTracker`): a queue only
/// leaves `Overloaded` once it drains back below `low`, so the band between
/// the marks absorbs occupancy jitter instead of flapping the signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Watermarks {
    /// Fraction of capacity at or below which the queue is `Normal`.
    pub low: f64,
    /// Fraction of capacity at or above which the queue is `Overloaded`.
    pub high: f64,
}

impl Watermarks {
    pub const fn new(low: f64, high: f64) -> Watermarks {
        Watermarks { low, high }
    }

    /// Stateless classification of `len` queued items out of `capacity`.
    pub fn classify(&self, len: usize, capacity: usize) -> PressureLevel {
        let occ = occupancy(len, capacity);
        if occ >= self.high {
            PressureLevel::Overloaded
        } else if occ > self.low {
            PressureLevel::Pressured
        } else {
            PressureLevel::Normal
        }
    }
}

impl Default for Watermarks {
    fn default() -> Self {
        // Overload at 3/4 full, recover once drained back to 1/4.
        Watermarks { low: 0.25, high: 0.75 }
    }
}

/// Occupancy fraction of a queue (`len / capacity`, 0.0 for zero capacity).
pub fn occupancy(len: usize, capacity: usize) -> f64 {
    if capacity == 0 {
        0.0
    } else {
        len as f64 / capacity as f64
    }
}

/// Error returned by `try_send` when the queue is full; carries the item back.
#[derive(Debug, PartialEq, Eq)]
pub struct Full<T>(pub T);

/// Sending endpoint of a queue picked by [`QueueKind`] at run time (the
/// runtime itself names [`LamportSender`] and [`VLinkSender`] directly).
///
/// `&mut self` on [`Sender::try_send`] enforces single-producer use.
pub enum Sender<T> {
    Lamport(lamport::LamportSender<T>),
    VLink(vlink::VLinkSender<T>),
}

/// Receiving endpoint matching [`Sender`].
pub enum Receiver<T> {
    Lamport(lamport::LamportReceiver<T>),
    VLink(vlink::VLinkReceiver<T>),
}

impl<T: Send> Sender<T> {
    /// Enqueue `item`, or give it back if the queue is full.
    #[inline]
    pub fn try_send(&mut self, item: T) -> Result<(), Full<T>> {
        match self {
            Sender::Lamport(s) => s.try_send(item),
            Sender::VLink(s) => s.try_send(item),
        }
    }

    /// Enqueue up to `items.len()` items in one burst, draining the accepted
    /// prefix from `items`. Returns how many were accepted (possibly 0).
    ///
    /// Both rings publish their producer index **once per burst** instead of
    /// once per item.
    #[inline]
    pub fn try_send_batch(&mut self, items: &mut Vec<T>) -> usize {
        match self {
            Sender::Lamport(s) => s.try_send_batch(items),
            Sender::VLink(s) => s.try_send_batch(items),
        }
    }

    /// Current number of queued items, as observable from the producer side.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Sender::Lamport(s) => s.len(),
            Sender::VLink(s) => s.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity (maximum number of buffered items).
    #[inline]
    pub fn capacity(&self) -> usize {
        match self {
            Sender::Lamport(s) => s.capacity(),
            Sender::VLink(s) => s.capacity(),
        }
    }
}

impl<T: Send> Receiver<T> {
    /// Dequeue the next item, if any.
    #[inline]
    pub fn try_recv(&mut self) -> Option<T> {
        match self {
            Receiver::Lamport(r) => r.try_recv(),
            Receiver::VLink(r) => r.try_recv(),
        }
    }

    /// Dequeue up to `max` items in one burst, appending them to `out`.
    /// Returns how many were received (possibly 0). Index/counter publication
    /// is amortized over the burst, mirroring [`Sender::try_send_batch`].
    #[inline]
    pub fn try_recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        match self {
            Receiver::Lamport(r) => r.try_recv_batch(out, max),
            Receiver::VLink(r) => r.try_recv_batch(out, max),
        }
    }

    /// Current number of queued items, as observable from the consumer side.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Receiver::Lamport(r) => r.len(),
            Receiver::VLink(r) => r.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Create a queue of `capacity` items using ring `kind`.
pub fn queue<T: Send>(kind: QueueKind, capacity: usize) -> (Sender<T>, Receiver<T>) {
    match kind {
        QueueKind::Lamport => {
            let (s, r) = lamport::LamportQueue::with_capacity(capacity);
            (Sender::Lamport(s), Receiver::Lamport(r))
        }
        QueueKind::VLink => {
            let (s, r) = vlink::VLinkQueue::with_capacity(capacity);
            (Sender::VLink(s), Receiver::VLink(r))
        }
    }
}

/// Expand `$body` once per ring in this crate — Lamport, FastForward, mutex
/// and VLink, in that order — with `$label` bound to the ring's bench label
/// and `$new` to a `capacity -> (tx, rx)` constructor for it. The queue
/// ablation (benches and property tests) sweeps all four this way; the
/// runtime uses only the Lamport and VLink rings.
#[macro_export]
macro_rules! for_each_ring {
    (|$label:ident, $new:ident| $body:block) => {{
        {
            let ($label, $new) =
                ("lamport", |cap: usize| $crate::queue($crate::QueueKind::Lamport, cap));
            $body
        }
        {
            let ($label, $new) = ("fastforward", $crate::FastForwardQueue::with_capacity);
            $body
        }
        {
            let ($label, $new) = ("mutex", $crate::MutexQueue::with_capacity);
            $body
        }
        {
            let ($label, $new) =
                ("vlink", |cap: usize| $crate::queue($crate::QueueKind::VLink, cap));
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_roundtrip() {
        for kind in QueueKind::ALL {
            let (mut tx, mut rx) = queue::<u32>(kind, 4);
            assert!(tx.is_empty());
            tx.try_send(7).unwrap();
            tx.try_send(8).unwrap();
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.try_recv(), Some(7));
            assert_eq!(rx.try_recv(), Some(8));
            assert_eq!(rx.try_recv(), None);
        }
    }

    #[test]
    fn full_returns_item() {
        for kind in QueueKind::ALL {
            let (mut tx, _rx) = queue::<u32>(kind, 2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            match tx.try_send(3) {
                Err(Full(v)) => assert_eq!(v, 3),
                Ok(()) => panic!("{:?} accepted item beyond capacity", kind.as_str()),
            }
        }
    }

    #[test]
    fn capacity_reported() {
        for kind in QueueKind::ALL {
            let (tx, _rx) = queue::<u32>(kind, 8);
            assert!(tx.capacity() >= 8, "{}", kind.as_str());
        }
    }

    #[test]
    fn all_kinds_batch_roundtrip() {
        for kind in QueueKind::ALL {
            let (mut tx, mut rx) = queue::<u32>(kind, 4);
            let mut items: Vec<u32> = (0..6).collect();
            assert_eq!(tx.try_send_batch(&mut items), 4, "{}", kind.as_str());
            assert_eq!(items, vec![4, 5], "{}", kind.as_str());
            let mut out = Vec::new();
            assert_eq!(rx.try_recv_batch(&mut out, 10), 4, "{}", kind.as_str());
            assert_eq!(out, vec![0, 1, 2, 3], "{}", kind.as_str());
            assert_eq!(tx.try_send_batch(&mut items), 2, "{}", kind.as_str());
            assert_eq!(rx.try_recv_batch(&mut out, 1), 1, "{}", kind.as_str());
            assert_eq!(out.last(), Some(&4), "{}", kind.as_str());
        }
    }

    #[test]
    fn watermarks_classify_by_occupancy() {
        let wm = Watermarks::new(0.25, 0.75);
        assert_eq!(wm.classify(0, 100), PressureLevel::Normal);
        assert_eq!(wm.classify(25, 100), PressureLevel::Normal, "low mark inclusive");
        assert_eq!(wm.classify(26, 100), PressureLevel::Pressured);
        assert_eq!(wm.classify(74, 100), PressureLevel::Pressured);
        assert_eq!(wm.classify(75, 100), PressureLevel::Overloaded, "high mark inclusive");
        assert_eq!(wm.classify(100, 100), PressureLevel::Overloaded);
        assert_eq!(wm.classify(10, 0), PressureLevel::Normal, "zero capacity never signals");
    }

    #[test]
    fn pressure_levels_order_for_max_aggregation() {
        assert!(PressureLevel::Normal < PressureLevel::Pressured);
        assert!(PressureLevel::Pressured < PressureLevel::Overloaded);
        let worst = [PressureLevel::Pressured, PressureLevel::Normal, PressureLevel::Overloaded]
            .into_iter()
            .max()
            .unwrap();
        assert_eq!(worst, PressureLevel::Overloaded);
    }

    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            QueueKind::ALL.iter().map(|k| k.as_str()).collect();
        assert_eq!(names.len(), QueueKind::ALL.len());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in QueueKind::ALL {
            assert_eq!(kind.as_str().parse::<QueueKind>(), Ok(kind));
            assert_eq!(kind.to_string().parse::<QueueKind>(), Ok(kind));
        }
        let err = "no-such-ring".parse::<QueueKind>().unwrap_err();
        assert_eq!(err, UnknownQueueKind("no-such-ring".to_string()));
        for kind in QueueKind::ALL {
            assert!(err.to_string().contains(kind.as_str()), "error lists every valid name");
        }
    }
}
