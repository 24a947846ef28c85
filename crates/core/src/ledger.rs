//! The conservation ledger: LVRM's promise that no frame disappears
//! without a counter, as five exact identities over state the monitor
//! already owns (DESIGN.md §8, §9 and §14).
//!
//! ```text
//! (A) per VR:      frames_in == admitted + shed
//! (B) global:      frames_in == frames_out + unclassified + shed_early
//!                  + dispatch_drops + no_vri_drops + shrink_lost
//!                  + crash_lost + quarantined_drops
//!                  + data_queued + egress_queued
//! (C) dispatch:    Σ dispatched == Σ returned + data_queued + egress_queued
//!                  + reclaimed + queue_lost
//! (D) drops:       dispatch_drops == Σ per-VRI dispatch_drops
//! (E) replication: updates_emitted == updates_folded + updates_lost
//! ```
//!
//! The Σ terms run over live and draining VRIs, each VR's VLink shared
//! ring (one more dispatch target that never returns a frame itself), and
//! the `retired_*` aggregates of every instance since gone. The queued
//! terms are the frames in flight in those targets' incoming and outgoing
//! queues, so the ledger balances at every instant, not only on a drained
//! monitor. Rescued egress is counted in `frames_out` at rescue time and
//! so needs no term of its own. Because a checkpoint folds live instances
//! into the retired aggregates and charges in-flight frames as restart
//! loss, the ledger also balances across a warm restart, an HA promotion
//! and a fleet adoption.
//!
//! Two limits follow from reading only monitor-side state. A frame a VRI
//! has dequeued but not yet pushed back sits in neither queue, so on real
//! VRI threads the ledger is exact only while the instances are between
//! bursts. And a frame the VR itself decides to drop never comes back, so
//! (B) and (C) assume VRs that forward every frame they are given.
//!
//! [`Lvrm::ledger`](crate::monitor::Lvrm::ledger) is the one constructor.
//! The `metrics_invariants` suite keeps an independent derivation of the
//! same identities from the exported metrics, as the oracle for the scrape
//! endpoint.

use std::fmt;

use crate::monitor::LvrmStats;

/// One conservation identity: `lhs` must equal `rhs` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Identity {
    pub label: String,
    pub lhs: u64,
    pub rhs: u64,
}

impl Identity {
    pub fn holds(&self) -> bool {
        self.lhs == self.rhs
    }
}

impl fmt::Display for Identity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.holds() { "exact" } else { "DELTA" };
        write!(f, "{}: {} == {} [{tag}]", self.label, self.lhs, self.rhs)
    }
}

/// The five conservation identities of one monitor at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// (A) one identity per VR.
    pub admission: Vec<Identity>,
    /// (B) every frame in is out, queued, or in a named drop.
    pub global: Identity,
    /// (C) every frame dispatched is returned, queued, reclaimed or lost.
    pub dispatch: Identity,
    /// (D) the aggregate dispatch drops equal the per-VRI sum.
    pub drops: Identity,
    /// (E) every state-update record fanned out is folded or lost.
    pub replication: Identity,
}

impl Ledger {
    /// Every identity, (A) through (E).
    pub fn all(&self) -> impl Iterator<Item = &Identity> {
        self.admission.iter().chain([&self.global, &self.dispatch, &self.drops, &self.replication])
    }

    pub fn holds(&self) -> bool {
        self.all().all(Identity::holds)
    }

    /// Panic naming the first violated identity, with the whole ledger.
    pub fn assert_holds(&self, ctx: &str) {
        if let Some(bad) = self.all().find(|id| !id.holds()) {
            panic!("conservation identity '{}' violated {ctx}:\n{self}", bad.label);
        }
    }
}

/// One line per identity, each ending `[exact]` or `[DELTA]`.
impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, id) in self.all().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{id}")?;
        }
        Ok(())
    }
}

/// The per-VR and per-target sums [`Lvrm::ledger`] collects before closing
/// the books against [`LvrmStats`].
///
/// [`Lvrm::ledger`]: crate::monitor::Lvrm::ledger
#[derive(Default)]
pub(crate) struct Tally {
    admission: Vec<Identity>,
    dispatched: u64,
    returned: u64,
    dispatch_drops: u64,
    data_queued: u64,
    egress_queued: u64,
}

impl Tally {
    pub(crate) fn vr(&mut self, name: &str, frames_in: u64, admitted: u64, shed: u64) {
        self.admission.push(Identity {
            label: format!("(A) admission[{name}]"),
            lhs: frames_in,
            rhs: admitted + shed,
        });
    }

    /// One dispatch target: a live or draining VRI, or a shared ring.
    pub(crate) fn target(
        &mut self,
        dispatched: u64,
        returned: u64,
        dispatch_drops: u64,
        data_queued: usize,
        egress_queued: usize,
    ) {
        self.dispatched += dispatched;
        self.returned += returned;
        self.dispatch_drops += dispatch_drops;
        self.data_queued += data_queued as u64;
        self.egress_queued += egress_queued as u64;
    }

    pub(crate) fn close(self, s: &LvrmStats) -> Ledger {
        let in_flight = self.data_queued + self.egress_queued;
        let id = |label: &str, lhs: u64, rhs: u64| Identity { label: label.to_string(), lhs, rhs };
        Ledger {
            admission: self.admission,
            global: id(
                "(B) global",
                s.frames_in,
                s.frames_out
                    + s.unclassified
                    + s.shed_early
                    + s.dispatch_drops
                    + s.no_vri_drops
                    + s.shrink_lost
                    + s.crash_lost
                    + s.quarantined_drops
                    + in_flight,
            ),
            dispatch: id(
                "(C) dispatch",
                self.dispatched + s.retired_dispatched,
                self.returned + s.retired_returned + in_flight + s.reclaimed + s.queue_lost,
            ),
            drops: id(
                "(D) drops",
                s.dispatch_drops,
                self.dispatch_drops + s.retired_dispatch_drops,
            ),
            replication: id(
                "(E) replication",
                s.updates_emitted,
                s.updates_folded + s.updates_lost,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use lvrm_net::{Frame, FrameBuilder};

    use super::*;
    use crate::{
        AffinityMode, AllocatorKind, CoreId, CoreMap, CoreTopology, Lvrm, LvrmConfig, ManualClock,
        RecordingHost,
    };

    fn frame(last: u8) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, last), Ipv4Addr::new(10, 0, 2, 1)).udp(1, 2, &[])
    }

    /// (B)'s rhs without the in-flight terms, from the aggregate counters
    /// alone: it balances only on a drained monitor.
    fn stats_only_accounted(s: &LvrmStats) -> u64 {
        s.frames_out
            + s.unclassified
            + s.shed_early
            + s.dispatch_drops
            + s.no_vri_drops
            + s.shrink_lost
            + s.crash_lost
            + s.quarantined_drops
    }

    /// Frames parked in VRI queues (the SIGHUP case: a report taken while
    /// traffic flows) are on the ledger, first in the incoming data queues,
    /// then in the outgoing ones, and the books close once collected.
    #[test]
    fn ledger_counts_frames_in_flight() {
        const N: u64 = 12;
        let config =
            LvrmConfig { allocator: AllocatorKind::Fixed { cores: 2 }, ..Default::default() };
        let cores =
            CoreMap::new(CoreTopology::dual_quad_xeon(), CoreId(0), AffinityMode::SiblingFirst);
        let mut lvrm = Lvrm::new(config, cores, ManualClock::new());
        let mut host = RecordingHost::default();
        let routes = lvrm_router::parse_map_file("0.0.0.0/0 1\n").unwrap();
        let vr = Box::new(lvrm_router::FastVr::new("a", routes));
        lvrm.add_vr("a", &[(Ipv4Addr::new(10, 0, 1, 0), 24)], vr, &mut host);
        let mut burst: Vec<Frame> = (0..N).map(|i| frame(i as u8 + 1)).collect();
        lvrm.ingress_batch(&mut burst, &mut host);

        for stage in ["data queues", "egress queues"] {
            let ledger = lvrm.ledger();
            let s = lvrm.stats();
            assert!(ledger.holds(), "{stage}:\n{ledger}");
            assert_eq!(ledger.global.lhs, N, "{stage}");
            assert_eq!(ledger.global.rhs, N, "{stage}: (B) rhs counts the queued frames");
            assert_eq!(
                stats_only_accounted(&s) + N,
                s.frames_in,
                "{stage}: stats alone are N short"
            );
            host.pump();
        }

        let mut out = Vec::new();
        assert_eq!(lvrm.poll_egress(&mut out), N as usize);
        let ledger = lvrm.ledger();
        ledger.assert_holds("(collected)");
        assert_eq!(stats_only_accounted(&lvrm.stats()), N, "drained: stats alone balance");
    }

    #[test]
    fn display_tags_each_identity() {
        let id = |label: &str, lhs, rhs| Identity { label: label.to_string(), lhs, rhs };
        let balanced = Ledger {
            admission: vec![id("(A) admission[a]", 5, 5)],
            global: id("(B) global", 9, 9),
            dispatch: id("(C) dispatch", 4, 4),
            drops: id("(D) drops", 0, 0),
            replication: id("(E) replication", 0, 0),
        };
        let text = balanced.to_string();
        assert_eq!(text.lines().count(), 5, "{text}");
        assert!(text.lines().all(|l| l.ends_with("[exact]")), "{text}");
        assert!(text.contains("(B) global: 9 == 9 [exact]"), "{text}");

        let mut off = balanced.clone();
        off.global.rhs = 8;
        let text = off.to_string();
        assert!(!off.holds());
        assert!(text.contains("(B) global: 9 == 8 [DELTA]"), "{text}");
        assert_eq!(text.lines().filter(|l| l.ends_with("[DELTA]")).count(), 1, "{text}");
    }

    #[test]
    #[should_panic(expected = "conservation identity '(D) drops' violated (hand-built)")]
    fn assert_holds_names_the_broken_identity() {
        let id = |label: &str, lhs, rhs| Identity { label: label.to_string(), lhs, rhs };
        Ledger {
            admission: Vec::new(),
            global: id("(B) global", 1, 1),
            dispatch: id("(C) dispatch", 1, 1),
            drops: id("(D) drops", 2, 1),
            replication: id("(E) replication", 0, 0),
        }
        .assert_holds("(hand-built)");
    }
}
