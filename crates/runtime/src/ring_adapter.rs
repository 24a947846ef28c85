//! A PF_RING-style shared-ring socket adapter.
//!
//! PF_RING's essence (the paper's §3.1): a memory-mapped ring the
//! application polls directly, with zero per-frame kernel allocation and —
//! since PF_RING 3.7.5 / LVRM 1.1 — a send path through the same mechanism
//! (`pfring_send`). Our stand-in is an in-process pair of lock-free rings
//! built on the same Lamport queues LVRM uses for IPC: polling is a plain
//! memory read, sending is a ring push, and no syscall or copy-into-kernel
//! happens per frame (contrast with [`crate::UdpAdapter`], the raw-socket
//! stand-in).
//!
//! A full transmit ring is back-pressure, not loss: `send` hands the frame
//! back as a [`SendRejected`] with `WouldBlock`, and `send_batch` leaves the
//! refused tail in the caller's vector. The drop decision belongs to the
//! layer above (the adapter supervisor's retry deadline).

use lvrm_core::socket::{AdapterError, SendRejected, SocketAdapter, SocketKind};
use lvrm_ipc::{LamportQueue, LamportReceiver, LamportSender};
use lvrm_net::Frame;

/// One endpoint of a zero-copy ring pair.
pub struct RingAdapter {
    rx: LamportReceiver<Frame>,
    tx: LamportSender<Frame>,
    rx_count: u64,
    tx_count: u64,
}

impl RingAdapter {
    /// Create a cross-wired pair of ring endpoints with `capacity` slots per
    /// direction: frames sent on one side arrive at the other.
    pub fn pair(capacity: usize) -> (RingAdapter, RingAdapter) {
        let (a_tx, b_rx) = LamportQueue::with_capacity(capacity);
        let (b_tx, a_rx) = LamportQueue::with_capacity(capacity);
        (
            RingAdapter { rx: a_rx, tx: a_tx, rx_count: 0, tx_count: 0 },
            RingAdapter { rx: b_rx, tx: b_tx, rx_count: 0, tx_count: 0 },
        )
    }

    /// Frames waiting in the receive ring.
    pub fn rx_pending(&self) -> usize {
        self.rx.len()
    }
}

impl SocketAdapter for RingAdapter {
    fn poll(&mut self) -> Result<Frame, AdapterError> {
        match self.rx.try_recv() {
            Some(f) => {
                self.rx_count += 1;
                Ok(f)
            }
            None => Err(AdapterError::WouldBlock),
        }
    }

    fn poll_batch(&mut self, out: &mut Vec<Frame>, budget: usize) -> Result<usize, AdapterError> {
        // Native bulk drain: one consumer-index publication per burst. An
        // empty ring is the ordinary idle case, `Ok(0)`.
        let n = self.rx.try_recv_batch(out, budget);
        self.rx_count += n as u64;
        Ok(n)
    }

    fn send(&mut self, frame: Frame) -> Result<(), SendRejected> {
        match self.tx.try_send(frame) {
            Ok(()) => {
                self.tx_count += 1;
                Ok(())
            }
            Err(lvrm_ipc::Full(frame)) => {
                Err(SendRejected { frame, error: AdapterError::WouldBlock })
            }
        }
    }

    fn send_batch(&mut self, frames: &mut Vec<Frame>) -> Result<usize, AdapterError> {
        // Native bulk push; the refused tail stays in `frames`, in order.
        let accepted = self.tx.try_send_batch(frames);
        self.tx_count += accepted as u64;
        Ok(accepted)
    }

    /// Re-attaching a process-local ring is a no-op — the mapping is intact
    /// and nothing was torn down — so a reopen always succeeds. (What this
    /// buys in practice: a fault-injection wrapper above clears its injected
    /// crash/stall on reopen, modeling a ring re-map after a NIC reset.)
    fn reopen(&mut self) -> Result<(), AdapterError> {
        Ok(())
    }

    fn kind(&self) -> SocketKind {
        SocketKind::PfRing
    }

    fn rx_count(&self) -> u64 {
        self.rx_count
    }

    fn tx_count(&self) -> u64 {
        self.tx_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;
    use std::net::Ipv4Addr;

    fn frame(tag: u8) -> Frame {
        FrameBuilder::new(Ipv4Addr::new(10, 0, 1, 1), Ipv4Addr::new(10, 0, 2, 1))
            .udp(100, 200, &[tag; 4])
    }

    #[test]
    fn pair_roundtrips_without_syscalls() {
        let (mut a, mut b) = RingAdapter::pair(64);
        a.send(frame(1)).unwrap();
        a.send(frame(2)).unwrap();
        assert_eq!(b.rx_pending(), 2);
        assert_eq!(b.poll().unwrap().udp().unwrap().payload(), &[1u8; 4]);
        assert_eq!(b.poll().unwrap().udp().unwrap().payload(), &[2u8; 4]);
        assert!(matches!(b.poll(), Err(AdapterError::WouldBlock)));
        assert_eq!(a.tx_count(), 2);
        assert_eq!(b.rx_count(), 2);
    }

    #[test]
    fn both_directions_work() {
        let (mut a, mut b) = RingAdapter::pair(8);
        a.send(frame(1)).unwrap();
        b.send(frame(2)).unwrap();
        assert!(b.poll().is_ok());
        assert!(a.poll().is_ok());
    }

    #[test]
    fn full_ring_hands_the_frame_back() {
        let (mut a, _b) = RingAdapter::pair(2);
        a.send(frame(1)).unwrap();
        a.send(frame(2)).unwrap();
        let SendRejected { frame: back, error } = a.send(frame(3)).unwrap_err();
        assert!(error.is_would_block(), "full ring is back-pressure, not a fault");
        assert_eq!(back.udp().unwrap().payload(), &[3u8; 4], "refused frame survives");
        assert_eq!(a.tx_count(), 2);
    }

    #[test]
    fn batch_ops_match_per_frame_counters() {
        let (mut a, mut b) = RingAdapter::pair(8);
        let mut burst: Vec<Frame> = (0..12).map(|i| frame(i as u8)).collect();
        assert_eq!(a.send_batch(&mut burst).unwrap(), 8, "ring capacity caps the burst");
        assert_eq!(burst.len(), 4, "refused tail stays with the caller");
        assert_eq!(burst[0].udp().unwrap().payload(), &[8u8; 4], "tail is in order");
        assert_eq!(a.tx_count(), 8);
        let mut out = Vec::new();
        assert_eq!(b.poll_batch(&mut out, 5).unwrap(), 5);
        assert_eq!(b.poll_batch(&mut out, 5).unwrap(), 3);
        assert_eq!(b.rx_count(), 8);
        for (i, f) in out.iter().enumerate() {
            assert_eq!(f.udp().unwrap().payload(), &[i as u8; 4], "FIFO order");
        }
    }

    #[test]
    fn kind_reports_pfring_profile() {
        let (a, _b) = RingAdapter::pair(4);
        assert_eq!(a.kind(), SocketKind::PfRing);
    }

    #[test]
    fn works_cross_thread() {
        let (mut a, mut b) = RingAdapter::pair(128);
        let t = std::thread::spawn(move || {
            for i in 0..1000u32 {
                let mut f = frame((i % 256) as u8);
                loop {
                    match a.send(f) {
                        Ok(()) => break,
                        Err(SendRejected { frame: back, .. }) => {
                            f = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
            a.tx_count()
        });
        let mut got = 0u64;
        while got < 1000 {
            if b.poll().is_ok() {
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        assert_eq!(t.join().unwrap(), 1000);
    }
}
