//! lvrmd's `--self-test` dataplane, replayed on real VRI threads.
//!
//! One driver thread is both the traffic generator and lvrmd's main loop:
//! each iteration calls the same public functions in the same order as
//! `run()` in `src/bin/lvrmd.rs`, with the bench's own frame source in
//! front and its own sink and checks behind. Nothing inside the program is
//! instrumented; the [`Tracer`] wraps each call from outside.

use std::time::Instant;

use lvrm_click::ClickVr;
use lvrm_core::config::AllocatorKind;
use lvrm_core::{
    AffinityMode, Clock, CoreId, CoreMap, CoreTopology, FaultPlan, FaultyHost, FaultySocket, Lvrm,
    LvrmConfig, LvrmStats, MonotonicClock, SocketAdapter, SupervisedAdapter, VrId,
};
use lvrm_net::Frame;
use lvrm_router::{Route, RouteTable, VirtualRouter};
use lvrm_runtime::{RingAdapter, ThreadHost};

use crate::hist::Histogram;
use crate::trace::{Kind, NoTrace, Tracer};
use crate::workload::{due_count, tag_of, Inputs, LoopKind, RouterKind, Spec, EGRESS_IF, POOL};

/// Slots per direction of the in-memory NIC ring pair (as in lvrmd).
const RING_SLOTS: usize = 8192;
/// Most frames the generator hands over in one iteration.
const GEN_BURST: usize = 1024;

/// The monitor configuration of `spec`: shipping defaults, one fixed core.
pub fn lvrm_config(spec: &Spec) -> LvrmConfig {
    LvrmConfig {
        allocator: AllocatorKind::Fixed { cores: 1 },
        batch_size: spec.batch,
        flow_based: spec.flow_based,
        ..LvrmConfig::default()
    }
}

/// The workload's virtual router. For Click this compiles the graph.
pub fn build_router(spec: &Spec, inputs: &Inputs) -> Box<dyn VirtualRouter> {
    match spec.router {
        RouterKind::Fast => {
            let mut routes = RouteTable::new();
            routes.insert(Route {
                prefix: std::net::Ipv4Addr::UNSPECIFIED,
                len: 0,
                iface: EGRESS_IF,
                next_hop: None,
            });
            Box::new(lvrm_router::FastVr::new(spec.name, routes))
        }
        RouterKind::ClickIp => Box::new(
            ClickVr::from_config(spec.name, inputs.click_config.as_deref().expect("click text"))
                .expect("the generated Click configuration compiles"),
        ),
    }
}

pub struct Dataplane {
    pub lvrm: Lvrm<MonotonicClock>,
    pub host: FaultyHost<ThreadHost>,
    pub nic: SupervisedAdapter,
    pub far: RingAdapter,
    pub clock: MonotonicClock,
    pub vr: VrId,
}

impl Dataplane {
    /// Monitor, VR (router build included), classifier, VRI spawn and the
    /// supervised NIC, as lvrmd's `run()` sets them up.
    pub fn build(spec: &Spec, inputs: &Inputs) -> Dataplane {
        let config = lvrm_config(spec);
        let clock = MonotonicClock::new();
        let n = lvrm_runtime::affinity::available_cores().max(1) as u16;
        let cores = CoreMap::new(
            CoreTopology::single_package(n),
            CoreId(0),
            if n > 1 { AffinityMode::SiblingFirst } else { AffinityMode::Same },
        );
        let batch = config.batch_size.max(1);
        let supervisor = config.adapter_supervisor();
        let mut lvrm = Lvrm::new(config, cores, clock.clone());
        let mut host = FaultyHost::new(
            ThreadHost::new(clock.clone()).with_batch_size(batch),
            FaultPlan::new(),
        );
        let vr = lvrm.add_vr(spec.name, &inputs.subnets, build_router(spec, inputs), &mut host);
        let (primary, far) = RingAdapter::pair(RING_SLOTS);
        let chain: Vec<Box<dyn SocketAdapter>> =
            vec![Box::new(FaultySocket::with_plan(primary, &FaultPlan::new()))];
        let nic = SupervisedAdapter::with_chain(chain, supervisor);
        Dataplane { lvrm, host, nic, far, clock, vr }
    }
}

/// Frames lost inside the monitor, by its own books.
pub fn monitor_losses(s: &LvrmStats) -> u64 {
    s.dispatch_drops
        + s.no_vri_drops
        + s.shrink_lost
        + s.crash_lost
        + s.quarantined_drops
        + s.shed_early
}

/// A latency quantile in µs. When lost frames reach the quantile it is
/// reported as an hour: they miss every bound.
pub fn quantile_us(h: &Histogram, q: f64) -> f64 {
    h.quantile(q).map_or(3.6e9, |ns| ns / 1e3)
}

/// What one measured window saw.
pub struct Window {
    pub wall_ns: u64,
    pub delivered: u64,
    /// Per sub-window: delivered frames per second, and the median and
    /// 90th-percentile latency of the frames it delivered, in µs.
    pub sub_rates: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    pub cpu_s: f64,
    /// Traced windows only: mean sampled depths.
    pub rx_depth_mean: f64,
    pub data_queue_mean: f64,
    pub egress_queue_mean: f64,
}

pub struct Driver<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    pub dp: Dataplane,
    epoch: Instant,
    batch: usize,
    ingress: Vec<Frame>,
    egress: Vec<Frame>,
    txv: Vec<Frame>,
    rxv: Vec<Frame>,
    /// Per pool slot: when the frame in flight there was due (open loop) or
    /// handed over (closed loop), in bench ns; 0 = not in flight.
    sent_at: Vec<u64>,
    /// Sequence number of the next frame; its pool slot is `next % POOL`.
    next: usize,
    sched_start: u64,
    pub sending: bool,
    pub recording: bool,
    pub sent: u64,
    sent_inside: u64,
    pub outside_sent: u64,
    pub received: u64,
    /// Frames the NIC handed to the monitor.
    pub polled: u64,
    /// In-flight frames overwritten by a reuse of their slot: lost.
    stale: u64,
    next_scrape: u64,
    pub lat: Histogram,
    pub late: Histogram,
    pub failures: u64,
    first_failure: Option<String>,
    /// Router-mix frames delivered with their TTL not decremented.
    pub ttl_unchanged: u64,
}

impl<'a> Driver<'a> {
    pub fn new(spec: &'a Spec, inputs: &'a Inputs, dp: Dataplane, epoch: Instant) -> Driver<'a> {
        Driver {
            spec,
            inputs,
            dp,
            epoch,
            batch: spec.batch.max(1),
            ingress: Vec::with_capacity(spec.batch.max(1)),
            egress: Vec::with_capacity(RING_SLOTS),
            txv: Vec::with_capacity(GEN_BURST),
            rxv: Vec::with_capacity(RING_SLOTS),
            sent_at: vec![0; POOL],
            next: 0,
            sched_start: 0,
            sending: false,
            recording: false,
            sent: 0,
            sent_inside: 0,
            outside_sent: 0,
            received: 0,
            polled: 0,
            stale: 0,
            next_scrape: 0,
            lat: Histogram::default(),
            late: Histogram::default(),
            failures: 0,
            first_failure: None,
            ttl_unchanged: 0,
        }
    }

    /// Bench time in ns; never 0, which marks "not in flight".
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 + 1
    }

    fn fail(&mut self, why: String) {
        self.failures += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Frames sent from inside the VR's prefixes and not yet accounted for.
    pub fn outstanding(&self) -> u64 {
        self.sent_inside.saturating_sub(self.received + self.stale)
    }

    /// Send one frame by hand (setup's first warm-up frame) and wait for it.
    pub fn first_frame(&mut self) -> Result<(), String> {
        let slot = (0..POOL).find(|s| !self.inputs.outside[*s]).expect("an inside frame");
        self.next = slot;
        self.txv.push(self.inputs.pool[slot].clone());
        self.hand_over(self.now());
        let deadline = self.now() + 5_000_000_000;
        while self.received == 0 {
            self.step(&mut NoTrace);
            if self.now() > deadline {
                return Err("the first warm-up frame never returned".into());
            }
        }
        Ok(())
    }

    /// Push `txv` into the far end; book what the ring accepted.
    fn hand_over(&mut self, handed: u64) -> usize {
        let accepted = self.dp.far.send_batch(&mut self.txv).unwrap_or(0);
        for i in 0..accepted {
            let k = self.next + i;
            let slot = k % POOL;
            self.sent += 1;
            if self.inputs.outside[slot] {
                self.outside_sent += 1;
                continue;
            }
            // Open loop: latency counts from the due time, not the send.
            let open = self.sending && matches!(self.spec.loop_kind, LoopKind::Open { .. });
            let at = if open { self.sched_start + self.inputs.schedule[k] } else { handed };
            if self.sent_at[slot] != 0 {
                self.stale += 1;
            }
            self.sent_at[slot] = at;
            self.sent_inside += 1;
            if open && self.recording {
                self.late.record(handed - at);
            }
        }
        self.next += accepted;
        self.txv.clear();
        accepted
    }

    /// Start the open-loop schedule now (frame k is due `schedule[k]` later).
    pub fn start_sending(&mut self) {
        self.sending = true;
        self.sched_start = self.now();
        self.next = 0;
    }

    fn generate(&mut self, now: u64) -> usize {
        // Never offer more than the ingress ring has room for: cloning
        // frames only to have them refused would slow the driver exactly
        // when it has a backlog to clear.
        let room = RING_SLOTS - (self.sent - self.polled) as usize;
        let burst = GEN_BURST.min(room);
        match self.spec.loop_kind {
            LoopKind::Closed { window } => {
                let open_slots = (window as u64).saturating_sub(self.outstanding()) as usize;
                let mut inside = 0;
                while inside < open_slots && self.txv.len() < burst {
                    let slot = (self.next + self.txv.len()) % POOL;
                    self.txv.push(self.inputs.pool[slot].clone());
                    inside += usize::from(!self.inputs.outside[slot]);
                }
            }
            LoopKind::Open { .. } => {
                let due = due_count(&self.inputs.schedule, self.sched_start, self.next, now);
                for k in self.next..self.next + due.min(burst) {
                    self.txv.push(self.inputs.pool[k % POOL].clone());
                }
            }
        }
        if self.txv.is_empty() {
            return 0;
        }
        self.hand_over(now)
    }

    /// Open loop: the schedule has run out.
    pub fn schedule_done(&self) -> bool {
        matches!(self.spec.loop_kind, LoopKind::Open { .. })
            && self.next >= self.inputs.schedule.len()
    }

    /// One iteration of lvrmd's dataplane loop, in lvrmd's call order.
    pub fn step<T: Tracer>(&mut self, tr: &mut T) {
        let now = self.now();
        let t = tr.begin();
        let generated = if self.sending && !self.schedule_done() { self.generate(now) } else { 0 };
        let mut t = tr.span(Kind::Gen, t, generated);
        let dp = &mut self.dp;
        let polled = if dp.lvrm.ha_accepting() {
            dp.nic.poll_batch(&mut self.ingress, self.batch).unwrap_or(0)
        } else {
            0
        };
        t = tr.span(Kind::Rx, t, polled);
        if polled > 0 {
            self.polled += polled as u64;
            let ts = dp.clock.now_ns();
            for f in self.ingress.iter_mut() {
                f.ts_ns = ts;
                f.ingress_if = 0;
            }
            t = tr.span(Kind::Stamp, t, polled);
            dp.lvrm.ingress_batch(&mut self.ingress, &mut dp.host);
            self.ingress.clear();
            t = tr.span(Kind::Ingress, t, polled);
        }
        dp.host.apply(dp.clock.now_ns());
        t = tr.span(Kind::Faults, t, 0);
        dp.nic.tick(dp.clock.now_ns());
        t = tr.span(Kind::NicTick, t, 0);
        dp.lvrm.process_control();
        t = tr.span(Kind::Control, t, 0);
        dp.lvrm.maybe_reallocate(dp.clock.now_ns(), &mut dp.host);
        t = tr.span(Kind::Realloc, t, 0);
        self.egress.clear();
        let out = dp.lvrm.poll_egress(&mut self.egress);
        t = tr.span(Kind::Egress, t, out);
        let _ = dp.nic.send_batch(&mut self.egress);
        t = tr.span(Kind::Tx, t, out);
        if dp.lvrm.take_tick_line().is_some() {
            dp.nic.publish(dp.lvrm.metrics());
        }
        t = tr.span(Kind::TickLine, t, 0);
        let got = self.sink();
        t = tr.span(Kind::Sink, t, got);
        if let Some(every) = self.spec.scrape_every_ns {
            if self.sending && now >= self.next_scrape {
                std::hint::black_box(self.dp.lvrm.render_prometheus());
                self.next_scrape = now + every;
                tr.span(Kind::Scrape, t, 0);
            }
        }
        tr.end(polled > 0 || out > 0 || got > 0);
    }

    /// Read the far end of the egress ring and check every frame.
    fn sink(&mut self) -> usize {
        let n = self.dp.far.poll_batch(&mut self.rxv, RING_SLOTS).unwrap_or(0);
        if n == 0 {
            return 0;
        }
        let now = self.now();
        let mut rxv = std::mem::take(&mut self.rxv);
        for f in rxv.drain(..) {
            self.check(&f, now);
        }
        self.rxv = rxv;
        n
    }

    fn check(&mut self, f: &Frame, now: u64) {
        let Some(slot) = tag_of(f.bytes()).filter(|s| *s < POOL) else {
            return self.fail("delivered a frame the bench never sent (no tag)".into());
        };
        let at = self.sent_at[slot];
        if at == 0 {
            return self.fail(format!("frame {slot} delivered while not in flight (duplicate)"));
        }
        self.sent_at[slot] = 0;
        self.received += 1;
        if self.recording {
            self.lat.record(now - at);
        }
        if f.egress_if != EGRESS_IF {
            return self.fail(format!("frame {slot} left on interface {}", f.egress_if));
        }
        let orig = &self.inputs.pool[slot];
        let same_buffer = f.bytes().as_ptr() == orig.bytes().as_ptr() && f.len() == orig.len();
        match self.spec.router {
            // FastVr rewrites nothing: the frame comes back as it went.
            RouterKind::Fast if !same_buffer && f.bytes() != orig.bytes() => {
                self.fail(format!("frame {slot} came back altered"))
            }
            RouterKind::Fast => {}
            RouterKind::ClickIp => {
                if same_buffer {
                    self.ttl_unchanged += 1;
                } else if let Err(why) = check_ip_rewrite(orig, f) {
                    self.fail(format!("frame {slot}: {why}"));
                }
            }
        }
    }

    /// Run the loop for `dur_ns`, split into sub-windows of `sub_ns`.
    /// `sample_every_ns` turns on depth sampling (traced windows), which
    /// sits outside every span.
    pub fn window<T: Tracer>(
        &mut self,
        tr: &mut T,
        dur_ns: u64,
        sub_ns: u64,
        sample_every_ns: Option<u64>,
    ) -> Window {
        let cpu0 = crate::sys::process_cpu_s();
        let t0 = self.now();
        let end = t0 + dur_ns;
        let r0 = self.received;
        let subs = (dur_ns / sub_ns).max(1) as usize;
        let mut w = Window {
            wall_ns: 0,
            delivered: 0,
            sub_rates: Vec::with_capacity(subs + 1),
            p50_us: Vec::with_capacity(subs + 1),
            p90_us: Vec::with_capacity(subs + 1),
            cpu_s: 0.0,
            rx_depth_mean: 0.0,
            data_queue_mean: 0.0,
            egress_queue_mean: 0.0,
        };
        let mut mark = (t0, r0, monitor_losses(&self.dp.lvrm.stats()));
        self.lat.reset();
        let (mut samples, mut rx_depth, mut dq, mut eq) = (0u64, 0u64, 0f64, 0f64);
        let mut next_sample = t0;
        loop {
            self.step(tr);
            let now = self.now();
            let last = now >= end || self.schedule_done();
            if now >= mark.0 + sub_ns || last {
                // Frames the monitor dropped in this sub-window miss every
                // latency bound in it.
                let lost = monitor_losses(&self.dp.lvrm.stats());
                self.lat.record_lost(lost - mark.2);
                w.sub_rates.push((self.received - mark.1) as f64 / ((now - mark.0) as f64 / 1e9));
                w.p50_us.push(quantile_us(&self.lat, 0.5));
                w.p90_us.push(quantile_us(&self.lat, 0.9));
                self.lat.reset();
                mark = (now, self.received, lost);
            }
            if last {
                break;
            }
            if let Some(every) = sample_every_ns {
                if now >= next_sample {
                    crate::alloc::pause_driver(true);
                    samples += 1;
                    rx_depth += self.sent - self.polled;
                    dq += self
                        .dp
                        .lvrm
                        .snapshot()
                        .iter()
                        .flat_map(|v| v.vris.iter())
                        .map(|v| v.queue_len as f64)
                        .sum::<f64>();
                    eq += self.dp.lvrm.metrics_snapshot().gauge_sum("lvrm_egress_queued");
                    crate::alloc::pause_driver(false);
                    next_sample = now + every;
                }
            }
        }
        w.wall_ns = self.now() - t0;
        w.cpu_s = crate::sys::process_cpu_s() - cpu0;
        w.delivered = self.received - r0;
        let mean = |x: f64| if samples > 0 { x / samples as f64 } else { 0.0 };
        w.rx_depth_mean = mean(rx_depth as f64);
        w.data_queue_mean = mean(dq);
        w.egress_queue_mean = mean(eq);
        w
    }

    /// Stop sending, collect everything still in flight, then shut the
    /// monitor down the way lvrmd does and join the VRI threads.
    pub fn drain(&mut self) {
        self.sending = false;
        let deadline = self.now() + 3_000_000_000;
        while self.now() < deadline {
            self.step(&mut NoTrace);
            let s = self.dp.lvrm.stats();
            let in_monitor = s.frames_in - s.frames_out - s.unclassified - monitor_losses(&s);
            if self.polled == self.sent
                && in_monitor == 0
                && self.received == s.frames_out
                && self.dp.nic.retry_pending() == 0
            {
                break;
            }
        }
        let dp = &mut self.dp;
        let drain_ns = dp.lvrm.config().drain_deadline_ns;
        let deadline_ns = dp.clock.now_ns().saturating_add(drain_ns.max(1_000_000));
        let t_end = Instant::now() + std::time::Duration::from_nanos(drain_ns + 500_000_000);
        loop {
            let done = self.dp.lvrm.shutdown(deadline_ns, &mut self.dp.host);
            self.egress.clear();
            self.dp.lvrm.poll_egress(&mut self.egress);
            let _ = self.dp.nic.send_batch(&mut self.egress);
            self.dp.nic.tick(self.dp.clock.now_ns());
            self.sink();
            if done || Instant::now() >= t_end {
                break;
            }
            std::hint::spin_loop();
        }
        self.dp.host.inner.shutdown();
        self.sink();
    }

    /// After [`Driver::drain`]: every output check. Returns the frames the
    /// monitor lost (failed operations).
    pub fn verify(&self) -> Result<u64, String> {
        if let Some(why) = &self.first_failure {
            return Err(format!("{} delivered-frame check(s) failed; first: {why}", self.failures));
        }
        let s = self.dp.lvrm.stats();
        let lost = monitor_losses(&s);
        let accounted = s.frames_out + s.unclassified + lost;
        if s.frames_in != accounted {
            return Err(format!(
                "conservation: frames_in {} != out {} + unclassified {} + losses {lost}",
                s.frames_in, s.frames_out, s.unclassified
            ));
        }
        if s.frames_in != self.sent {
            return Err(format!(
                "monitor took in {} frames, bench sent {}",
                s.frames_in, self.sent
            ));
        }
        if s.frames_out != self.received {
            return Err(format!(
                "monitor forwarded {} frames, bench received {}",
                s.frames_out, self.received
            ));
        }
        if s.unclassified != self.outside_sent {
            return Err(format!(
                "unclassified {} != frames from outside sources {}",
                s.unclassified, self.outside_sent
            ));
        }
        if lost != self.stale + self.outstanding() {
            return Err(format!(
                "monitor lost {lost} frames, bench is missing {}",
                self.stale + self.outstanding()
            ));
        }
        if matches!(self.spec.loop_kind, LoopKind::Closed { .. }) && lost > 0 {
            return Err(format!("closed loop lost {lost} frames"));
        }
        Ok(lost)
    }
}

/// A routed IPv4 frame: TTL one lower, header checksum valid, every other
/// byte as sent.
pub fn check_ip_rewrite(orig: &Frame, got: &Frame) -> Result<(), String> {
    let (a, b) = (orig.bytes(), got.bytes());
    if a.len() != b.len() {
        return Err(format!("length {} became {}", a.len(), b.len()));
    }
    let ip = got.ipv4().map_err(|e| format!("not IPv4 on egress: {e:?}"))?;
    let want_ttl = orig.ipv4().map_err(|e| format!("{e:?}"))?.ttl() - 1;
    if ip.ttl() != want_ttl {
        return Err(format!("TTL {} (want {want_ttl})", ip.ttl()));
    }
    if !ip.checksum_ok() {
        return Err("bad IPv4 header checksum".into());
    }
    const TTL: usize = 14 + 8;
    const CSUM: std::ops::Range<usize> = 14 + 10..14 + 12;
    let same =
        a.iter().zip(b).enumerate().all(|(i, (x, y))| i == TTL || CSUM.contains(&i) || x == y);
    if !same {
        return Err("bytes other than TTL and checksum changed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvrm_net::FrameBuilder;

    fn frame(ttl: u8) -> Frame {
        let mut b = FrameBuilder::new([10, 1, 0, 5].into(), [172, 16, 3, 9].into()).ttl(ttl);
        b.udp(1, 2, &[0u8; 18])
    }

    /// Run `name` on real VRI threads for `ms`, then drain.
    fn short_run(name: &str, ms: u64) -> (Driver<'static>, u64) {
        let spec = crate::workload::find(name).unwrap();
        let inputs = Box::leak(Box::new(crate::workload::generate(spec, 5, 1.0)));
        let dp = Dataplane::build(spec, inputs);
        let mut d = Driver::new(spec, inputs, dp, Instant::now());
        d.first_frame().unwrap();
        d.start_sending();
        d.recording = true;
        let w = d.window(&mut NoTrace, ms * 1_000_000, ms * 250_000, None);
        d.drain();
        (d, w.delivered)
    }

    #[test]
    fn checks_pass_on_a_real_run_and_catch_a_missing_frame() {
        for name in ["relay-min", "trickle-b1"] {
            let (mut d, delivered) = short_run(name, 100);
            assert!(delivered > 0, "{name}: frames flowed");
            // The open loop may lose frames under host preemption; every
            // loss must still be accounted for.
            assert!(d.verify().is_ok(), "{name}: {:?}", d.verify());
            // One frame the bench sent but the monitor never saw.
            d.sent += 1;
            assert!(d.verify().is_err(), "{name}: an unaccounted frame is caught");
        }
    }

    #[test]
    fn a_duplicate_delivery_fails_the_run() {
        let (mut d, _) = short_run("relay-min", 20);
        let dup = d.inputs.pool[1].clone();
        d.check(&dup, d.now());
        assert!(d.verify().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn ip_rewrite_check_accepts_a_decremented_frame_only() {
        let orig = frame(64);
        assert!(check_ip_rewrite(&orig, &frame(63)).is_ok());
        assert!(check_ip_rewrite(&orig, &orig).is_err(), "TTL not decremented");
        let mut bad = frame(63);
        bad.modify_bytes(|b| b[14 + 10] ^= 0xff);
        assert!(check_ip_rewrite(&orig, &bad).is_err(), "checksum broken");
        let mut moved = frame(63);
        moved.modify_bytes(|b| b[30] ^= 1);
        assert!(check_ip_rewrite(&orig, &moved).is_err(), "destination changed");
    }
}
