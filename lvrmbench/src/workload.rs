//! The three workloads and their seeded input generator.
//!
//! Inputs are generated before any timing starts, from the command-line
//! seed alone. The program under test only ever sees the resulting frames:
//! a pool of pre-built, tagged frames that the driver cycles through, plus
//! (open loop only) a precomputed Poisson send schedule.

use std::net::Ipv4Addr;

use lvrm_net::{Frame, FrameBuilder};

/// Frames in the generated pool. A frame's pool index is its tag, so the
/// pool must be larger than the most frames ever in flight: 512 in the
/// closed loops, and 6.5 s of the 20 kfps open loop.
pub const POOL: usize = 1 << 17;

/// Byte offset of the tag: first payload byte after Ethernet, IPv4 and UDP.
pub const TAG_OFFSET: usize = 14 + 20 + 8;

/// Egress interface every workload's VR forwards on.
pub const EGRESS_IF: u16 = 1;

/// Captured-frame bytes that the wire adds: FCS, preamble+SFD, inter-frame gap.
const WIRE_OVERHEAD: usize = 4 + 8 + 12;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoopKind {
    /// Keep `window` frames in flight; the next frame goes when one returns.
    Closed { window: usize },
    /// Send on a seeded Poisson schedule regardless of the system's pace.
    Open { rate_fps: f64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterKind {
    /// `FastVr` with a default route to [`EGRESS_IF`].
    Fast,
    /// The Click IP router over 256 destination /24s.
    ClickIp,
}

/// One named workload. Every `LvrmConfig` field not named here keeps its
/// shipping default.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub loop_kind: LoopKind,
    pub batch: usize,
    /// `(wire bytes, weight)`.
    pub sizes: &'static [(usize, u32)],
    pub router: RouterKind,
    /// Source /24s the VR owns.
    pub src_prefixes: usize,
    pub flows: usize,
    /// Zipf exponent of flow popularity; `None` = uniform.
    pub zipf: Option<f64>,
    /// Share of frames whose source lies outside every VR prefix.
    pub outside_share: f64,
    pub flow_based: bool,
    /// Prometheus scrape period, if the workload scrapes.
    pub scrape_every_ns: Option<u64>,
}

pub const WORKLOADS: [Spec; 3] = [
    // Bare forwarding at the smallest frame (paper Exp 1c): per-frame
    // monitor, queue and VRI-loop overhead set the rate; classify, the flow
    // table and the VR do almost nothing. 512 in flight is half the
    // 1024-slot data queue, so no frame can be refused.
    Spec {
        name: "relay-min",
        loop_kind: LoopKind::Closed { window: 512 },
        batch: 32,
        sizes: &[(84, 1)],
        router: RouterKind::Fast,
        src_prefixes: 1,
        flows: 64,
        zipf: None,
        outside_share: 0.0,
        flow_based: false,
        scrape_every_ns: None,
    },
    // The tenant path: IMIX 7:4:1, 256 source /24s plus 5% unclassifiable
    // sources, the Click IP router, and flow-based dispatch over a Zipf
    // working set four times the shipping 4096-entry flow table.
    Spec {
        name: "router-mix",
        loop_kind: LoopKind::Closed { window: 512 },
        batch: 32,
        sizes: &[(84, 7), (594, 4), (1538, 1)],
        router: RouterKind::ClickIp,
        src_prefixes: 256,
        flows: 16_384,
        zipf: Some(1.0),
        outside_share: 0.05,
        flow_based: true,
        scrape_every_ns: Some(100_000_000),
    },
    // Latency at lvrmd's default batch of 1 with mostly idle VRIs, under
    // seeded Poisson arrivals. 20 kfps, not faster: on a 2-vCPU host with
    // steal, 200 kfps runs this loop near its capacity, so a preemption
    // leaves a backlog that overflows the VRI queue (2-10% of frames lost,
    // median latency swinging from 3 µs to 140 µs between runs), and even
    // 50 kfps lost frames whenever a steal burst held the VRI for 20 ms.
    Spec {
        name: "trickle-b1",
        loop_kind: LoopKind::Open { rate_fps: 20_000.0 },
        batch: 1,
        sizes: &[(84, 1)],
        router: RouterKind::Fast,
        src_prefixes: 1,
        flows: 64,
        zipf: None,
        outside_share: 0.0,
        flow_based: false,
        scrape_every_ns: None,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// xoshiro256** seeded through splitmix64: the bench's own generator, so
/// no program change can alter its inputs.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Everything the driver replays. Built once per run, before timing.
pub struct Inputs {
    /// Frame `i` carries tag `i` at [`TAG_OFFSET`] (and as its IPv4 ident).
    pub pool: Vec<Frame>,
    /// Per pool slot: the source lies outside every VR prefix.
    pub outside: Vec<bool>,
    /// Per pool slot: popularity rank of its flow (0 = most popular).
    pub flow_rank: Vec<u32>,
    /// Open loop: send offsets in ns from the start of the schedule.
    pub schedule: Vec<u64>,
    /// The VR's source prefixes (classifier entries).
    pub subnets: Vec<(Ipv4Addr, u8)>,
    /// Click configuration text for [`RouterKind::ClickIp`].
    pub click_config: Option<String>,
}

/// Source /24 number `p` of the VR.
fn src_prefix(spec: &Spec, p: usize) -> Ipv4Addr {
    if spec.src_prefixes == 1 {
        Ipv4Addr::new(10, 0, 1, 0)
    } else {
        Ipv4Addr::new(10, 1, p as u8, 0)
    }
}

fn click_config() -> String {
    let routes: Vec<String> = (0..256).map(|d| format!("172.16.{d}.0/24 0")).collect();
    format!(
        "FromDevice(0) -> CheckIPHeader -> DecIPTTL -> LookupIPRoute({}) -> ToDevice({EGRESS_IF});",
        routes.join(", ")
    )
}

/// Cumulative Zipf(s) distribution over `n` ranks.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    for c in cdf.iter_mut() {
        *c /= acc;
    }
    cdf
}

/// Build the inputs of `spec` for `seed`. `schedule_s` is how many seconds
/// of open-loop schedule to generate.
pub fn generate(spec: &Spec, seed: u64, schedule_s: f64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x6c76_726d_6265_6e63);
    let total_weight: u32 = spec.sizes.iter().map(|s| s.1).sum();
    let cdf = spec.zipf.map(|s| zipf_cdf(spec.flows, s));
    // Popularity rank -> flow id, shuffled so popular flows spread over
    // prefixes and destinations.
    let mut flow_of_rank: Vec<usize> = (0..spec.flows).collect();
    for i in (1..flow_of_rank.len()).rev() {
        flow_of_rank.swap(i, rng.below(i + 1));
    }
    let mut pool = Vec::with_capacity(POOL);
    let mut outside = Vec::with_capacity(POOL);
    let mut flow_rank = Vec::with_capacity(POOL);
    for tag in 0..POOL {
        let mut pick = rng.below(total_weight as usize) as u32;
        let wire = spec
            .sizes
            .iter()
            .find(|(_, w)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .expect("weights cover the range")
            .0;
        let is_outside = rng.unit() < spec.outside_share;
        let rank = match &cdf {
            Some(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|c| *c <= u).min(spec.flows - 1)
            }
            None => rng.below(spec.flows),
        };
        let flow = flow_of_rank[rank];
        let (src, dst, sport) = if is_outside {
            let a = rng.next_u64();
            (
                Ipv4Addr::new(10, 2, a as u8, 1 + (a >> 8) as u8 % 250),
                Ipv4Addr::new(172, 16, 0, 9),
                40_000,
            )
        } else {
            let prefix = src_prefix(spec, flow % spec.src_prefixes).octets();
            let host = flow / spec.src_prefixes;
            let d = (flow.wrapping_mul(0x9e37_79b1) >> 8) as u8;
            let (src_host, sport) = if spec.src_prefixes == 1 {
                (1 + (host % 16) as u8, 20_000 + (host / 16) as u16)
            } else {
                (1 + host as u8, 20_000)
            };
            let dst = match spec.router {
                RouterKind::Fast => Ipv4Addr::new(10, 0, 2, 9),
                RouterKind::ClickIp => Ipv4Addr::new(172, 16, d, 9),
            };
            (Ipv4Addr::new(prefix[0], prefix[1], prefix[2], src_host), dst, sport)
        };
        let captured = wire - WIRE_OVERHEAD;
        let mut payload = vec![0u8; captured - TAG_OFFSET];
        payload[..4].copy_from_slice(&(tag as u32).to_le_bytes());
        let mut b = FrameBuilder::new(src, dst);
        b.ident = tag as u16;
        pool.push(b.udp(sport, 30_000, &payload));
        outside.push(is_outside);
        flow_rank.push(rank as u32);
    }
    let schedule = match spec.loop_kind {
        LoopKind::Open { rate_fps } => {
            let n = (rate_fps * schedule_s).ceil() as usize;
            let mut t = 0.0f64;
            (0..n)
                .map(|_| {
                    t += -(1.0 - rng.unit()).ln() / rate_fps * 1e9;
                    t as u64
                })
                .collect()
        }
        LoopKind::Closed { .. } => Vec::new(),
    };
    Inputs {
        pool,
        outside,
        flow_rank,
        schedule,
        subnets: (0..spec.src_prefixes).map(|p| (src_prefix(spec, p), 24)).collect(),
        click_config: (spec.router == RouterKind::ClickIp).then(click_config),
    }
}

/// Read a delivered frame's tag.
pub fn tag_of(bytes: &[u8]) -> Option<usize> {
    let t = bytes.get(TAG_OFFSET..TAG_OFFSET + 4)?;
    Some(u32::from_le_bytes(t.try_into().ok()?) as usize)
}

/// Check the generated inputs against the workload's stated shares. Returns
/// the first property out of tolerance.
pub fn check_shares(spec: &Spec, inputs: &Inputs) -> Result<(), String> {
    let n = inputs.pool.len() as f64;
    let total_weight: u32 = spec.sizes.iter().map(|s| s.1).sum();
    for (wire, weight) in spec.sizes {
        let captured = wire - WIRE_OVERHEAD;
        let got = inputs.pool.iter().filter(|f| f.len() == captured).count() as f64 / n;
        let want = *weight as f64 / total_weight as f64;
        if (got - want).abs() > 0.01 {
            return Err(format!("{wire} B share {got:.4}, want {want:.4}"));
        }
    }
    let outside = inputs.outside.iter().filter(|o| **o).count() as f64 / n;
    if (outside - spec.outside_share).abs() > 0.005 {
        return Err(format!("outside-source share {outside:.4}, want {}", spec.outside_share));
    }
    if let Some(s) = spec.zipf {
        // The most popular flow's share of inside frames against 1/H(n, s).
        let inside: Vec<u32> = inputs
            .flow_rank
            .iter()
            .zip(&inputs.outside)
            .filter(|(_, o)| !**o)
            .map(|(r, _)| *r)
            .collect();
        let top = inside.iter().filter(|r| **r == 0).count() as f64 / inside.len() as f64;
        let want = zipf_cdf(spec.flows, s)[0];
        if (top - want).abs() > 0.1 * want {
            return Err(format!("top-flow share {top:.4}, want {want:.4}"));
        }
    }
    if let LoopKind::Open { rate_fps } = spec.loop_kind {
        if let Some(last) = inputs.schedule.last() {
            let rate = inputs.schedule.len() as f64 / (*last as f64 / 1e9);
            if (rate / rate_fps - 1.0).abs() > 0.01 {
                return Err(format!("schedule rate {rate:.0} fps, want {rate_fps}"));
            }
        }
    }
    for (i, f) in inputs.pool.iter().enumerate() {
        let ok = f.ipv4().map(|ip| ip.checksum_ok() && ip.ttl() > 1).unwrap_or(false);
        if !ok || tag_of(f.bytes()) != Some(i) {
            return Err(format!("pool frame {i} is malformed"));
        }
    }
    Ok(())
}

/// Open-loop pacing: how many frames starting at `next` are due at `now`.
/// Frame `k` is due at `start + schedule[k]` and never goes earlier.
pub fn due_count(schedule: &[u64], start: u64, next: usize, now: u64) -> usize {
    if now < start {
        return 0;
    }
    schedule[next..].partition_point(|off| *off <= now - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in &inputs.pool {
            for b in f.bytes() {
                h = (h ^ *b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        for t in &inputs.schedule {
            h = (h ^ t).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        for spec in &WORKLOADS {
            let a = fingerprint(&generate(spec, 7, 0.2));
            let b = fingerprint(&generate(spec, 7, 0.2));
            let c = fingerprint(&generate(spec, 8, 0.2));
            assert_eq!(a, b, "{}: same seed", spec.name);
            assert_ne!(a, c, "{}: different seed", spec.name);
        }
    }

    #[test]
    fn shares_are_within_tolerance() {
        for spec in &WORKLOADS {
            for seed in [1, 2, 3] {
                let inputs = generate(spec, seed, 2.0);
                check_shares(spec, &inputs).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            }
        }
    }

    #[test]
    fn share_check_rejects_a_skewed_mix() {
        let spec = find("router-mix").unwrap();
        let mut inputs = generate(spec, 1, 0.0);
        for o in inputs.outside.iter_mut().take(POOL / 10) {
            *o = true;
        }
        assert!(check_shares(spec, &inputs).is_err());
    }

    #[test]
    fn router_mix_working_set_exceeds_the_flow_table() {
        let spec = find("router-mix").unwrap();
        let inputs = generate(spec, 1, 0.0);
        let mut ranks: Vec<u32> = inputs.flow_rank.clone();
        ranks.sort_unstable();
        ranks.dedup();
        assert!(ranks.len() > lvrm_core::LvrmConfig::default().flow_table_capacity);
    }

    #[test]
    fn frame_k_is_never_sent_before_its_due_time() {
        let schedule = [10, 20, 30, 45];
        let start = 1_000;
        // Before the first due time nothing goes.
        assert_eq!(due_count(&schedule, start, 0, 1_009), 0);
        assert_eq!(due_count(&schedule, start, 0, 999), 0);
        // Due exactly now goes, the next one does not.
        assert_eq!(due_count(&schedule, start, 0, 1_010), 1);
        assert_eq!(due_count(&schedule, start, 1, 1_029), 1);
        // A late driver sends the whole backlog, each frame keeping its own
        // due time as its latency base.
        assert_eq!(due_count(&schedule, start, 1, 1_100), 3);
        let mut sent = Vec::new();
        let mut next = 0;
        for now in (990..1_060).step_by(7) {
            let n = due_count(&schedule, start, next, now);
            for (k, due) in schedule.iter().enumerate().skip(next).take(n) {
                assert!(start + due <= now, "frame {k} sent early");
                sent.push((k, start + due));
            }
            next += n;
        }
        let bases: Vec<u64> = sent.iter().map(|s| s.1).collect();
        assert_eq!(bases, vec![1_010, 1_020, 1_030, 1_045]);
    }

    #[test]
    fn tags_round_trip() {
        let spec = find("relay-min").unwrap();
        let inputs = generate(spec, 3, 0.0);
        for i in [0, 1, POOL / 2, POOL - 1] {
            assert_eq!(tag_of(inputs.pool[i].bytes()), Some(i));
            assert_eq!(inputs.pool[i].len(), 60, "84 B on the wire");
        }
    }
}
