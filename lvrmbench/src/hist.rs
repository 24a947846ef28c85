//! The bench's own latency histogram: log-linear buckets with 1024
//! sub-buckets per power of two (0.1% resolution, exact below 2048 ns).
//! Kept here rather than borrowed from the program so that no program
//! change can alter how the benchmark measures.

const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

pub struct Histogram {
    counts: Vec<u64>,
    /// Touched bucket range, so scans and resets skip the empty rest.
    lo: usize,
    hi: usize,
    /// Samples recorded, lost ones included: a lost sample sits above
    /// every bucket, so a quantile that reaches it has no value.
    n: u64,
}

fn index(v: u64) -> usize {
    if v < 2 * SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    (shift as usize) * SUB + (v >> shift) as usize
}

/// Midpoint of bucket `i`, in the recorded unit.
fn value(i: usize) -> f64 {
    if i < 2 * SUB {
        return i as f64;
    }
    let shift = (i / SUB - 1) as u32;
    let mantissa = (i % SUB + SUB) as u64;
    ((mantissa << shift) as f64) + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], lo: BUCKETS, hi: 0, n: 0 }
    }
}

impl Histogram {
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = index(v);
        self.counts[i] += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
        self.n += 1;
    }

    /// Count `n` samples that never completed; they miss every bound.
    pub fn record_lost(&mut self, n: u64) {
        self.n += n;
    }

    /// The `q`-quantile (0 < q <= 1) by nearest rank, or `None` if it falls
    /// among lost samples or there are none.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for i in self.lo..=self.hi.min(BUCKETS - 1) {
            seen += self.counts[i];
            if seen >= rank {
                return Some(value(i));
            }
        }
        None
    }

    pub fn reset(&mut self) {
        if self.lo <= self.hi {
            self.counts[self.lo..=self.hi].iter_mut().for_each(|c| *c = 0);
        }
        self.lo = BUCKETS;
        self.hi = 0;
        self.n = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0;
        for v in (0..5_000_000u64).step_by(97).chain([u64::MAX / 2, u64::MAX]) {
            let i = index(v);
            assert!(i >= last && i < BUCKETS, "v={v}");
            last = i;
            let mid = value(i);
            assert!((mid - v as f64).abs() <= v as f64 / SUB as f64 + 1.0, "v={v} mid={mid}");
        }
    }

    #[test]
    fn quantiles_of_known_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(500.0));
        assert_eq!(h.quantile(0.9), Some(900.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(100_000);
        }
        h.record(10_000_000);
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 100_000.0).abs() < 100.0);
        assert!((h.quantile(1.0).unwrap() - 1e7).abs() < 1e4);
    }

    #[test]
    fn lost_samples_miss_every_bound() {
        let mut h = Histogram::default();
        for _ in 0..8 {
            h.record(10);
        }
        h.record_lost(2);
        assert_eq!(h.quantile(0.8), Some(10.0));
        assert_eq!(h.quantile(0.9), None);
    }

    #[test]
    fn reset_empties_the_histogram() {
        let mut h = Histogram::default();
        h.record(5);
        h.record(1 << 40);
        h.reset();
        assert_eq!(h.n, 0);
        assert_eq!(h.quantile(0.5), None);
        assert!(h.counts.iter().all(|c| *c == 0));
        h.record(7);
        assert_eq!(h.quantile(1.0), Some(7.0));
    }
}
