//! Seeded inputs and exact percentiles.

/// SplitMix64: the benchmark's only source of inputs, seeded from
/// `--seed` so the same seed replays the same operation mix and items.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }
}

/// The SplitMix64 finalizer; also the per-item checksum word.
#[inline]
pub fn mix(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of a sorted slice.
pub fn quantile_sorted<T: Copy + Into<u64>>(sorted: &[T], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].into()
}

/// A histogram of durations with a fixed set of buckets, so recording a
/// sample never allocates while a window is measured: one bucket per unit
/// below `DIRECT`, then 64 buckets per power of two (1.6 % wide) up to
/// `u64::MAX`. Values are first divided by `2^shift`.
pub struct TickHist {
    counts: Vec<u32>,
    shift: u32,
    n: u64,
}

const DIRECT_BITS: u32 = 14;
const DIRECT: u64 = 1 << DIRECT_BITS;
const SUB_BITS: u32 = 6;
const BUCKETS: usize = DIRECT as usize + ((64 - DIRECT_BITS) << SUB_BITS) as usize;

impl TickHist {
    pub fn new() -> TickHist {
        TickHist::with_shift(0)
    }

    pub fn with_shift(shift: u32) -> TickHist {
        TickHist {
            counts: vec![0; BUCKETS],
            shift,
            n: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < DIRECT {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (DIRECT + (((e - DIRECT_BITS) as u64) << SUB_BITS) + sub) as usize
    }

    /// The middle of bucket `i`, in recorded units.
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < DIRECT {
            return i;
        }
        let e = ((i - DIRECT) >> SUB_BITS) as u32 + DIRECT_BITS;
        let sub = (i - DIRECT) & ((1 << SUB_BITS) - 1);
        let width = 1u64 << (e - SUB_BITS);
        (((1 << SUB_BITS) + sub) << (e - SUB_BITS)) + width / 2
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.n += 1;
        self.counts[Self::index(v >> self.shift)] += 1;
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &TickHist) {
        debug_assert_eq!(self.shift, other.shift);
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile, in the units recorded (a bucket's middle
    /// where buckets are wider than one unit).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                let v = Self::value(i);
                return if self.shift == 0 {
                    v
                } else {
                    (v << self.shift) + ((1u64 << self.shift) >> 1)
                };
            }
        }
        unreachable!("rank {rank} within the {} samples", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_and_percentiles_are_exact_below_direct() {
        for v in [
            0,
            1,
            DIRECT - 1,
            DIRECT,
            DIRECT + 1,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 3,
        ] {
            let mid = TickHist::value(TickHist::index(v));
            let err = mid.abs_diff(v) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / 64.0, "{v} -> {mid}");
        }
        let mut h = TickHist::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), 500);
        assert_eq!(h.quantile(0.99), 990);
        assert_eq!(h.n(), 1000);
    }
}
