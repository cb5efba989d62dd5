//! Fixed-size log-linear latency histogram.
//!
//! Values below 128 get one bucket each; above that every power of two is
//! split into 128 equal sub-buckets, so a bucket is at most 1/128 (< 0.8%)
//! of its lower bound wide. The bucket array is allocated once at
//! construction and never grows, so recording millions of samples costs no
//! memory beyond it.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Largest recordable exponent: values at or above 2^40 ns (~18 min) clamp.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS + 1) as usize * SUB + SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    let v = v.min((1u64 << (MAX_EXP + 1)) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let mantissa = (v >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + mantissa
}

/// `(lower bound, width)` of bucket `i`.
fn bucket_range(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = (i / SUB - 1) as u32;
    let mantissa = (i % SUB) as u64;
    ((SUB as u64 + mantissa) << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0 < q <= 1`), interpolated linearly inside the
    /// bucket that holds it; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + c) as f64 >= target {
                let (lower, width) = bucket_range(i);
                let frac = (target - before as f64) / c as f64;
                return (lower as f64 + frac * width as f64).min(self.max as f64 + 1.0);
            }
            before += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_with_bounded_width() {
        let mut expect_lower = 0u64;
        for i in 0..BUCKETS {
            let (lower, width) = bucket_range(i);
            assert_eq!(lower, expect_lower, "bucket {i} leaves a gap");
            assert_eq!(bucket_of(lower), i);
            assert_eq!(bucket_of(lower + width - 1), i);
            if lower >= SUB as u64 {
                assert!(width as f64 / lower as f64 <= 1.0 / SUB as f64);
            }
            expect_lower = lower + width;
        }
    }

    #[test]
    fn percentile_golden() {
        // 0..100 once each: exact unit buckets, so quantiles interpolate to
        // the rank itself.
        let mut h = Hist::default();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);

        // 1000 x 1000 ns and 1000 x 3000 ns. 1000 sits in [1000, 1004)
        // and 3000 in [2992, 3008): p25 is halfway through the first bucket,
        // p75 halfway through the second, and p100 is capped at max + 1.
        let mut h = Hist::default();
        for _ in 0..1000 {
            h.record(1000);
            h.record(3000);
        }
        assert_eq!(h.quantile(0.25), 1002.0);
        assert_eq!(h.quantile(0.75), 3000.0);
        assert_eq!(h.quantile(1.0), 3001.0);

        // Merging is the same as recording into one histogram.
        let mut a = Hist::default();
        let mut b = Hist::default();
        for v in 0..50 {
            a.record(v);
            b.record(v + 50);
        }
        a.merge(&b);
        assert_eq!(a.quantile(0.5), 50.0);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn relative_error_is_about_one_percent() {
        for v in [129u64, 1_000, 2_047, 65_537, 1_234_567, 987_654_321] {
            let mut h = Hist::default();
            h.record(v);
            let p50 = h.quantile(0.5);
            assert!((p50 - v as f64).abs() / (v as f64) < 0.01, "{v} -> {p50}");
        }
    }
}
