//! Order statistics, the sample-count rule, METG interpolation and the
//! FNV-1a fingerprint. Pure functions: everything the benchmark reports
//! is reduced from raw samples here, so the rules are testable without
//! running a workload.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank lower quartile of `samples`: the value a quarter of them
/// do not exceed (the minimum for four samples or fewer). `None` for an
/// empty slice.
///
/// This is the benchmark's estimate of what a unit of work costs on an
/// undisturbed host. Interference from the shared host only ever slows
/// a sample down, and for tens of seconds at a time it slows more than
/// half of them, which moves the median by 10-25% between runs of the
/// same code; the lower quartile sits inside the undisturbed part of
/// the distribution in both states. A lower decile or the minimum would
/// be steadier still under interference but not without it: the 2-PE
/// jacobi and matmul runs have a fast mode of their own (about one run
/// in ten, when both PEs catch the short wake path), and a quantile
/// that low flips between the two modes.
pub fn lower_quartile(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len().div_ceil(4);
    Some(v[rank - 1])
}

/// Samples a percentile needs before the benchmark reports it: at least
/// ten samples must lie beyond it (the `choosing-metrics` rule), so p90
/// needs 100 samples and p99 needs 1000.
pub fn samples_needed(p: f64) -> usize {
    // 1.0 - 0.9 is a hair under 0.1; without the slack p90 would ask
    // for 101 samples.
    (10.0 / (1.0 - p) - 1e-6).ceil() as usize
}

/// Nearest-rank percentile `p` (in `0.0..1.0`) of `samples`, or `None`
/// when fewer than [`samples_needed`] samples back it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.len() < samples_needed(p) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// One point of a grain sweep: mean task grain and the useful cores the
/// run sustained at it (`tasks * grain / wall`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GrainPoint {
    pub grain_us: f64,
    pub useful_cores: f64,
}

/// Task Bench's METG(50%): the smallest grain at which the run keeps
/// half of `peak_cores`, by log-linear interpolation between the two
/// sweep points that straddle 50%. The benchmark passes the best point
/// of the same sweep as the peak. `None` when no point reaches 50% of
/// the peak. When the *smallest* grain already holds 50% the sweep did
/// not go fine enough to find the crossing, and that grain is returned
/// as an upper bound.
pub fn metg50(points: &[GrainPoint], peak_cores: f64) -> Option<f64> {
    if peak_cores <= 0.0 {
        return None;
    }
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| a.grain_us.total_cmp(&b.grain_us));
    let eff = |p: &GrainPoint| p.useful_cores / peak_cores;
    let first_ok = pts.iter().position(|p| eff(p) >= 0.5)?;
    if first_ok == 0 {
        return Some(pts[0].grain_us);
    }
    let (lo, hi) = (&pts[first_ok - 1], &pts[first_ok]);
    let t = (0.5 - eff(lo)) / (eff(hi) - eff(lo));
    Some((lo.grain_us.ln() + t * (hi.grain_us.ln() - lo.grain_us.ln())).exp())
}

/// The best point of a sweep, the peak [`metg50`] is taken against.
pub fn peak_cores(points: &[GrainPoint]) -> f64 {
    points.iter().map(|p| p.useful_cores).fold(0.0, f64::max)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// xorshift64*: the benchmark's own input generator (spec seeds, task
/// jitter, payload bytes), so inputs depend on `--seed` and nothing else.
#[derive(Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // Zero is xorshift's fixed point; fold the seed away from it.
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn lower_quartile_is_nearest_rank_and_ignores_the_slow_tail() {
        assert_eq!(lower_quartile(&[]), None);
        assert_eq!(lower_quartile(&[7.0]), Some(7.0));
        assert_eq!(lower_quartile(&[9.0, 3.0, 5.0, 4.0]), Some(3.0));
        assert_eq!(lower_quartile(&[9.0, 3.0, 5.0, 4.0, 8.0]), Some(4.0));
        let quiet: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(lower_quartile(&quiet), Some(25.0));
        // Slowing the upper 60% of the samples down threefold moves the
        // median, not the lower quartile.
        let disturbed: Vec<f64> = quiet
            .iter()
            .map(|&x| if x > 40.0 { 3.0 * x } else { x })
            .collect();
        assert_eq!(lower_quartile(&disturbed), Some(25.0));
        assert!(median(&disturbed).unwrap() > 2.0 * median(&quiet).unwrap());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.99), 1000);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 0.9),
            None,
            "99 samples leave only 9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(v.iter().filter(|&&x| x > 90.0).count(), 10);
        assert_eq!(percentile(&v, 0.99), None);
    }

    #[test]
    fn percentile_is_order_independent() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Some(180.0));
    }

    fn pt(grain_us: f64, useful_cores: f64) -> GrainPoint {
        GrainPoint {
            grain_us,
            useful_cores,
        }
    }

    #[test]
    fn metg_interpolates_log_linearly() {
        // Efficiency 0.25 at 1 us and 0.75 at 4 us (best = 2.0 cores):
        // 50% lies halfway in log space, at 2 us.
        let sweep = [pt(1.0, 0.5), pt(4.0, 1.5), pt(16.0, 2.0)];
        let m = metg50(&sweep, peak_cores(&sweep)).unwrap();
        assert!((m - 2.0).abs() < 1e-9, "{m}");
        // Input order must not matter.
        let shuffled = [pt(16.0, 2.0), pt(1.0, 0.5), pt(4.0, 1.5)];
        assert!((metg50(&shuffled, 2.0).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn metg_exact_hit_and_upper_bound() {
        let sweep = [pt(1.0, 0.2), pt(2.0, 1.0), pt(8.0, 2.0)];
        assert!((metg50(&sweep, 2.0).unwrap() - 2.0).abs() < 1e-9);
        // Already efficient at the finest grain: the sweep bounds METG
        // from above only.
        let flat = [pt(0.5, 1.8), pt(1.0, 1.9), pt(2.0, 2.0)];
        assert_eq!(metg50(&flat, peak_cores(&flat)), Some(0.5));
    }

    #[test]
    fn metg_never_reaching_half_is_none() {
        // Against an ideal of 2 cores this sweep tops out at 45%.
        let weak = [pt(1.0, 0.2), pt(4.0, 0.6), pt(16.0, 0.9)];
        assert_eq!(metg50(&weak, 2.0), None);
        // Against its own best point it crosses between 1 and 4 us.
        let m = metg50(&weak, peak_cores(&weak)).unwrap();
        assert!(m > 1.0 && m < 4.0, "{m}");
        assert_eq!(metg50(&[], 2.0), None);
        assert_eq!(metg50(&weak, 0.0), None);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn xorshift_is_seeded_and_in_range() {
        let a: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = XorShift::new(8);
        assert_ne!(a[0], r.next_u64());
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
