//! Small numeric helpers: quantiles, the seeded shuffle, host calibration,
//! process memory.

/// Quantile `q` in `(0, 1)` of `xs` by Python's
/// `statistics.quantiles` (its default, exclusive method), the
/// definition the benchmark's spread is measured by: rank `q·(n+1)`,
/// interpolated between neighbours and extrapolated past the ends.
/// `xs` need not be sorted; a single value is every quantile, and an
/// empty slice yields NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => f64::NAN,
        1 => d[0],
        n => {
            let pos = q * (n + 1) as f64;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            d[j - 1] + (d[j] - d[j - 1]) * (pos - j as f64)
        }
    }
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// SplitMix64: a tiny seeded generator, enough to shuffle point orders
/// reproducibly without a dependency.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Steps of one calibration loop: about 1 ms on the hosts this was
/// built on.
const CAL_STEPS: u64 = 40_000;
/// Calibration loops per thread each time the host is calibrated.
const CAL_REPS: usize = 25;

/// A fixed loop that uses none of the repository's code: xorshift steps
/// that insert into and look up a hash map of up to 64 Ki keys, with
/// data-dependent branches. Its slow phases track the simulator's more
/// closely than a plain table walk does. Returns its duration in seconds.
fn calibration_loop() -> f64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    let start = std::time::Instant::now();
    // A fixed hasher, so every loop does the same work.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 14, Default::default());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for step in 0..CAL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & 0xFFFF;
        if step % 3 == 0 {
            *map.entry(key).or_default() += 1;
        } else if let Some(v) = map.get(&key) {
            acc = acc.wrapping_add(*v);
        }
        if (x >> 40) & 7 == 0 {
            acc = acc.wrapping_mul(3).wrapping_add(key);
        } else {
            acc ^= key;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The host's speed right now: [`CAL_REPS`] calibration loops on each of
/// `threads` threads at once. Returns every loop's duration in seconds.
pub fn calibrate(threads: usize) -> Vec<f64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    (0..CAL_REPS)
                        .map(|_| calibration_loop())
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration threads do not panic"))
            .collect()
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        let q = |xs: &[f64]| [0.25, 0.5, 0.75].map(|p| quantile(xs, p));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            q(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(q(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(q(&[3.0]), [3.0; 3]);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
