//! Order statistics, the seeded shuffle and metric-name normalisation.

/// Nearest-rank percentile of `values` (any order): the smallest value
/// with at least `p` percent of the samples at or below it. 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// splitmix64 — the benchmark's own generator, so the item order of a
/// seed never depends on a crate under measurement.
#[derive(Debug, Clone)]
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates over `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A metric-name fragment from a paper name: runs of characters outside
/// `[A-Za-z0-9.-]` become one `_`, trimmed at both ends (`2MM[T]` →
/// `2MM_T`, `M-SORT` stays).
pub fn normalise(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
            out.push(c);
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 20.0), 1.0);
        assert_eq!(percentile(&v, 21.0), 2.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        // Even count: nearest rank takes the lower middle, never a mean.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<usize> = (0..64).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        Rng(11).shuffle(&mut a);
        Rng(11).shuffle(&mut b);
        Rng(12).shuffle(&mut c);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        assert_ne!(a, base);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base, "a permutation loses nothing");
    }

    #[test]
    fn names_normalise_to_metric_fragments() {
        assert_eq!(normalise("2MM[T]"), "2MM_T");
        assert_eq!(normalise("CONV[T]"), "CONV_T");
        assert_eq!(normalise("M-SORT"), "M-SORT");
        assert_eq!(normalise("MT-INFER"), "MT-INFER");
        assert_eq!(normalise("[a  b]"), "a_b");
    }
}
