//! Pure helpers: percentiles, ratios, the output digest and VmHWM parsing.

/// Smallest number of samples that must lie beyond a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (0 < q < 1) of `samples` by nearest rank, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it. The median is
/// reported for any non-empty set: it is a centre, not a tail.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    let is_median = (q - 0.5).abs() < f64::EPSILON;
    if !is_median && beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    if is_median && sorted.len().is_multiple_of(2) {
        return Some((sorted[rank - 1] + sorted[rank]) / 2.0);
    }
    Some(sorted[rank - 1])
}

/// The median; `0.0` for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// `num / den`, or `0.0` when the base is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Arithmetic mean; `0.0` for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Order-sensitive FNV-1a digest over served outputs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one output row: the net's name, its serving tier and the
    /// bits of its evaluation (or of the program's outcome hash, which is
    /// itself a digest of the evaluation).
    pub fn add(&mut self, net: &str, tier: &str, eval_bits: &[u64]) {
        self.bytes(net.as_bytes());
        self.bytes(&[0]);
        self.bytes(tier.as_bytes());
        self.bytes(&[0]);
        for bits in eval_bits {
            self.bytes(&bits.to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size in MiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        assert_eq!(percentile(&hundred, 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_and_means() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn digest_sees_every_field_and_the_order() {
        let digest = |rows: &[(&str, &str, u64)]| {
            let mut d = Digest::default();
            for (net, tier, bits) in rows {
                d.add(net, tier, &[*bits]);
            }
            d.hex()
        };
        let base = digest(&[("a", "merlin", 1), ("b", "merlin", 2)]);
        assert_eq!(base, digest(&[("a", "merlin", 1), ("b", "merlin", 2)]));
        assert_ne!(base, digest(&[("b", "merlin", 2), ("a", "merlin", 1)]));
        assert_ne!(base, digest(&[("a", "direct", 1), ("b", "merlin", 2)]));
        assert_ne!(base, digest(&[("a", "merlin", 1), ("b", "merlin", 3)]));
        // The separator keeps field boundaries apart.
        assert_ne!(digest(&[("ab", "c", 0)]), digest(&[("a", "bc", 0)]));
        assert_eq!(base.len(), 16);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t1024 MB\n"), None);
    }
}
