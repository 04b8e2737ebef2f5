//! Order statistics, process memory and output digests.

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`; `None`
/// when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Mean of the values at or above the nearest-rank `q`-quantile: the
/// expected shortfall, a tail that moves smoothly where the quantile
/// itself would jump between discrete levels; `None` when empty.
pub fn tail_mean(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    mean(&sorted[rank.clamp(1, sorted.len().max(1)) - 1..])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// FNV-1a 64 over everything written into it: a digest of simulated
/// outputs, equal across commits exactly when the outputs are.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds an integer in.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// The digest.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(99.0));
        assert_eq!(percentile(&hundred, 1.0), Some(100.0));
        assert_eq!(mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(tail_mean(&hundred, 0.99), Some(99.5));
        assert_eq!(tail_mean(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.5));
        assert_eq!(tail_mean(&[], 0.5), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }
}
