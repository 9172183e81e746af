//! The paper's analytical performance model (§II-B, §III-C).
//!
//! These closed forms predict amplification and throughput from first
//! principles; the benchmark harness prints model-vs-measured so the
//! reproduction can be sanity-checked against the theory as well as the
//! paper's empirical figures.

/// Inputs shared by the model formulas.
#[derive(Debug, Clone, Copy)]
pub struct ModelParams {
    /// Fan-out `k`.
    pub fan_out: f64,
    /// SSTable size `b` in bytes.
    pub sstable_bytes: f64,
    /// Total data amount `n` in bytes.
    pub total_bytes: f64,
}

impl ModelParams {
    /// LSM-tree height `log_k(n / b)` (at least 1).
    pub fn height(&self) -> f64 {
        let ratio = (self.total_bytes / self.sstable_bytes).max(self.fan_out);
        ratio.log(self.fan_out).max(1.0)
    }
}

/// Theorem 2.1: UDC write amplification `O(k * log_k(n/b))`.
pub fn write_amp_udc(p: &ModelParams) -> f64 {
    p.fan_out * p.height()
}

/// Theorem 3.1: LDC write amplification `O(log_k(n/b))`.
pub fn write_amp_ldc(p: &ModelParams) -> f64 {
    p.height()
}

/// Eq. (2): total throughput of a mix with write ratio `r_w`.
pub fn total_throughput(th_write: f64, th_read: f64, write_ratio: f64) -> f64 {
    let r = write_ratio.clamp(0.0, 1.0);
    let denom = r / th_write + (1.0 - r) / th_read;
    if denom <= 0.0 {
        return 0.0;
    }
    1.0 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ModelParams {
        ModelParams {
            fan_out: 10.0,
            sstable_bytes: 2e6,
            total_bytes: 2e10, // 10^4 tables -> height 4
        }
    }

    #[test]
    fn height_matches_logarithm() {
        let p = params();
        assert!((p.height() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ldc_reduces_write_amp_by_fan_out() {
        let p = params();
        let udc = write_amp_udc(&p);
        let ldc = write_amp_ldc(&p);
        assert!((udc / ldc - p.fan_out).abs() < 1e-9);
    }

    #[test]
    fn throughput_formulas_match_paper_example() {
        // §II-C point 3: r_w=0.5, th_r=10, th_w=1 -> 1.82; th_w=2, th_r=5
        // -> 2.86 (57% better despite a lower sum).
        let slow = total_throughput(1.0, 10.0, 0.5);
        let fast = total_throughput(2.0, 5.0, 0.5);
        assert!((slow - 1.818).abs() < 0.01, "{slow}");
        assert!((fast - 2.857).abs() < 0.01, "{fast}");
        assert!(fast / slow > 1.5);
    }
}
