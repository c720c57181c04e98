//! HILOS configuration: device count, the two optimization settings and
//! tuning knobs.

/// How the X-cache ratio α is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaPolicy {
    /// Solve the §4.2 analytic model and snap to the best candidate ratio.
    Auto,
    /// Use a fixed ratio in `[0, 1]`.
    Fixed(f64),
}

/// Configuration of a HILOS deployment.
///
/// Attention near storage is always on; two settings map onto the rest
/// of the paper's ablation (Fig. 15): delayed writeback, and the α policy
/// of the cooperative X-cache, which is off at `AlphaPolicy::Fixed(0.0)`
/// (§4.2: α = 0 keeps no X-cache). The four points are `ANS` alone,
/// `ANS+WB`, `ANS+X` and `ANS+WB+X`.
///
/// # Examples
///
/// ```
/// use hilos_core::{AlphaPolicy, HilosConfig};
///
/// let full = HilosConfig::new(8);
/// assert!(full.delayed_writeback() && full.alpha_policy() == AlphaPolicy::Auto);
///
/// let ans = HilosConfig::ans_only(8);
/// assert!(!ans.delayed_writeback() && ans.alpha_policy() == AlphaPolicy::Fixed(0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HilosConfig {
    n_devices: usize,
    alpha: AlphaPolicy,
    spill_interval: u32,
    delayed_writeback: bool,
}

impl HilosConfig {
    /// Full HILOS: attention near storage + delayed writeback + X-cache,
    /// auto α, spill interval 16 (the paper's defaults, §6.1).
    ///
    /// # Panics
    ///
    /// Panics if `n_devices` is zero.
    pub fn new(n_devices: usize) -> Self {
        assert!(n_devices > 0, "need at least one NSP device");
        HilosConfig {
            n_devices,
            alpha: AlphaPolicy::Auto,
            spill_interval: 16,
            delayed_writeback: true,
        }
    }

    /// Bare attention-near-storage (the `ANS` ablation point): no
    /// writeback and no X-cache (α fixed at 0).
    pub fn ans_only(n_devices: usize) -> Self {
        HilosConfig::new(n_devices).with_writeback(false).with_alpha(AlphaPolicy::Fixed(0.0))
    }

    /// Sets the spill interval `c` (§4.3). Must be ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `c` is zero.
    pub fn with_spill_interval(mut self, c: u32) -> Self {
        assert!(c >= 1, "spill interval must be at least 1");
        self.spill_interval = c;
        self
    }

    /// Sets the α policy.
    ///
    /// # Panics
    ///
    /// Panics if a fixed α is outside `[0, 1]`.
    pub fn with_alpha(mut self, alpha: AlphaPolicy) -> Self {
        if let AlphaPolicy::Fixed(a) = alpha {
            assert!((0.0..=1.0).contains(&a), "alpha must be in [0,1], got {a}");
        }
        self.alpha = alpha;
        self
    }

    /// Enables or disables the delayed KV-cache writeback.
    pub fn with_writeback(mut self, on: bool) -> Self {
        self.delayed_writeback = on;
        self
    }

    /// Number of NSP devices used.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// The α policy.
    pub fn alpha_policy(&self) -> AlphaPolicy {
        self.alpha
    }

    /// Spill interval `c`.
    pub fn spill_interval(&self) -> u32 {
        self.spill_interval
    }

    /// Whether delayed writeback is enabled.
    pub fn delayed_writeback(&self) -> bool {
        self.delayed_writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HilosConfig::new(8);
        assert_eq!(c.n_devices(), 8);
        assert_eq!(c.spill_interval(), 16);
        assert!(matches!(c.alpha_policy(), AlphaPolicy::Auto));
    }

    #[test]
    fn ablation_points() {
        let off = AlphaPolicy::Fixed(0.0);
        let ans = HilosConfig::ans_only(4);
        assert!(!ans.delayed_writeback());
        assert_eq!(ans.alpha_policy(), off);
        let ans_wb = HilosConfig::ans_only(4).with_writeback(true);
        assert!(ans_wb.delayed_writeback() && ans_wb.alpha_policy() == off);
        let ans_x = HilosConfig::ans_only(4).with_alpha(AlphaPolicy::Auto);
        assert!(!ans_x.delayed_writeback() && ans_x.alpha_policy() == AlphaPolicy::Auto);
    }

    #[test]
    #[should_panic(expected = "at least one NSP device")]
    fn zero_devices_rejected() {
        let _ = HilosConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn bad_alpha_rejected() {
        let _ = HilosConfig::new(1).with_alpha(AlphaPolicy::Fixed(1.5));
    }
}
