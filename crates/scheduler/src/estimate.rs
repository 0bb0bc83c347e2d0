//! Deterministic cost models for admission control.
//!
//! Admission control needs a *projection*, not a measurement: "if I
//! accept this request, when will it plausibly finish?". The device
//! model reuses the simulator's own cost parameters — PCIe transfer
//! time from [`gpu_sim::DeviceSpec::transfer_ms`] and the paper's Eq. 2
//! operation count ([`array_sort::complexity::eq2_unscaled`]) converted
//! to cycles — so the projection tracks the simulated reality across
//! heterogeneous pools without ever touching a device. The host model
//! prices the `cpu_ref` fallback the same way (an `n log n` move count
//! at a fixed per-move cost).
//!
//! Estimates are intentionally crude; what matters is that they are
//! **deterministic** (same inputs, same projection, bit for bit) and
//! **monotone** in the batch size, so admission decisions are stable
//! and reproducible.

use array_sort::complexity::{eq2_unscaled, fused_unscaled, warp_unscaled, worst_case_unscaled};
use array_sort::{ArraySortConfig, BatchGeometry, Variant};
use gpu_sim::DeviceSpec;

/// Tunable constants of the admission estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Device cycles charged per Eq. 2 operation.
    pub cycles_per_op: f64,
    /// Host nanoseconds per `n log n` element move in the `cpu_ref`
    /// fallback model.
    pub host_ns_per_move: f64,
}

support::impl_to_json!(struct CostModel { cycles_per_op, host_ns_per_move });

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cycles_per_op: 6.0,
            host_ns_per_move: 10.0,
        }
    }
}

impl CostModel {
    /// Projected milliseconds for one batch on `spec`: both PCIe
    /// directions plus the kernel work, with one block per array spread
    /// across the device's SMs.
    pub fn device_ms(
        &self,
        spec: &DeviceSpec,
        config: &ArraySortConfig,
        num_arrays: usize,
        array_len: usize,
    ) -> f64 {
        let bytes = (num_arrays as u64) * (array_len as u64) * 4;
        let transfers = 2.0 * spec.transfer_ms(bytes);
        let per_array_ops = eq2_unscaled(array_len, config);
        let rounds = (num_arrays as f64 / spec.sm_count.max(1) as f64).ceil();
        let cycles = (per_array_ops * self.cycles_per_op * rounds).ceil() as u64;
        transfers + spec.cycles_to_ms(cycles)
    }

    /// Projected milliseconds for the **fused** single-kernel pipeline on
    /// `spec`: same transfer model, but the kernel work follows the fused
    /// operation count ([`fused_unscaled`] — binary-search bucketing
    /// instead of the p-way rescan). Arrays too large for the fused
    /// shared-memory layout fall back to the three-kernel pipeline at run
    /// time, so the projection prices those at [`CostModel::device_ms`].
    pub fn device_ms_fused(
        &self,
        spec: &DeviceSpec,
        config: &ArraySortConfig,
        num_arrays: usize,
        array_len: usize,
    ) -> f64 {
        let geom = BatchGeometry::new(num_arrays.max(1), array_len, config);
        if !geom.fits_fused_in_shared(4, spec) {
            return self.device_ms(spec, config, num_arrays, array_len);
        }
        let bytes = (num_arrays as u64) * (array_len as u64) * 4;
        let transfers = 2.0 * spec.transfer_ms(bytes);
        let per_array_ops = fused_unscaled(array_len, config);
        let rounds = (num_arrays as f64 / spec.sm_count.max(1) as f64).ceil();
        let cycles = (per_array_ops * self.cycles_per_op * rounds).ceil() as u64;
        transfers + spec.cycles_to_ms(cycles)
    }

    /// Projected milliseconds for the **warp-multisplit** fused pipeline
    /// (`gas-warp`): the fused transfer model with the tighter
    /// [`warp_unscaled`] operation count. The padded scatter layout is
    /// slightly larger than the fused one, so the fallback chain has two
    /// steps: arrays that fit the fused layout but not the padded one are
    /// priced at [`CostModel::device_ms_fused`]; arrays that fit neither
    /// at [`CostModel::device_ms`].
    pub fn device_ms_warp(
        &self,
        spec: &DeviceSpec,
        config: &ArraySortConfig,
        num_arrays: usize,
        array_len: usize,
    ) -> f64 {
        let geom = BatchGeometry::new(num_arrays.max(1), array_len, config);
        if !geom.fits_warp_in_shared(4, spec) {
            return self.device_ms_fused(spec, config, num_arrays, array_len);
        }
        let bytes = (num_arrays as u64) * (array_len as u64) * 4;
        let transfers = 2.0 * spec.transfer_ms(bytes);
        let per_array_ops = warp_unscaled(array_len, config);
        let rounds = (num_arrays as f64 / spec.sm_count.max(1) as f64).ceil();
        let cycles = (per_array_ops * self.cycles_per_op * rounds).ceil() as u64;
        transfers + spec.cycles_to_ms(cycles)
    }

    /// Projects **all three** GAS variants for a request and returns the
    /// cheapest one with its time — the admission/dispatch decision for
    /// [`crate::Algorithm::Gas`] requests. Deterministic; ties go to the
    /// earlier variant in the chain three-kernel → fused → warp, so the
    /// paper-faithful pipeline wins exact ties and `gas-warp` must beat
    /// `gas-fused` strictly to be picked.
    pub fn best_gas_variant(
        &self,
        spec: &DeviceSpec,
        config: &ArraySortConfig,
        num_arrays: usize,
        array_len: usize,
    ) -> (Variant, f64) {
        let three = self.device_ms(spec, config, num_arrays, array_len);
        let fused = self.device_ms_fused(spec, config, num_arrays, array_len);
        let warp = self.device_ms_warp(spec, config, num_arrays, array_len);
        let (mut best, mut ms) = (Variant::ThreeKernel, three);
        if fused < ms {
            (best, ms) = (Variant::Fused, fused);
        }
        if warp < ms {
            (best, ms) = (Variant::Warp, warp);
        }
        (best, ms)
    }

    /// Projected **worst-case** milliseconds for one batch on `spec`,
    /// under the configured splitter policy
    /// ([`worst_case_unscaled`]): regular sampling degrades to a
    /// quadratic single-bucket sort on adversarial data, while the
    /// deterministic policy's `2·⌈n/p⌉` bound keeps the tail linear.
    /// Admission itself stays expectation-based ([`CostModel::device_ms`])
    /// — this is the honest tail projection surfaced next to it, so an
    /// operator can see what a skew-hostile client could inflict under
    /// each policy.
    pub fn device_ms_worst(
        &self,
        spec: &DeviceSpec,
        config: &ArraySortConfig,
        num_arrays: usize,
        array_len: usize,
    ) -> f64 {
        let bytes = (num_arrays as u64) * (array_len as u64) * 4;
        let transfers = 2.0 * spec.transfer_ms(bytes);
        let per_array_ops = worst_case_unscaled(array_len, config);
        let rounds = (num_arrays as f64 / spec.sm_count.max(1) as f64).ceil();
        let cycles = (per_array_ops * self.cycles_per_op * rounds).ceil() as u64;
        transfers + spec.cycles_to_ms(cycles)
    }

    /// Projected milliseconds for sorting the batch on the host with
    /// [`array_sort::cpu_ref`].
    pub fn host_ms(&self, num_arrays: usize, array_len: usize) -> f64 {
        let n = array_len as f64;
        let moves = num_arrays as f64 * n * n.log2().max(1.0);
        moves * self.host_ns_per_move / 1e6
    }

    /// The admission window the cost model recommends for request
    /// coalescing (`--batch-window-ms auto`): a few launch-times of a
    /// canonical small serving request (16 × 64) on the *fastest* device
    /// in the pool. Holding longer than that buys no extra packing — the
    /// queue drains faster than it fills — while holding less forfeits
    /// the merge. Deterministic in the specs; clamped to [0.05, 5.0] ms
    /// so a degenerate pool can't pick a zero or unbounded window.
    pub fn auto_batch_window_ms(&self, specs: &[DeviceSpec], config: &ArraySortConfig) -> f64 {
        let fastest = specs
            .iter()
            .map(|spec| self.best_gas_variant(spec, config, 16, 64).1)
            .fold(f64::INFINITY, f64::min);
        if !fastest.is_finite() {
            return 0.05;
        }
        (fastest * 4.0).clamp(0.05, 5.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_estimate_is_deterministic_and_monotone() {
        let m = CostModel::default();
        let spec = DeviceSpec::tesla_k40c();
        let cfg = ArraySortConfig::default();
        let a = m.device_ms(&spec, &cfg, 1000, 500);
        let b = m.device_ms(&spec, &cfg, 1000, 500);
        assert_eq!(a, b, "bit-identical projections");
        assert!(a > 0.0);
        assert!(
            m.device_ms(&spec, &cfg, 2000, 500) > a,
            "monotone in arrays"
        );
        assert!(m.device_ms(&spec, &cfg, 1000, 1000) > a, "monotone in n");
    }

    #[test]
    fn faster_device_projects_faster() {
        let m = CostModel::default();
        let cfg = ArraySortConfig::default();
        let big = m.device_ms(&DeviceSpec::test_device(), &cfg, 5000, 400);
        let k40 = m.device_ms(&DeviceSpec::tesla_k40c(), &cfg, 5000, 400);
        assert!(
            k40 < big,
            "a 15-SM K40c beats the 2-SM test device: {k40} vs {big}"
        );
    }

    #[test]
    fn fused_projection_undercuts_three_kernel_on_paper_shapes() {
        let m = CostModel::default();
        let spec = DeviceSpec::tesla_k40c();
        let cfg = ArraySortConfig::default();
        for n in [1000usize, 2000, 3000, 4000] {
            let three = m.device_ms(&spec, &cfg, 500, n);
            let fused = m.device_ms_fused(&spec, &cfg, 500, n);
            let warp = m.device_ms_warp(&spec, &cfg, 500, n);
            assert!(fused < three, "n={n}: fused {fused} vs three {three}");
            assert!(warp < fused, "n={n}: warp {warp} vs fused {fused}");
            let (variant, ms) = m.best_gas_variant(&spec, &cfg, 500, n);
            assert_eq!(variant, Variant::Warp, "n={n}");
            assert_eq!(ms, warp);
        }
    }

    #[test]
    fn variant_selection_is_not_a_constant() {
        // Tiny arrays (p = 1 bucket) make the fused kernel's cooperative
        // machinery pure overhead: the model must keep the three-kernel
        // pipeline there and switch to the warp variant where it wins.
        let m = CostModel::default();
        let spec = DeviceSpec::tesla_k40c();
        let cfg = ArraySortConfig::default();
        let (small, _) = m.best_gas_variant(&spec, &cfg, 64, 20);
        assert_eq!(small, Variant::ThreeKernel);
        let (large, _) = m.best_gas_variant(&spec, &cfg, 64, 2000);
        assert_eq!(large, Variant::Warp);
    }

    #[test]
    fn oversized_arrays_project_at_the_fallback_price() {
        let m = CostModel::default();
        let spec = DeviceSpec::tesla_k40c();
        let cfg = ArraySortConfig::default();
        // n = 8000 exceeds the fused shared-memory layout on the K40c.
        let fused = m.device_ms_fused(&spec, &cfg, 100, 8000);
        let three = m.device_ms(&spec, &cfg, 100, 8000);
        assert_eq!(fused, three, "fallback priced as the three-kernel run");
        let warp = m.device_ms_warp(&spec, &cfg, 100, 8000);
        assert_eq!(warp, three, "warp falls through the whole chain");
        let (variant, _) = m.best_gas_variant(&spec, &cfg, 100, 8000);
        assert_eq!(variant, Variant::ThreeKernel, "ties keep the default");
    }

    #[test]
    fn worst_case_projection_tracks_the_splitter_policy() {
        let m = CostModel::default();
        let spec = DeviceSpec::tesla_k40c();
        let reg = ArraySortConfig::default();
        let det = ArraySortConfig {
            splitter_policy: array_sort::SplitterPolicy::Deterministic,
            ..Default::default()
        };
        for n in [1000usize, 2000, 4000] {
            let wr = m.device_ms_worst(&spec, &reg, 200, n);
            let wd = m.device_ms_worst(&spec, &det, 200, n);
            let expected = m.device_ms(&spec, &reg, 200, n);
            assert!(wd < wr, "n={n}: bounded tail {wd} vs quadratic tail {wr}");
            assert!(wr >= expected, "n={n}: worst case dominates expectation");
        }
    }

    #[test]
    fn auto_window_is_deterministic_positive_and_clamped() {
        let m = CostModel::default();
        let cfg = ArraySortConfig::default();
        let pool = [DeviceSpec::tesla_k40c(), DeviceSpec::test_device()];
        let w = m.auto_batch_window_ms(&pool, &cfg);
        assert_eq!(w, m.auto_batch_window_ms(&pool, &cfg), "bit-identical");
        assert!((0.05..=5.0).contains(&w), "clamped: {w}");
        // The fastest device sets the window for the whole pool.
        let separately = [
            m.auto_batch_window_ms(&[DeviceSpec::tesla_k40c()], &cfg),
            m.auto_batch_window_ms(&[DeviceSpec::test_device()], &cfg),
        ];
        assert_eq!(w, separately.iter().copied().fold(f64::INFINITY, f64::min));
        // An empty pool falls back to the floor instead of infinity.
        assert_eq!(m.auto_batch_window_ms(&[], &cfg), 0.05);
    }

    #[test]
    fn host_estimate_scales_with_work() {
        let m = CostModel::default();
        let small = m.host_ms(10, 64);
        let large = m.host_ms(1000, 64);
        assert!(small > 0.0 && large > 99.0 * small);
        assert_eq!(m.host_ms(10, 64), small);
    }
}
