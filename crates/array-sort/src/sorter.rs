//! One way to pick and run a batch sorter by name.
//!
//! The reproduction has four pipelines that sort the same uniform batch
//! under the same contract: the paper's three-kernel GPU-ArraySort
//! (`gas`), the fused single kernel (`gas-fused`), its warp-multisplit
//! form (`gas-warp`) and the STA baseline (`sta`). A [`Variant`] names
//! one; a [`Sorter`] built from a variant and an [`ArraySortConfig`]
//! runs it, plainly ([`Sorter::sort`]) or under checkpoint, retry and
//! CPU fallback ([`Sorter::sort_recovering`]). The CLI and the
//! scheduler both dispatch through it, so a flag that reaches one
//! variant reaches the others the same way.

use gpu_sim::{DeviceBuffer, DeviceSpec, Gpu, SimError, SimResult};
use thrust_sim::StaStats;

use crate::config::{ArraySortConfig, ConfigError};
use crate::fused::{FusedSort, FusedStats, FusedStrategy};
use crate::geometry::BatchGeometry;
use crate::pipeline::GasStats;
use crate::recovery::{recover_batch_with, RecoveryReport, RetryPolicy};
use crate::resplit::OverflowReport;

/// A batch sorter, by the name the CLI and request files use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The paper's three-kernel pipeline (`gas`).
    ThreeKernel,
    /// The fused single-kernel pipeline (`gas-fused`).
    Fused,
    /// The fused pipeline with warp-level multisplit bucketing
    /// (`gas-warp`).
    Warp,
    /// The paper's tagged-radix baseline (`sta`).
    Sta,
}

impl Variant {
    /// Every variant, in table order (`variant as usize` indexes it).
    pub const ALL: [Variant; 4] = [
        Variant::ThreeKernel,
        Variant::Fused,
        Variant::Warp,
        Variant::Sta,
    ];

    /// Parses `gas`, `gas-fused`, `gas-warp` or `sta`.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|v| v.name() == name)
            .ok_or_else(|| format!("unknown algorithm {name:?} (gas|gas-fused|gas-warp|sta)"))
    }

    /// The variant's name, as [`Variant::parse`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            Variant::ThreeKernel => "gas",
            Variant::Fused => "gas-fused",
            Variant::Warp => "gas-warp",
            Variant::Sta => "sta",
        }
    }
}

/// What one [`Sorter::sort`] run reports: the stats of the pipeline
/// that ran. Its JSON is the inner value's JSON.
#[derive(Debug, Clone)]
pub enum SortStats {
    /// A three-kernel run.
    Gas(GasStats),
    /// A `gas-fused` or `gas-warp` run.
    Fused(FusedStats),
    /// An STA run.
    Sta(StaStats),
}

impl support::json::ToJson for SortStats {
    fn to_json(&self) -> support::json::Value {
        match self {
            SortStats::Gas(s) => s.to_json(),
            SortStats::Fused(s) => s.to_json(),
            SortStats::Sta(s) => s.to_json(),
        }
    }
}

impl SortStats {
    /// Simulated wall time of the run, transfers included.
    pub fn total_ms(&self) -> f64 {
        match self {
            SortStats::Gas(s) => s.total_ms(),
            SortStats::Fused(s) => s.total_ms(),
            SortStats::Sta(s) => s.total_ms(),
        }
    }

    /// Simulated device time of the run's kernels.
    pub fn kernel_ms(&self) -> f64 {
        match self {
            SortStats::Gas(s) => s.kernel_ms(),
            SortStats::Fused(s) => s.kernel_ms,
            SortStats::Sta(s) => s.kernel_ms(),
        }
    }

    /// Peak device bytes over the run.
    pub fn peak_bytes(&self) -> u64 {
        match self {
            SortStats::Gas(s) => s.peak_bytes,
            SortStats::Fused(s) => s.peak_bytes,
            SortStats::Sta(s) => s.peak_bytes,
        }
    }

    /// Bucket-overflow accounting; STA has no buckets.
    pub fn overflow(&self) -> Option<&OverflowReport> {
        match self {
            SortStats::Gas(s) => Some(&s.overflow),
            SortStats::Fused(s) => Some(&s.overflow),
            SortStats::Sta(_) => None,
        }
    }
}

/// A [`Variant`] built under one [`ArraySortConfig`].
#[derive(Debug, Clone)]
pub struct Sorter {
    variant: Variant,
    /// Holds the config, runs `gas-fused`/`gas-warp`, and carries the
    /// three-kernel pipeline as its fallback. STA takes no config.
    gas: FusedSort,
}

impl Sorter {
    /// Builds `variant` under `config` (validated for every variant).
    pub fn new(variant: Variant, config: ArraySortConfig) -> Result<Self, ConfigError> {
        let strategy = match variant {
            Variant::Warp => FusedStrategy::WarpConflictFree,
            _ => FusedStrategy::Histogram,
        };
        let gas = FusedSort::with_config_and_strategy(config, strategy)?;
        Ok(Self { variant, gas })
    }

    /// The configuration the sorter was built with.
    pub fn config(&self) -> &ArraySortConfig {
        self.gas.config()
    }

    /// Largest number of `array_len`-float arrays the sorter can hold on
    /// `spec`. The fused variants answer with the three-kernel plan they
    /// fall back to.
    pub fn max_arrays(&self, spec: &DeviceSpec, array_len: usize) -> u64 {
        match self.variant {
            Variant::Sta => thrust_sim::sta::max_arrays(spec, array_len as u64),
            _ => self.gas.max_arrays(spec, array_len),
        }
    }

    /// Sorts every `array_len` segment of `data`: upload, the variant's
    /// kernels, download.
    pub fn sort(&self, gpu: &mut Gpu, data: &mut [f32], array_len: usize) -> SimResult<SortStats> {
        let gas = &self.gas;
        Ok(match self.variant {
            Variant::ThreeKernel => SortStats::Gas(gas.three_kernel().sort(gpu, data, array_len)?),
            Variant::Fused | Variant::Warp => SortStats::Fused(gas.sort(gpu, data, array_len)?),
            Variant::Sta => SortStats::Sta(thrust_sim::sta::sort_arrays(gpu, data, array_len)?),
        })
    }

    /// [`Sorter::sort`] under checkpoint, bounded retry and CPU fallback
    /// ([`recover_batch_with`]); the first attempt's span is
    /// `"{name}/batch"`. The stats are `None` when the batch was sorted
    /// on the host.
    pub fn sort_recovering(
        &self,
        gpu: &mut Gpu,
        data: &mut [f32],
        array_len: usize,
        policy: &RetryPolicy,
    ) -> SimResult<(Option<SortStats>, RecoveryReport)> {
        let label = format!("{}/batch", self.variant.name());
        recover_batch_with(gpu, data, array_len, policy, &label, |g, d| {
            self.sort(g, d, array_len)
        })
    }

    /// Sorts a batch already resident on the device, in place, and
    /// returns its overflow accounting. GAS variants only: STA has no
    /// device-resident entry point and answers with
    /// [`SimError::InvalidLaunch`].
    pub fn sort_device(
        &self,
        gpu: &mut Gpu,
        data: &DeviceBuffer<f32>,
        geom: &BatchGeometry,
    ) -> SimResult<OverflowReport> {
        match self.variant {
            Variant::ThreeKernel => Ok(self
                .gas
                .three_kernel()
                .sort_device(gpu, data, geom)?
                .overflow),
            Variant::Fused | Variant::Warp => Ok(self.gas.sort_device(gpu, data, geom)?.1),
            Variant::Sta => Err(SimError::InvalidLaunch {
                reason: "sta has no device-resident entry point".into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_ref;
    use crate::{GpuArraySort, SplitterPolicy};
    use gpu_sim::{FaultKind, FaultOp, FaultPlan};
    use support::json::ToJson;

    fn batch(num: usize, n: usize) -> Vec<f32> {
        (0..num * n).rev().map(|x| (x % 97) as f32).collect()
    }

    #[test]
    fn names_round_trip() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.name()), Ok(v));
        }
        assert!(Variant::parse("segsort").is_err());
        assert_eq!(Variant::ALL[Variant::Sta as usize], Variant::Sta);
    }

    #[test]
    fn every_variant_sorts_and_bills_like_its_pipeline() {
        let (num, n) = (24, 300);
        let data = batch(num, n);
        for v in Variant::ALL {
            let sorter = Sorter::new(v, ArraySortConfig::default()).unwrap();
            let mut got = data.clone();
            let mut g = Gpu::new(DeviceSpec::tesla_k40c());
            let stats = sorter.sort(&mut g, &mut got, n).unwrap();
            assert_eq!(cpu_ref::verify_against(&data, &got, n), None, "{v:?}");
            assert_eq!(stats.total_ms(), g.elapsed_ms(), "{v:?}");
            assert!(stats.kernel_ms() > 0.0 && stats.kernel_ms() < stats.total_ms());
            assert_eq!(stats.peak_bytes(), g.ledger().peak(), "{v:?}");
            assert_eq!(stats.overflow().is_none(), v == Variant::Sta);

            // Bit-identical to calling the pipeline directly.
            let mut direct = data.clone();
            let mut g2 = Gpu::new(DeviceSpec::tesla_k40c());
            let json = match v {
                Variant::ThreeKernel => GpuArraySort::new()
                    .sort(&mut g2, &mut direct, n)
                    .unwrap()
                    .to_json(),
                Variant::Fused => FusedSort::new()
                    .sort(&mut g2, &mut direct, n)
                    .unwrap()
                    .to_json(),
                Variant::Warp => FusedSort::warp()
                    .sort(&mut g2, &mut direct, n)
                    .unwrap()
                    .to_json(),
                Variant::Sta => thrust_sim::sta::sort_arrays(&mut g2, &mut direct, n)
                    .unwrap()
                    .to_json(),
            };
            assert_eq!(stats.to_json(), json, "{v:?}");
            assert_eq!(got, direct);
        }
    }

    #[test]
    fn the_config_reaches_every_gas_variant() {
        let cfg = ArraySortConfig {
            splitter_policy: SplitterPolicy::Deterministic,
            adaptive_bucket_sort: true,
            ..Default::default()
        };
        for v in Variant::ALL {
            assert_eq!(Sorter::new(v, cfg.clone()).unwrap().config(), &cfg);
        }
        let bad = ArraySortConfig {
            target_bucket_size: 0,
            ..Default::default()
        };
        for v in Variant::ALL {
            assert!(Sorter::new(v, bad.clone()).is_err(), "{v:?}");
        }
    }

    #[test]
    fn recovering_sort_retries_under_the_variant_label() {
        let (num, n) = (12, 80);
        for v in Variant::ALL {
            let mut data = batch(num, n);
            let original = data.clone();
            let mut g = Gpu::new(DeviceSpec::test_device());
            g.set_fault_plan(Some(FaultPlan::seeded(5).with_scripted(
                FaultOp::Launch,
                0,
                FaultKind::LaunchFailure,
            )));
            let sorter = Sorter::new(v, ArraySortConfig::default()).unwrap();
            let (stats, report) = sorter
                .sort_recovering(&mut g, &mut data, n, &RetryPolicy::default())
                .unwrap();
            assert!(stats.is_some(), "{v:?}: the retry succeeds");
            assert_eq!(report.retries(), 1, "{v:?}");
            assert_eq!(cpu_ref::verify_against(&original, &data, n), None);
            let retry = format!("recovery/{}/batch/retry-1", v.name());
            assert!(
                g.timeline().spans.iter().any(|s| s.name == retry),
                "{v:?}: no {retry} span"
            );
        }
    }

    #[test]
    fn sta_has_no_device_resident_entry_point() {
        let mut g = Gpu::new(DeviceSpec::test_device());
        let buf = g.htod_copy(&batch(2, 16)).unwrap();
        let geom = BatchGeometry::new(2, 16, &ArraySortConfig::default());
        let sta = Sorter::new(Variant::Sta, ArraySortConfig::default()).unwrap();
        assert!(matches!(
            sta.sort_device(&mut g, &buf, &geom),
            Err(SimError::InvalidLaunch { .. })
        ));
        let gas = Sorter::new(Variant::ThreeKernel, ArraySortConfig::default()).unwrap();
        gas.sort_device(&mut g, &buf, &geom).unwrap();
    }
}
