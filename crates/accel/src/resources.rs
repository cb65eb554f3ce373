//! FPGA resource-utilization model (appendix Table 6).
//!
//! Real HLS resource consumption is not derivable from first principles, so
//! this model combines the appendix's stated per-PE costs with base terms
//! (embedding-lookup unit, inter-module FIFOs, AXI infrastructure) fitted
//! to the paper's four published configurations. It exists so the Table 6
//! bench can regenerate the utilization table for arbitrary PE counts, and
//! so the engine can check that its configuration fits the device.

use microrec_embedding::{ModelSpec, Precision};

use crate::config::AccelConfig;

/// U280 totals per resource (from the device data sheet; the percentages
/// in Table 6 resolve against these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCapacity {
    /// 18 Kbit BRAM slices.
    pub bram_18k: u32,
    /// DSP48E slices.
    pub dsp: u32,
    /// Flip-flops.
    pub ff: u32,
    /// Lookup tables.
    pub lut: u32,
    /// 288 Kbit URAM blocks.
    pub uram: u32,
}

/// The Alveo U280's resource capacity.
pub const U280_CAPACITY: DeviceCapacity =
    DeviceCapacity { bram_18k: 2016, dsp: 9024, ff: 2_607_360, lut: 1_303_680, uram: 960 };

/// Estimated resource usage of one accelerator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUsage {
    /// 18 Kbit BRAM slices.
    pub bram_18k: u32,
    /// DSP48E slices.
    pub dsp: u32,
    /// Flip-flops.
    pub ff: u32,
    /// Lookup tables.
    pub lut: u32,
    /// 288 Kbit URAM blocks.
    pub uram: u32,
}

impl ResourceUsage {
    /// Utilization of each resource as a fraction of `capacity`.
    #[must_use]
    pub fn utilization(&self, capacity: &DeviceCapacity) -> ResourceUtilization {
        ResourceUtilization {
            bram_18k: f64::from(self.bram_18k) / f64::from(capacity.bram_18k),
            dsp: f64::from(self.dsp) / f64::from(capacity.dsp),
            ff: f64::from(self.ff) / f64::from(capacity.ff),
            lut: f64::from(self.lut) / f64::from(capacity.lut),
            uram: f64::from(self.uram) / f64::from(capacity.uram),
        }
    }

    /// Whether the design fits the device.
    #[must_use]
    pub fn fits(&self, capacity: &DeviceCapacity) -> bool {
        self.bram_18k <= capacity.bram_18k
            && self.dsp <= capacity.dsp
            && self.ff <= capacity.ff
            && self.lut <= capacity.lut
            && self.uram <= capacity.uram
    }
}

/// Fractional utilization per resource.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceUtilization {
    /// BRAM fraction used.
    pub bram_18k: f64,
    /// DSP fraction used.
    pub dsp: f64,
    /// Flip-flop fraction used.
    pub ff: f64,
    /// LUT fraction used.
    pub lut: f64,
    /// URAM fraction used.
    pub uram: f64,
}

impl ResourceUtilization {
    /// The highest single-resource utilization.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.bram_18k.max(self.dsp).max(self.ff).max(self.lut).max(self.uram)
    }
}

/// Per-PE and base coefficients for one precision.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Coefficients {
    bram_per_pe: f64,
    dsp_per_pe: f64,
    ff_per_pe: f64,
    lut_per_pe: f64,
    bram_base: f64,
    dsp_base: f64,
    ff_base: f64,
    lut_base: f64,
    uram_weights: u32,
    // Large models carry wider FIFOs and feature paths.
    ff_per_feature: f64,
    lut_per_feature: f64,
}

fn coefficients(precision: Precision) -> Coefficients {
    match precision {
        Precision::Fixed16 => Coefficients {
            bram_per_pe: 4.0,
            dsp_per_pe: 14.0,
            ff_per_pe: 960.0,
            lut_per_pe: 630.0,
            bram_base: 414.0,
            dsp_base: 593.0,
            ff_base: 400_000.0,
            lut_base: 284_000.0,
            uram_weights: 642,
            ff_per_feature: 14.0,
            lut_per_feature: 56.0,
        },
        Precision::F32 | Precision::Fixed32 => Coefficients {
            bram_per_pe: 4.3,
            dsp_per_pe: 16.0,
            ff_per_pe: 1_240.0,
            lut_per_pe: 940.0,
            bram_base: 414.0,
            dsp_base: 593.0,
            ff_base: 400_000.0,
            lut_base: 288_000.0,
            uram_weights: 770,
            ff_per_feature: 26.0,
            lut_per_feature: 29.0,
        },
    }
}

/// Estimates resource usage for `model` under `config`.
#[must_use]
pub fn estimate_usage(model: &ModelSpec, config: &AccelConfig) -> ResourceUsage {
    let c = coefficients(config.precision);
    let pes = f64::from(config.total_pes());
    let feat = f64::from(model.feature_len());
    ResourceUsage {
        bram_18k: (c.bram_base + c.bram_per_pe * pes).round() as u32,
        dsp: (c.dsp_base + c.dsp_per_pe * pes).round() as u32,
        ff: (c.ff_base + c.ff_per_pe * pes + c.ff_per_feature * feat).round() as u32,
        lut: (c.lut_base + c.lut_per_pe * pes + c.lut_per_feature * feat).round() as u32,
        uram: c.uram_weights,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn assert_within(actual: u32, paper: u32, tol: f64, what: &str) {
        let err = (f64::from(actual) - f64::from(paper)).abs() / f64::from(paper);
        assert!(err <= tol, "{what}: model {actual} vs paper {paper} ({:.1}%)", err * 100.0);
    }

    #[test]
    fn matches_paper_table6() {
        // (model, precision, bram, dsp, ff, lut, uram)
        let cases = [
            (
                ModelSpec::small_production(),
                Precision::Fixed16,
                1_566,
                4_625,
                683_641,
                485_323,
                642,
            ),
            (
                ModelSpec::small_production(),
                Precision::Fixed32,
                1_657,
                5_193,
                764_067,
                568_864,
                770,
            ),
            (
                ModelSpec::large_production(),
                Precision::Fixed16,
                1_566,
                4_625,
                691_042,
                514_517,
                642,
            ),
            (
                ModelSpec::large_production(),
                Precision::Fixed32,
                1_721,
                5_193,
                777_527,
                584_220,
                770,
            ),
        ];
        for (model, precision, bram, dsp, ff, lut, uram) in cases {
            let cfg = AccelConfig::for_model(&model, precision);
            let usage = estimate_usage(&model, &cfg);
            let label = format!("{} {precision}", model.name);
            assert_within(usage.bram_18k, bram, 0.06, &format!("{label} BRAM"));
            assert_within(usage.dsp, dsp, 0.03, &format!("{label} DSP"));
            assert_within(usage.ff, ff, 0.05, &format!("{label} FF"));
            assert_within(usage.lut, lut, 0.06, &format!("{label} LUT"));
            assert_eq!(usage.uram, uram, "{label} URAM");
        }
    }

    #[test]
    fn every_paper_config_fits_the_u280() {
        for model in [ModelSpec::small_production(), ModelSpec::large_production()] {
            for precision in [Precision::Fixed16, Precision::Fixed32] {
                let cfg = AccelConfig::for_model(&model, precision);
                let usage = estimate_usage(&model, &cfg);
                assert!(usage.fits(&U280_CAPACITY), "{} {precision}", model.name);
                let util = usage.utilization(&U280_CAPACITY);
                // Table 6 reports >50% DSP, >66% URAM, >78% BRAM.
                assert!(util.bram_18k > 0.7, "BRAM util {:.2}", util.bram_18k);
                assert!(util.max() < 1.0);
            }
        }
    }

    #[test]
    fn utilization_percentages_match_table6() {
        let model = ModelSpec::small_production();
        let cfg = AccelConfig::for_model(&model, Precision::Fixed16);
        let util = estimate_usage(&model, &cfg).utilization(&U280_CAPACITY);
        // Paper: BRAM 78 %, DSP 51 %, URAM 66 %.
        assert!((util.bram_18k - 0.78).abs() < 0.05);
        assert!((util.dsp - 0.51).abs() < 0.04);
        assert!((util.uram - 0.66).abs() < 0.03);
    }

    #[test]
    fn more_pes_cost_more() {
        let model = ModelSpec::small_production();
        let small_cfg = AccelConfig::for_model(&model, Precision::Fixed16);
        let mut big_cfg = small_cfg.clone();
        big_cfg.pes_per_layer = vec![256, 256, 64];
        let a = estimate_usage(&model, &small_cfg);
        let b = estimate_usage(&model, &big_cfg);
        assert!(b.dsp > a.dsp && b.bram_18k > a.bram_18k && b.lut > a.lut);
    }

    #[test]
    fn doubling_pes_would_overflow_dsp_or_bram() {
        // Sanity: the paper's designs already use >78 % BRAM; a 4x PE array
        // must not fit.
        let model = ModelSpec::small_production();
        let mut cfg = AccelConfig::for_model(&model, Precision::Fixed32);
        cfg.pes_per_layer = vec![512, 512, 128];
        assert!(!estimate_usage(&model, &cfg).fits(&U280_CAPACITY));
    }
}
