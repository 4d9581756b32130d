//! Bundled DRAM configuration: geometry + timing + energy parameters.

use crate::energy::EnergyModel;
use crate::geometry::DramGeometry;
use crate::timing::TimingParams;
use serde::{Deserialize, Serialize};

/// Complete description of the simulated DRAM devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Organization (channels, ranks, banks, rows, columns).
    pub geometry: DramGeometry,
    /// JEDEC timing parameters.
    pub timing: TimingParams,
    /// IDD-based energy parameters.
    pub energy: EnergyModel,
}

impl DramConfig {
    /// The DDR4 configuration simulated in the CoMeT paper (Table 2):
    /// 1 channel, 2 ranks, 4 bank groups × 4 banks, 128 K rows per bank,
    /// DDR4-2400 timing with a 64 ms refresh window.
    pub fn ddr4_paper_default() -> Self {
        DramConfig {
            geometry: DramGeometry::paper_default(),
            timing: TimingParams::ddr4_2400(),
            energy: EnergyModel::ddr4_4gb_x8(),
        }
    }

    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        DramConfig {
            geometry: DramGeometry::tiny(),
            timing: TimingParams::ddr4_2400(),
            energy: EnergyModel::ddr4_4gb_x8(),
        }
    }

    /// The paper configuration scaled out to `channels` independent channels.
    pub fn ddr4_multi_channel(channels: usize) -> Self {
        let mut c = Self::ddr4_paper_default();
        c.geometry = c.geometry.with_channels(channels);
        c
    }

    /// Validates the configuration, returning human-readable problems (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.timing.consistency_violations();
        problems.extend(self.geometry.consistency_violations());
        problems
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert!(DramConfig::ddr4_paper_default().validate().is_empty());
    }

    #[test]
    fn tiny_is_valid() {
        assert!(DramConfig::tiny().validate().is_empty());
    }

    #[test]
    fn multi_channel_config_is_valid() {
        for channels in [2usize, 4] {
            let c = DramConfig::ddr4_multi_channel(channels);
            assert_eq!(c.geometry.channels, channels);
            assert!(c.validate().is_empty());
        }
    }

    #[test]
    fn clone_and_equality_behave() {
        let c = DramConfig::ddr4_paper_default();
        let d = c.clone();
        assert_eq!(c, d);
        assert_ne!(c, DramConfig::tiny());
    }
}
