//! Area report types.

use serde::Serialize;

/// One component of a tracker's storage (e.g. "CT (SRAM)" or "RAT (CAM)").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AreaComponent {
    /// Component name as it appears in Table 4.
    pub name: String,
    /// Storage in KiB.
    pub storage_kib: f64,
    /// Estimated chip area in mm².
    pub area_mm2: f64,
}

/// The storage and area of one mechanism for a dual-rank channel.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AreaReport {
    /// Mechanism name.
    pub mechanism: String,
    /// RowHammer threshold the mechanism is configured for.
    pub nrh: u64,
    /// Total processor-side storage in KiB.
    pub storage_kib: f64,
    /// Total processor-side area in mm².
    pub area_mm2: f64,
    /// DRAM-side storage in KiB (Hydra's row count table), zero for most mechanisms.
    pub dram_storage_kib: f64,
    /// DRAM chip area overhead as a fraction (REGA), zero for most mechanisms.
    pub dram_area_fraction: f64,
    /// Per-component breakdown.
    pub components: Vec<AreaComponent>,
}

impl AreaReport {
    /// Builds a report by summing `components` and attaching DRAM-side costs.
    pub fn from_components(
        mechanism: impl Into<String>,
        nrh: u64,
        components: Vec<AreaComponent>,
        dram_storage_kib: f64,
        dram_area_fraction: f64,
    ) -> Self {
        let storage_kib = components.iter().map(|c| c.storage_kib).sum();
        let area_mm2 = components.iter().map(|c| c.area_mm2).sum();
        AreaReport {
            mechanism: mechanism.into(),
            nrh,
            storage_kib,
            area_mm2,
            dram_storage_kib,
            dram_area_fraction,
            components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_component_sums() {
        let r = AreaReport::from_components(
            "Test",
            1000,
            vec![
                AreaComponent { name: "A".into(), storage_kib: 10.0, area_mm2: 0.01 },
                AreaComponent { name: "B".into(), storage_kib: 5.0, area_mm2: 0.02 },
            ],
            0.0,
            0.0,
        );
        assert!((r.storage_kib - 15.0).abs() < 1e-12);
        assert!((r.area_mm2 - 0.03).abs() < 1e-12);
        assert_eq!(r.components.len(), 2);
    }
}
