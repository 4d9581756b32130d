//! Table 1 and Table 4 of the paper as data rows.

use crate::report::AreaReport;
use crate::trackers::{comet_report, graphene_report, hydra_report};
use serde::Serialize;

/// The RowHammer thresholds both tables sweep.
pub const TABLE_THRESHOLDS: [u64; 4] = [1000, 500, 250, 125];

/// One row of Table 1: Graphene's storage overhead per threshold.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table1Row {
    /// RowHammer threshold.
    pub nrh: u64,
    /// Graphene storage in KiB for a 32-bank (dual-rank) channel.
    pub graphene_storage_kib: f64,
}

/// Generates Table 1 (storage overhead of the performance-optimized tracker).
pub fn table1_rows() -> Vec<Table1Row> {
    TABLE_THRESHOLDS
        .iter()
        .map(|&nrh| Table1Row { nrh, graphene_storage_kib: graphene_report(nrh).storage_kib })
        .collect()
}

/// One row of Table 4: storage and area for one mechanism at one threshold.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table4Row {
    /// RowHammer threshold.
    pub nrh: u64,
    /// Full report (components included) for the mechanism.
    pub report: AreaReport,
}

/// Generates Table 4 (CoMeT, Graphene, and Hydra across all thresholds).
pub fn table4_rows() -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for &nrh in &TABLE_THRESHOLDS {
        rows.push(Table4Row { nrh, report: comet_report(nrh) });
        rows.push(Table4Row { nrh, report: graphene_report(nrh) });
        rows.push(Table4Row { nrh, report: hydra_report(nrh) });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_thresholds_and_monotone_storage() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(
                pair[1].graphene_storage_kib > pair[0].graphene_storage_kib,
                "storage must grow as NRH shrinks"
            );
        }
    }

    #[test]
    fn table4_covers_three_mechanisms_per_threshold() {
        let rows = table4_rows();
        assert_eq!(rows.len(), 12);
        for &nrh in &TABLE_THRESHOLDS {
            let mechanisms: Vec<String> =
                rows.iter().filter(|r| r.nrh == nrh).map(|r| r.report.mechanism.clone()).collect();
            assert_eq!(mechanisms, vec!["CoMeT", "Graphene", "Hydra"]);
        }
    }

    #[test]
    fn comet_storage_decreases_with_threshold_in_table4() {
        let rows = table4_rows();
        let comet_kib: Vec<f64> =
            rows.iter().filter(|r| r.report.mechanism == "CoMeT").map(|r| r.report.storage_kib).collect();
        for pair in comet_kib.windows(2) {
            assert!(pair[1] < pair[0], "CoMeT storage must shrink as NRH shrinks");
        }
    }
}
