//! Per-bit area densities for the memory structures trackers are built from.

use serde::Serialize;

/// The kind of on-chip memory a tracker component is implemented with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MemoryKind {
    /// Scratchpad SRAM indexed by an address (CoMeT's Counter Table, Hydra's GCT).
    Sram,
    /// Content-addressable memory searched by tag (Graphene's table, CoMeT's RAT).
    Cam,
}

/// SRAM area density in mm² per bit, calibrated so a 64 KiB scratchpad costs
/// ≈ 0.05 mm² (the CT (SRAM) row of Table 4 at NRH = 1K).
pub const SRAM_MM2_PER_BIT: f64 = 9.5e-8;

/// CAM area density in mm² per bit. CAM cells are roughly 3× larger than SRAM
/// cells (the paper cites this as the reason tag-based trackers are expensive);
/// calibrated so a 12.5 KiB CAM costs ≈ 0.03 mm² (the RAT row of Table 4).
pub const CAM_MM2_PER_BIT: f64 = 2.9e-7;

/// Area of `bits` of scratchpad SRAM in mm².
pub fn sram_area_mm2(bits: u64) -> f64 {
    bits as f64 * SRAM_MM2_PER_BIT
}

/// Area of `bits` of content-addressable memory in mm².
pub fn cam_area_mm2(bits: u64) -> f64 {
    bits as f64 * CAM_MM2_PER_BIT
}

/// Area of `bits` of the given memory kind in mm².
pub fn area_mm2(kind: MemoryKind, bits: u64) -> f64 {
    match kind {
        MemoryKind::Sram => sram_area_mm2(bits),
        MemoryKind::Cam => cam_area_mm2(bits),
    }
}

/// Converts bits to KiB.
pub fn bits_to_kib(bits: u64) -> f64 {
    bits as f64 / 8.0 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_calibration_matches_table4_ct() {
        // 64 KiB of SRAM ≈ 0.05 mm².
        let bits = 64 * 1024 * 8;
        let area = sram_area_mm2(bits);
        assert!((area - 0.05).abs() < 0.005, "area = {area}");
    }

    #[test]
    fn cam_calibration_matches_table4_rat() {
        // 12.5 KiB of CAM ≈ 0.03 mm².
        let bits = (12.5 * 1024.0 * 8.0) as u64;
        let area = cam_area_mm2(bits);
        assert!((area - 0.03).abs() < 0.005, "area = {area}");
    }

    #[test]
    fn cam_is_about_three_times_denser_in_cost() {
        let ratio = CAM_MM2_PER_BIT / SRAM_MM2_PER_BIT;
        assert!(ratio > 2.5 && ratio < 3.5);
        assert!(area_mm2(MemoryKind::Cam, 1000) > area_mm2(MemoryKind::Sram, 1000));
    }

    #[test]
    fn bits_to_kib_round_trip() {
        assert!((bits_to_kib(8 * 1024) - 1.0).abs() < 1e-12);
    }
}
