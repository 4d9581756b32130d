//! Workload profiles: the statistics a synthetic trace is generated from.

use serde::Serialize;

/// Memory-intensity class used by the paper to group workloads (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum MemoryIntensity {
    /// RBMPKI in `[0, 2)`.
    Low,
    /// RBMPKI in `[2, 10)`.
    Medium,
    /// RBMPKI of 10 or more.
    High,
}

impl MemoryIntensity {
    /// Classifies an RBMPKI value the way Table 3 does.
    pub fn classify(rbmpki: f64) -> Self {
        if rbmpki >= 10.0 {
            MemoryIntensity::High
        } else if rbmpki >= 2.0 {
            MemoryIntensity::Medium
        } else {
            MemoryIntensity::Low
        }
    }
}

/// The statistical profile a synthetic workload trace is generated from.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadProfile {
    /// Workload name (matches Table 3, e.g. `"519.lbm"`).
    pub name: String,
    /// Row-buffer misses per kilo-instruction.
    pub rbmpki: f64,
    /// Average memory bandwidth in MB/s (from Table 3, used for reporting).
    pub bandwidth_mbps: f64,
    /// Fraction of memory accesses that hit the currently open row.
    pub row_locality: f64,
    /// Number of distinct DRAM rows the workload touches per bank.
    pub footprint_rows_per_bank: usize,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Number of concurrent access streams (spatial streams / MLP proxy).
    pub streams: usize,
}

impl WorkloadProfile {
    /// The paper's memory-intensity class for this profile.
    pub fn intensity(&self) -> MemoryIntensity {
        MemoryIntensity::classify(self.rbmpki)
    }

    /// Memory accesses per kilo-instruction (row hits + row misses).
    pub fn accesses_per_kilo_instruction(&self) -> f64 {
        if self.row_locality >= 1.0 {
            self.rbmpki
        } else {
            self.rbmpki / (1.0 - self.row_locality)
        }
    }

    /// Mean instruction gap between two consecutive memory accesses.
    pub fn mean_gap(&self) -> f64 {
        let apki = self.accesses_per_kilo_instruction();
        if apki <= 0.0 {
            1.0e6
        } else {
            1000.0 / apki
        }
    }

    /// Validates the profile, returning human-readable problems (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.rbmpki < 0.0 {
            problems.push("rbmpki must be non-negative".to_string());
        }
        if !(0.0..1.0).contains(&self.row_locality) {
            problems.push("row_locality must be in [0, 1)".to_string());
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            problems.push("write_fraction must be in [0, 1]".to_string());
        }
        if self.footprint_rows_per_bank == 0 {
            problems.push("footprint must cover at least one row per bank".to_string());
        }
        if self.streams == 0 {
            problems.push("at least one access stream is required".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(rbmpki: f64) -> WorkloadProfile {
        WorkloadProfile {
            name: "test".to_string(),
            rbmpki,
            bandwidth_mbps: 1000.0,
            row_locality: 0.5,
            footprint_rows_per_bank: 256,
            write_fraction: 0.2,
            streams: 4,
        }
    }

    #[test]
    fn classification_matches_table3_boundaries() {
        assert_eq!(MemoryIntensity::classify(0.0), MemoryIntensity::Low);
        assert_eq!(MemoryIntensity::classify(1.99), MemoryIntensity::Low);
        assert_eq!(MemoryIntensity::classify(2.0), MemoryIntensity::Medium);
        assert_eq!(MemoryIntensity::classify(9.99), MemoryIntensity::Medium);
        assert_eq!(MemoryIntensity::classify(10.0), MemoryIntensity::High);
    }

    #[test]
    fn accesses_scale_with_locality() {
        let p = profile(5.0);
        // 5 row misses per KI at 50% locality = 10 accesses per KI.
        assert!((p.accesses_per_kilo_instruction() - 10.0).abs() < 1e-9);
        assert!((p.mean_gap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_uses_rbmpki() {
        assert_eq!(profile(15.0).intensity(), MemoryIntensity::High);
        assert_eq!(profile(5.0).intensity(), MemoryIntensity::Medium);
        assert_eq!(profile(0.5).intensity(), MemoryIntensity::Low);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = profile(5.0);
        assert!(p.validate().is_empty());
        p.row_locality = 1.5;
        p.streams = 0;
        assert_eq!(p.validate().len(), 2);
    }
}
