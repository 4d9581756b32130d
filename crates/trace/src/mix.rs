//! Multi-programmed workload mixes for the 8-core evaluation.

use crate::catalog;
use crate::profile::WorkloadProfile;
use serde::Serialize;

/// A multi-core workload mix: one profile per core.
///
/// The paper evaluates 56 *homogeneous* 8-core mixes — eight copies of the same
/// single-core workload running together — which is the configuration
/// [`homogeneous_mix`] produces. Heterogeneous mixes can be built directly from
/// profiles when needed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiCoreMix {
    /// Mix name used in reports.
    pub name: String,
    /// One workload profile per core.
    pub cores: Vec<WorkloadProfile>,
}

impl MultiCoreMix {
    /// Number of cores in the mix.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }
}

/// Builds the homogeneous `cores`-copy mix of `workload_name`.
///
/// Returns `None` if the workload is not in the Table 3 catalog.
pub fn homogeneous_mix(workload_name: &str, cores: usize) -> Option<MultiCoreMix> {
    let profile = catalog::workload(workload_name)?;
    Some(MultiCoreMix { name: format!("{workload_name}-x{cores}"), cores: vec![profile; cores] })
}

/// All homogeneous 8-core mixes the paper evaluates (one per catalog workload
/// that exerts measurable memory pressure; the paper uses 56 of the 61).
pub fn paper_eight_core_mixes() -> Vec<MultiCoreMix> {
    catalog::all_workloads()
        .into_iter()
        .filter(|w| w.bandwidth_mbps >= 10.0)
        .map(|w| MultiCoreMix { name: format!("{}-x8", w.name), cores: vec![w; 8] })
        .collect()
}

/// The paper's *heterogeneous* mixed medium/high-intensity 8-core mixes:
/// four medium-intensity and four high-intensity workloads per mix, paired
/// deterministically across the two classes (medium `i` with high `i`,
/// rotating through both lists), so every mix has real contention between
/// latency-sensitive and bandwidth-hungry cores — the configuration where
/// weighted speedup with *true* alone-IPC normalization differs from the
/// homogeneous normalized-IPC shortcut.
pub fn mixed_intensity_eight_core_mixes() -> Vec<MultiCoreMix> {
    let workloads = catalog::all_workloads();
    let medium: Vec<WorkloadProfile> = workloads
        .iter()
        .filter(|w| w.intensity() == crate::profile::MemoryIntensity::Medium)
        .cloned()
        .collect();
    let high: Vec<WorkloadProfile> = workloads
        .iter()
        .filter(|w| w.intensity() == crate::profile::MemoryIntensity::High)
        .cloned()
        .collect();
    if medium.is_empty() || high.is_empty() {
        return Vec::new();
    }
    // 56 mixes — the paper's full-scope mix count, so every ExperimentScope
    // draws real coverage (`take(scope.mix_count())`). The medium picks walk
    // the medium list by mix index while the high picks walk the high list
    // with coprime strides, so all 56 (medium-window, high-window) pairings
    // are distinct for the catalog's 20 medium × 14 high workloads.
    (0..56)
        .map(|index| {
            let mut cores = Vec::with_capacity(8);
            for slot in 0..4 {
                cores.push(medium[(index + slot) % medium.len()].clone());
                cores.push(high[(index * 5 + slot * 3) % high.len()].clone());
            }
            MultiCoreMix { name: format!("mixMH{index:02}"), cores }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_mix_replicates_profile() {
        let mix = homogeneous_mix("429.mcf", 8).unwrap();
        assert_eq!(mix.core_count(), 8);
        assert!(mix.cores.iter().all(|c| c.name == "429.mcf"));
        assert_eq!(mix.name, "429.mcf-x8");
    }

    #[test]
    fn unknown_workload_returns_none() {
        assert!(homogeneous_mix("no-such-workload", 8).is_none());
    }

    #[test]
    fn paper_mixes_are_around_56() {
        let mixes = paper_eight_core_mixes();
        assert!((50..=61).contains(&mixes.len()), "got {} mixes", mixes.len());
        assert!(mixes.iter().all(|m| m.core_count() == 8));
    }

    #[test]
    fn mixed_intensity_mixes_pair_medium_and_high_cores() {
        use crate::profile::MemoryIntensity;
        let mixes = mixed_intensity_eight_core_mixes();
        // Full-scope coverage: every scope's mix_count is satisfiable.
        assert_eq!(mixes.len(), 56);
        // The pairings must actually differ across mixes, not just rotate in
        // lockstep (distinct (medium, high) windows).
        let signatures: std::collections::HashSet<Vec<&str>> =
            mixes.iter().map(|m| m.cores.iter().map(|c| c.name.as_str()).collect()).collect();
        assert_eq!(signatures.len(), mixes.len(), "mix core lists must be pairwise distinct");
        for mix in &mixes {
            assert_eq!(mix.core_count(), 8, "{}", mix.name);
            let medium = mix.cores.iter().filter(|c| c.intensity() == MemoryIntensity::Medium).count();
            let high = mix.cores.iter().filter(|c| c.intensity() == MemoryIntensity::High).count();
            assert_eq!((medium, high), (4, 4), "{} must pair 4 medium with 4 high", mix.name);
        }
        // Names are unique and deterministic.
        let names: std::collections::HashSet<&str> = mixes.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), mixes.len());
        assert_eq!(mixed_intensity_eight_core_mixes(), mixes);
    }
}
