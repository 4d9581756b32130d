//! Experiment harness: one module per group of tables/figures from the paper.
//!
//! Every experiment family is split in two:
//!
//! * a **plan** that enumerates the family's simulation grid as
//!   [`CellSpec`] data (workload placement × mechanism × threshold), and
//! * an **assembly** that folds the per-cell [`RunResult`]s back into the
//!   family's figure/table data structure.
//!
//! Execution sits behind the [`CellBackend`] seam between the two: the plain
//! [`ParallelExecutor`] fans the cells out and runs all of them, while the
//! experiment service (crate `comet-service`) memoizes each cell in a
//! content-addressed cache so repeat and overlapping sweeps only simulate
//! novel cells. The `fig*` functions are thin plan → run → assemble wrappers,
//! so both backends serve every experiment unchanged.

pub mod adversarial;
pub mod cells;
pub mod comparison;
pub mod fpr;
pub mod multicore;
pub mod parallel;
pub mod ranks;
pub mod singlecore;
pub mod sweeps;

pub use adversarial::{fig16_adversarial, AdversarialResult};
pub use cells::{CellBackend, CellSpec, WorkloadSpec};
pub use comparison::{fig12_fig14_comparison, radar_fig4, ComparisonResult, RadarPoint};
pub use fpr::{fig17_false_positive_rate, FprPoint};
pub use multicore::{fig13_fig15_multicore, mixed_multicore, MixedMulticoreResult, MulticoreResult};
pub use parallel::ParallelExecutor;
pub use ranks::{rank_sweep, RankPoint, RankSweepResult};
pub use singlecore::{fig10_fig11_singlecore, SingleCoreResult};
pub use sweeps::{fig6_ct_sweep, fig7_rat_sweep, fig8_eprt_sweep, fig9_k_sweep, SweepPoint};

use crate::metrics::RunResult;
use crate::runner::MechanismKind;
use serde::Serialize;

/// Scope of an experiment run: which workloads and how much simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExperimentScope {
    /// Tiny runs for CI / unit tests (a handful of workloads, sub-millisecond windows).
    Smoke,
    /// The default: a stratified workload subset and a scaled tracker window.
    Quick,
    /// Every workload of Table 3 with the full 64 ms refresh window.
    Full,
}

impl ExperimentScope {
    /// The single-core workload names this scope simulates.
    pub fn workloads(&self) -> Vec<String> {
        match self {
            ExperimentScope::Smoke => vec![
                "bfs_ny".to_string(),
                "429.mcf".to_string(),
                "462.libquantum".to_string(),
                "473.astar".to_string(),
                "541.leela".to_string(),
            ],
            ExperimentScope::Quick => {
                comet_trace::catalog::representative_subset().iter().map(|w| w.name.clone()).collect()
            }
            ExperimentScope::Full => {
                comet_trace::catalog::all_workloads().iter().map(|w| w.name.clone()).collect()
            }
        }
    }

    /// The RowHammer thresholds swept by this scope.
    pub fn thresholds(&self) -> Vec<u64> {
        match self {
            ExperimentScope::Smoke => vec![1000, 125],
            _ => vec![1000, 500, 250, 125],
        }
    }

    /// The simulation configuration for this scope.
    pub fn sim_config(&self) -> crate::SimConfig {
        match self {
            ExperimentScope::Smoke => crate::SimConfig::quick_test(),
            ExperimentScope::Quick => crate::SimConfig::quick(8),
            ExperimentScope::Full => crate::SimConfig::paper_full(),
        }
    }

    /// Number of 8-core mixes evaluated by this scope.
    pub fn mix_count(&self) -> usize {
        match self {
            ExperimentScope::Smoke => 2,
            ExperimentScope::Quick => 10,
            ExperimentScope::Full => 56,
        }
    }
}

/// A borrowed view of a three-axis cell grid (outer × middle × inner),
/// indexable by axis positions so assemblies never track a manual running
/// index.
///
/// Every experiment plan lays its cells out as one flat vector of
/// row-major grids — typically (threshold × mechanism × workload) — and the
/// assembly re-walks the same axes. Keeping the enumeration order and the
/// re-walk order in sync by hand is fragile; [`plan_grid`] owns the layout
/// and [`GridView::at`] is the only way results come back out.
pub(crate) struct GridView<'a, R> {
    results: &'a [R],
    middle_len: usize,
    inner_len: usize,
}

impl<'a, R> GridView<'a, R> {
    /// Wraps `results` (one flat row-major grid) for indexed access.
    pub(crate) fn new(results: &'a [R], middle_len: usize, inner_len: usize) -> Self {
        GridView { results, middle_len: middle_len.max(1), inner_len: inner_len.max(1) }
    }

    /// The result for `(outers[outer], middles[middle], inners[inner])`.
    pub(crate) fn at(&self, outer: usize, middle: usize, inner: usize) -> &R {
        &self.results[(outer * self.middle_len + middle) * self.inner_len + inner]
    }
}

/// Enumerates the row-major (outer × middle × inner) grid of cells produced
/// by `spec`, appending to `cells`. The matching [`GridView`] must be built
/// with `middles.len()` / `inners.len()`.
pub(crate) fn plan_grid<A, B, C>(
    cells: &mut Vec<CellSpec>,
    outers: &[A],
    middles: &[B],
    inners: &[C],
    spec: impl Fn(&A, &B, &C) -> CellSpec,
) {
    cells.reserve(outers.len() * middles.len() * inners.len());
    for outer in outers {
        for middle in middles {
            for inner in inners {
                cells.push(spec(outer, middle, inner));
            }
        }
    }
}

/// Unprotected single-core baseline cells for every `(threshold, workload)`
/// pair, row-major; view with `GridView::new(.., 1, workloads.len())`.
pub(crate) fn baseline_cells(cells: &mut Vec<CellSpec>, workloads: &[String], thresholds: &[u64]) {
    plan_grid(cells, thresholds, &[()], workloads, |&nrh, _, workload| {
        CellSpec::single(workload, MechanismKind::Baseline, nrh)
    });
}

/// Unprotected homogeneous-mix baseline cells, laid out like
/// [`baseline_cells`].
pub(crate) fn homogeneous_baseline_cells(
    cells: &mut Vec<CellSpec>,
    mixes: &[String],
    cores: usize,
    thresholds: &[u64],
) {
    plan_grid(cells, thresholds, &[()], mixes, |&nrh, _, workload| {
        CellSpec::homogeneous(workload, cores, MechanismKind::Baseline, nrh)
    });
}

/// The per-kilo-activation preventive-refresh rate of one run — the headline
/// tracker-pressure metric the sweeps report.
pub(crate) fn preventive_per_kilo_act(run: &RunResult) -> f64 {
    if run.mitigation.activations_observed == 0 {
        0.0
    } else {
        1000.0 * run.mitigation.preventive_refreshes as f64 / run.mitigation.activations_observed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_grow_in_size() {
        assert!(ExperimentScope::Smoke.workloads().len() < ExperimentScope::Quick.workloads().len());
        assert!(ExperimentScope::Quick.workloads().len() < ExperimentScope::Full.workloads().len());
        assert_eq!(ExperimentScope::Full.workloads().len(), 61);
    }

    #[test]
    fn smoke_scope_uses_two_thresholds() {
        assert_eq!(ExperimentScope::Smoke.thresholds(), vec![1000, 125]);
        assert_eq!(ExperimentScope::Full.thresholds().len(), 4);
    }

    #[test]
    fn every_scope_workload_is_in_the_catalog() {
        for scope in [ExperimentScope::Smoke, ExperimentScope::Quick, ExperimentScope::Full] {
            for name in scope.workloads() {
                assert!(comet_trace::catalog::workload(&name).is_some(), "{name} missing");
            }
        }
    }

    #[test]
    fn plan_grid_and_grid_view_agree_on_layout() {
        let mut cells = Vec::new();
        let thresholds = [1000u64, 125];
        let mechanisms = [MechanismKind::Comet, MechanismKind::Para, MechanismKind::Rega];
        let workloads = ["a".to_string(), "b".to_string()];
        plan_grid(&mut cells, &thresholds, &mechanisms, &workloads, |&nrh, &m, w| {
            CellSpec::single(w.clone(), m, nrh)
        });
        assert_eq!(cells.len(), 2 * 3 * 2);
        let view = GridView::new(&cells, mechanisms.len(), workloads.len());
        let cell = view.at(1, 2, 0);
        assert_eq!(cell.nrh, 125);
        assert_eq!(cell.mechanism, MechanismKind::Rega);
        assert_eq!(cell.workload, WorkloadSpec::Single { workload: "a".to_string() });
    }
}
