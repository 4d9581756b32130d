//! Result types and the statistics used throughout the experiment reports.

use crate::controller::ControllerStats;
use comet_dram::EnergyBreakdown;
use comet_mitigations::MitigationStats;
use serde::{Deserialize, Serialize};

/// The outcome of one simulation run (one workload × one mechanism × one NRH).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload / experiment label.
    pub label: String,
    /// Mitigation mechanism name.
    pub mechanism: String,
    /// Number of cores simulated.
    pub cores: usize,
    /// Measured DRAM cycles (warmup excluded).
    pub dram_cycles: u64,
    /// Measured CPU cycles.
    pub cpu_cycles: f64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Per-core IPC.
    pub per_core_ipc: Vec<f64>,
    /// Sum of per-core IPC (equals single-core IPC for one core).
    pub ipc: f64,
    /// Demand reads issued.
    pub reads: u64,
    /// Demand writes issued.
    pub writes: u64,
    /// Row activations issued to DRAM.
    pub activations: u64,
    /// Average demand-read latency in nanoseconds.
    pub avg_read_latency_ns: f64,
    /// Total DRAM energy in nanojoules.
    pub energy_nj: f64,
    /// DRAM energy breakdown.
    #[serde(skip)]
    pub energy_breakdown: EnergyBreakdown,
    /// Controller statistics.
    #[serde(skip)]
    pub controller: ControllerStats,
    /// Mitigation statistics.
    pub mitigation: MitigationStats,
    /// Engine telemetry for the metrics layer. Skipped by serde: the golden
    /// checksums pin the serialized result shape, and telemetry is published
    /// to the process registry, not persisted with results.
    #[serde(skip)]
    pub engine: EngineTelemetry,
}

/// Telemetry the engine gathers outside the serialized result: end-of-run
/// scheduler and tracker structure snapshots, read from cold accessors once
/// per run so the simulated path never touches an atomic. Published into the
/// process-global registry by [`crate::telemetry::publish_run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineTelemetry {
    /// Ready-set scheduler pressure per channel shard at run end.
    pub scheduler: Vec<SchedulerPressure>,
    /// Peak bank-lane queue depth per channel shard at run end.
    pub bank_depth_peak: Vec<u32>,
    /// Mechanism structure gauges per channel shard at run end
    /// (`RowHammerMitigation::telemetry_gauges`).
    pub tracker_gauges: Vec<Vec<(&'static str, f64)>>,
    /// Simulation-loop iterations over the whole run (warmup included).
    pub loop_iterations: u64,
    /// `TraceCore::advance` calls over the whole run.
    pub core_advances: u64,
    /// Advances of blocked cores the loop skipped because the event they
    /// wait for had not happened; a loop that re-advanced every blocked core
    /// on every iteration would have made `core_advances + core_wakes_skipped`
    /// calls.
    pub core_wakes_skipped: u64,
}

impl RunResult {
    /// IPC normalized to a baseline run of the same workload.
    pub fn normalized_ipc(&self, baseline: &RunResult) -> f64 {
        if baseline.ipc <= 0.0 {
            1.0
        } else {
            self.ipc / baseline.ipc
        }
    }

    /// DRAM energy normalized to a baseline run of the same workload.
    pub fn normalized_energy(&self, baseline: &RunResult) -> f64 {
        if baseline.energy_nj <= 0.0 {
            1.0
        } else {
            self.energy_nj / baseline.energy_nj
        }
    }

    /// Weighted speedup relative to per-core alone-IPC values.
    ///
    /// For the homogeneous mixes the paper evaluates, normalizing the weighted
    /// speedup to the baseline system cancels the alone-IPC terms, so callers
    /// may also simply use [`normalized_ipc`](Self::normalized_ipc) on the summed IPC.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(alone_ipc.len(), self.per_core_ipc.len(), "one alone-IPC per core required");
        self.per_core_ipc
            .iter()
            .zip(alone_ipc)
            .map(|(&shared, &alone)| if alone > 0.0 { shared / alone } else { 0.0 })
            .sum()
    }
}

/// Queue-pressure snapshot for one bank lane of one controller shard:
/// current per-kind occupancy plus the peak combined depth ever observed.
/// Lets sweeps report controller pressure per bank, not just per channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct BankQueueDepth {
    /// Flat bank index within the channel.
    pub bank: usize,
    /// Demand reads currently queued in the lane.
    pub queued_reads: u32,
    /// Demand writes currently queued in the lane.
    pub queued_writes: u32,
    /// Highest combined (reads + writes) occupancy the lane ever reached.
    pub depth_peak: u32,
}

/// Ready-set pressure counters of one controller shard's per-bank scheduler,
/// accumulated over all demand-scheduling ticks.
///
/// "Ready" is counted per matured-candidate *evaluation*: each time an
/// arbitration pass finds a candidate whose memoized earliest-legal-issue
/// bound has matured and actually evaluates its timing (column, ACT, or PRE).
/// A lane with matured candidates in several classes counts once per class,
/// and candidates behind an issued command in the same tick are not counted
/// (the pass stops at the issue) — so this measures arbitration *work*, the
/// quantity the O(ready-banks) scheduler bounds, not queue occupancy (see
/// [`BankQueueDepth`] for that).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SchedulerPressure {
    /// Demand-scheduling ticks performed (the arbitration runs once per).
    pub demand_ticks: u64,
    /// Matured-candidate evaluations summed over all demand ticks.
    pub ready_lanes_sum: u64,
    /// Most matured-candidate evaluations in any single demand tick.
    pub ready_lanes_max: u32,
    /// Largest number of banks with queued demand at any one time.
    pub pending_lanes_max: u32,
}

impl SchedulerPressure {
    /// Average matured-candidate evaluations per demand tick.
    pub fn avg_ready_lanes(&self) -> f64 {
        if self.demand_ticks == 0 {
            0.0
        } else {
            self.ready_lanes_sum as f64 / self.demand_ticks as f64
        }
    }
}

/// Summary of a distribution of normalized values (one per workload), matching
/// the way the paper reports box plots and GeoMean bars.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DistributionSummary {
    /// Number of samples.
    pub count: usize,
    /// Geometric mean.
    pub geomean: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Maximum.
    pub max: f64,
}

/// Geometric mean of `values` (ignores non-positive entries defensively).
pub fn geometric_mean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|&v| v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = positive.iter().map(|v| v.ln()).sum();
    (log_sum / positive.len() as f64).exp()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    if low == high {
        sorted[low]
    } else {
        let fraction = rank - low as f64;
        sorted[low] * (1.0 - fraction) + sorted[high] * fraction
    }
}

/// Summarizes a set of (typically normalized) values.
pub fn normalized_distribution(values: &[f64]) -> DistributionSummary {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    DistributionSummary {
        count: sorted.len(),
        geomean: geometric_mean(&sorted),
        mean: if sorted.is_empty() { 0.0 } else { sorted.iter().sum::<f64>() / sorted.len() as f64 },
        min: sorted.first().copied().unwrap_or(0.0),
        p25: percentile(&sorted, 0.25),
        median: percentile(&sorted, 0.5),
        p75: percentile(&sorted, 0.75),
        max: sorted.last().copied().unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(ipc: f64, energy: f64) -> RunResult {
        RunResult {
            label: "w".into(),
            mechanism: "m".into(),
            cores: 1,
            dram_cycles: 1000,
            cpu_cycles: 3000.0,
            instructions: 3000,
            per_core_ipc: vec![ipc],
            ipc,
            reads: 10,
            writes: 5,
            activations: 7,
            avg_read_latency_ns: 50.0,
            energy_nj: energy,
            energy_breakdown: EnergyBreakdown::default(),
            controller: ControllerStats::default(),
            mitigation: MitigationStats::default(),
            engine: EngineTelemetry::default(),
        }
    }

    #[test]
    fn normalization_divides_by_baseline() {
        let baseline = result(2.0, 100.0);
        let slower = result(1.5, 110.0);
        assert!((slower.normalized_ipc(&baseline) - 0.75).abs() < 1e-12);
        assert!((slower.normalized_energy(&baseline) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_sums_per_core_ratios() {
        let mut r = result(0.0, 0.0);
        r.per_core_ipc = vec![1.0, 0.5];
        r.cores = 2;
        let ws = r.weighted_speedup(&[2.0, 1.0]);
        assert!((ws - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_uniform_values() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn distribution_summary_orders_quartiles() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64 / 100.0).collect();
        let d = normalized_distribution(&values);
        assert_eq!(d.count, 100);
        assert!(d.min < d.p25 && d.p25 < d.median && d.median < d.p75 && d.p75 < d.max);
        assert!((d.median - 0.505).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "one alone-IPC per core")]
    fn weighted_speedup_requires_matching_lengths() {
        let r = result(1.0, 1.0);
        let _ = r.weighted_speedup(&[1.0, 1.0]);
    }
}
