//! Figure 17: false-positive-rate comparison of CoMeT's per-hash-partitioned
//! Counter Table against BlockHammer's shared counting Bloom filter.

use comet_core::CounterTable;
use comet_mitigations::CountingBloomFilter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One point of Figure 17: false positive rates at a given number of unique rows.
#[derive(Debug, Clone, Serialize)]
pub struct FprPoint {
    /// Number of unique rows activated within the refresh window.
    pub unique_rows: usize,
    /// CoMeT Counter Table false positive rate.
    pub comet_fpr: f64,
    /// BlockHammer counting-Bloom-filter false positive rate.
    pub blockhammer_fpr: f64,
}

/// Reproduces Figure 17: distributes a total activation budget uniformly over a
/// varying number of unique rows and measures how often each tracker
/// *overestimates a row past the detection threshold* even though the row never
/// reached it (a false positive).
///
/// The paper uses 10,000 total activations (the average per refresh window
/// across its benign single-core workloads) at `NRH = 125`; the detection
/// threshold is CoMeT's preventive-refresh threshold `NPR = NRH / 4`. Each
/// tracker runs in its own paper's per-bank configuration: CoMeT's Counter
/// Table with 4 hash functions × 512 counters each (the `CometConfig` default,
/// conservative updates, saturating at `NPR`), and BlockHammer's counting
/// Bloom filter with 1,024 counters shared by 4 hash functions (the
/// `BlockHammerConfig::for_threshold` shape). The storage budgets are
/// comparable (the CT's counters saturate at `NPR` and are ~5 bits each); the
/// FPR gap measured here is the algorithmic difference Figure 17 highlights —
/// per-hash partitioning with conservative updates versus a shared counter
/// pool where every counter of a group grows on every insertion.
pub fn fig17_false_positive_rate(total_activations: u64, nrh: u64, seed: u64) -> Vec<FprPoint> {
    const TRIALS: u64 = 5;
    let threshold = (nrh / 4).max(1);
    let unique_row_counts =
        [10usize, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000];
    let mut points = Vec::new();
    for &unique_rows in &unique_row_counts {
        let mut comet_fp = 0u64;
        let mut blockhammer_fp = 0u64;
        let mut negatives = 0u64;
        for trial in 0..TRIALS {
            let trial_seed = seed ^ (unique_rows as u64) ^ (trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut rng = SmallRng::seed_from_u64(trial_seed);
            // CoMeT's CT: 4 hash functions × 512 counters each, saturating at NPR.
            let mut ct = CounterTable::new(4, 512, threshold as u32, trial_seed);
            // BlockHammer's CBF: 1,024 counters shared by 4 hash functions.
            let mut cbf = CountingBloomFilter::new(1024, 4, trial_seed);
            let mut truth = vec![0u64; unique_rows];
            for _ in 0..total_activations {
                let row = rng.gen_range(0..unique_rows) as u64;
                truth[row as usize] += 1;
                ct.record_activation(row, 1);
                cbf.insert(row, 1);
            }
            for (row, &count) in truth.iter().enumerate() {
                if count >= threshold {
                    continue; // a true positive cannot be a false positive
                }
                negatives += 1;
                if ct.estimate(row as u64) >= threshold {
                    comet_fp += 1;
                }
                if cbf.estimate(row as u64) >= threshold {
                    blockhammer_fp += 1;
                }
            }
        }
        let rate = |fp: u64| if negatives == 0 { 0.0 } else { fp as f64 / negatives as f64 };
        points.push(FprPoint {
            unique_rows,
            comet_fpr: rate(comet_fp),
            blockhammer_fpr: rate(blockhammer_fp),
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comet_fpr_not_worse_than_blockhammer_for_small_row_counts() {
        // The paper's claim: CoMeT's conservative-update, partitioned counters have a
        // lower false positive rate than BlockHammer's shared counting Bloom filter
        // in the up-to-~2,500-unique-row range, and the two converge beyond that.
        // Individual points are noisy (few negatives exist near the threshold), so we
        // compare the aggregate over that range and require a strictly-better region.
        let points = fig17_false_positive_rate(10_000, 125, 42);
        let in_range: Vec<_> = points.iter().filter(|p| p.unique_rows <= 2500).collect();
        let comet_mean: f64 = in_range.iter().map(|p| p.comet_fpr).sum::<f64>() / in_range.len() as f64;
        let blockhammer_mean: f64 =
            in_range.iter().map(|p| p.blockhammer_fpr).sum::<f64>() / in_range.len() as f64;
        assert!(
            comet_mean <= blockhammer_mean + 0.01,
            "mean FPR over <=2500 rows: CoMeT {comet_mean} vs BlockHammer {blockhammer_mean}"
        );
        // Somewhere in the mid range BlockHammer must actually be worse.
        assert!(
            points.iter().any(|p| p.blockhammer_fpr > p.comet_fpr + 0.01),
            "expected a region where the CBF has strictly more false positives"
        );
    }

    #[test]
    fn fpr_low_for_few_rows() {
        // With only a handful of hot rows neither tracker produces collisions:
        // every row is either a genuine aggressor or estimated accurately.
        let points = fig17_false_positive_rate(10_000, 125, 7);
        let first = points.first().unwrap();
        assert!(first.comet_fpr < 0.05, "{first:?}");
    }
}
