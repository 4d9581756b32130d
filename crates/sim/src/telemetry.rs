//! Publishes one run's engine and tracker telemetry into a metrics registry.
//!
//! Publication happens once per completed run, from `System::assemble` into
//! [`comet_telemetry::global`] — the simulated path itself carries no
//! registry handles and touches no atomics. Counter families accumulate
//! across runs (a sweep's scrape shows fleet-wide totals); gauge families
//! hold the most recent run's snapshot for their label set.
//!
//! All names are prefixed `comet_engine_` / `comet_tracker_`, disjoint from
//! the `service_` / `fleet_` / `worker_` families the experiment service
//! keeps in its own registry, so rendering both into one scrape body can
//! never collide.

use crate::metrics::RunResult;
use comet_telemetry::Registry;

/// Publishes `result`'s telemetry into `registry`. Tracker counters are
/// labeled by mechanism; per-channel structure gauges by mechanism and
/// channel.
pub fn publish_run(result: &RunResult, registry: &Registry) {
    let mech = result.mechanism.as_str();
    let by_mech = [("mech", mech)];

    registry.counter_with("comet_engine_runs_total", "Simulation runs completed.", &by_mech).inc();
    registry
        .counter_with(
            "comet_engine_dram_cycles_total",
            "Measured (post-warmup) DRAM cycles simulated.",
            &by_mech,
        )
        .add(result.dram_cycles);
    registry
        .counter_with("comet_engine_activations_total", "Row activations issued to DRAM.", &by_mech)
        .add(result.activations);

    let engine = &result.engine;
    registry
        .counter_with(
            "comet_engine_loop_iterations_total",
            "Simulation-loop iterations, warmup included.",
            &by_mech,
        )
        .add(engine.loop_iterations);
    registry
        .counter_with("comet_engine_core_advances_total", "Core advances, warmup included.", &by_mech)
        .add(engine.core_advances);
    registry
        .counter_with(
            "comet_engine_core_wakes_skipped_total",
            "Blocked-core advances skipped because the awaited event had not happened.",
            &by_mech,
        )
        .add(engine.core_wakes_skipped);
    for (channel, pressure) in engine.scheduler.iter().enumerate() {
        let channel_label = channel.to_string();
        let labels = [("channel", channel_label.as_str())];
        registry
            .counter_with(
                "comet_engine_demand_ticks_total",
                "Demand-scheduling arbitration ticks performed.",
                &labels,
            )
            .add(pressure.demand_ticks);
        registry
            .counter_with(
                "comet_engine_ready_lanes_total",
                "Matured-candidate evaluations summed over all demand ticks.",
                &labels,
            )
            .add(pressure.ready_lanes_sum);
        registry
            .gauge_with(
                "comet_engine_ready_lanes_max",
                "Most matured-candidate evaluations in one demand tick (last run).",
                &labels,
            )
            .set(pressure.ready_lanes_max as f64);
        registry
            .gauge_with(
                "comet_engine_pending_lanes_max",
                "Largest number of banks with queued demand at one time (last run).",
                &labels,
            )
            .set(pressure.pending_lanes_max as f64);
    }
    for (channel, &peak) in engine.bank_depth_peak.iter().enumerate() {
        let channel_label = channel.to_string();
        registry
            .gauge_with(
                "comet_engine_bank_depth_peak",
                "Highest combined per-bank queue occupancy reached (last run).",
                &[("channel", channel_label.as_str())],
            )
            .set(peak as f64);
    }

    // Tracker counters come from the run's MitigationStats — the same struct
    // the serialized result reports, so the scrape can never disagree with a
    // saved result. Zero-valued families still register (the catalog is
    // stable), which costs nothing on the hot path.
    for (name, value) in result.mitigation.named_counts() {
        registry
            .counter_with(
                &format!("comet_tracker_{name}_total"),
                "Mitigation counter accumulated across completed runs.",
                &by_mech,
            )
            .add(value);
    }
    for (channel, gauges) in engine.tracker_gauges.iter().enumerate() {
        let channel_label = channel.to_string();
        for &(name, value) in gauges {
            registry
                .gauge_with(
                    &format!("comet_tracker_{name}"),
                    "Mechanism structure gauge at run end.",
                    &[("channel", channel_label.as_str()), ("mech", mech)],
                )
                .set(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MechanismKind;
    use crate::system::SimConfig;
    use crate::Runner;

    #[test]
    fn a_seeded_run_publishes_engine_and_tracker_families() {
        let registry = Registry::new();
        let runner = Runner::new(SimConfig::quick_test());
        let result = runner.run_single_core("429.mcf", MechanismKind::Comet, 1000).unwrap();
        publish_run(&result, &registry);
        let text = registry.render();
        assert!(text.contains("comet_engine_runs_total{mech=\"CoMeT\"} 1"), "scrape:\n{text}");
        assert!(text.contains("comet_tracker_activations_observed_total{mech=\"CoMeT\"}"));
        assert!(text.contains("comet_tracker_cms_saturation{channel=\"0\",mech=\"CoMeT\"}"));
        assert!(text.contains("comet_engine_demand_ticks_total{channel=\"0\"}"));
        let engine = &result.engine;
        assert!(engine.loop_iterations > 0 && engine.core_advances > 0 && engine.core_wakes_skipped > 0);
        for (name, value) in [
            ("loop_iterations", engine.loop_iterations),
            ("core_advances", engine.core_advances),
            ("core_wakes_skipped", engine.core_wakes_skipped),
        ] {
            let line = format!("comet_engine_{name}_total{{mech=\"CoMeT\"}} {value}");
            assert!(text.contains(&line), "missing `{line}` in scrape:\n{text}");
        }

        // Counters accumulate across runs.
        publish_run(&result, &registry);
        assert!(registry.render().contains("comet_engine_runs_total{mech=\"CoMeT\"} 2"));
    }
}
