//! Standalone layer probes: the DRAM substrate replay and the service-side
//! per-cell costs (key, encode, append, recover, decode, lookup), each timed
//! around whole batches of calls into public functions.

use comet_dram::{ChannelStats, CommandKind, DramAddr, DramChannel, DramConfig};
use comet_service::{cell_key, json, store, ExperimentService, ResultStore};
use comet_sim::experiments::{CellSpec, ParallelExecutor};
use comet_sim::{RunResult, Runner};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Host time spent replaying a command mix through a standalone channel.
#[derive(Debug, Default, Clone, Copy)]
pub struct DramReplay {
    pub commands: u64,
    pub seconds: f64,
}

impl DramReplay {
    pub fn add(&mut self, other: DramReplay) {
        self.commands += other.commands;
        self.seconds += other.seconds;
    }
}

/// Replays `mix` (one cell's command counts) through a fresh [`DramChannel`]:
/// one ACT, the cell's average number of column commands, and one PRE per
/// activation, cycling over every bank, with REFs spread evenly. Every
/// command issues at its earliest legal cycle through
/// `earliest_issue` + `issue_trusted`, the controller's own issue path.
pub fn dram_replay(dram: &DramConfig, mix: &ChannelStats) -> DramReplay {
    if mix.acts == 0 {
        return DramReplay::default();
    }
    let geometry = &dram.geometry;
    let banks = geometry.bank_groups_per_rank * geometry.banks_per_bank_group;
    let ranks = geometry.ranks_per_channel;
    let mut channel = DramChannel::new(dram.clone());
    let columns = mix.reads + mix.writes;
    let refs_every = mix.acts.checked_div(mix.refs).map_or(u64::MAX, |n| n.max(1));
    let mut now = 0u64;
    let mut column_credit = 0u64;
    let mut writes_credit = 0u64;
    let started = Instant::now();
    for act in 0..mix.acts {
        let slot = act as usize;
        let bank = slot % banks;
        let addr = DramAddr {
            channel: 0,
            rank: (slot / banks) % ranks,
            bank_group: bank / geometry.banks_per_bank_group,
            bank: bank % geometry.banks_per_bank_group,
            row: (slot.wrapping_mul(7919)) % geometry.rows_per_bank,
            column: 0,
        };
        now = channel.earliest_issue(CommandKind::Act, &addr, now);
        channel.issue_trusted(CommandKind::Act, &addr, now);
        column_credit += columns;
        while column_credit >= mix.acts {
            column_credit -= mix.acts;
            writes_credit += mix.writes;
            let kind = if writes_credit >= columns {
                writes_credit -= columns;
                CommandKind::Wr
            } else {
                CommandKind::Rd
            };
            now = channel.earliest_issue(kind, &addr, now);
            channel.issue_trusted(kind, &addr, now);
        }
        now = channel.earliest_issue(CommandKind::Pre, &addr, now);
        channel.issue_trusted(CommandKind::Pre, &addr, now);
        if (act + 1) % refs_every == 0 {
            for rank in 0..ranks {
                let refresh = DramAddr { rank, ..addr };
                now = channel.earliest_issue(CommandKind::Ref, &refresh, now);
                channel.issue_trusted(CommandKind::Ref, &refresh, now);
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    black_box(&channel);
    DramReplay { commands: channel.stats().total(), seconds }
}

/// Service-side costs of handling a set of cells and their results.
#[derive(Debug, Default, Clone)]
pub struct ServiceProbe {
    pub cells: u64,
    pub key_s: f64,
    pub encode_s: f64,
    pub append_s: f64,
    pub recover_s: f64,
    pub decode_s: f64,
    pub decoded: u64,
    pub lookup_s: f64,
    /// Cells whose decoded projection differs from the original, or whose
    /// lookup missed after recovery.
    pub mismatches: u64,
}

impl ServiceProbe {
    pub fn push_metrics(&self, metrics: &mut crate::report::Metrics) {
        let per_cell = |seconds: f64| seconds * 1e9 / self.cells.max(1) as f64;
        metrics.push("service.key_ns_per_cell", per_cell(self.key_s), "ns");
        // `peek` derives the cell key itself; the lookup is what remains.
        metrics.push("service.lookup_ns_per_cell", per_cell((self.lookup_s - self.key_s).max(0.0)), "ns");
        metrics.push("store.append_ns_per_cell", per_cell(self.append_s), "ns");
        metrics.push("store.recover_s", self.recover_s, "s");
        metrics.push("codec.decode_ns_per_cell", self.decode_s * 1e9 / self.decoded.max(1) as f64, "ns");
        metrics.push("codec.encode_ns_per_response", per_cell(self.encode_s), "ns");
    }
}

/// Times every service-side step a cell goes through, over `cells`, using a
/// scratch store under `dir` (removed afterwards).
pub fn service_probe(
    dir: &Path,
    cells: &[(&Runner, &CellSpec, &RunResult)],
) -> std::io::Result<ServiceProbe> {
    let _ = std::fs::remove_dir_all(dir);
    let mut probe = ServiceProbe { cells: cells.len() as u64, ..Default::default() };

    let started = Instant::now();
    let keys: Vec<_> = cells.iter().map(|(runner, spec, _)| cell_key(runner, spec)).collect();
    probe.key_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let projections: Vec<String> =
        cells.iter().map(|(_, _, result)| store::result_projection(result)).collect();
    probe.encode_s = started.elapsed().as_secs_f64();

    {
        let mut scratch = ResultStore::open(dir)?;
        let started = Instant::now();
        for (key, (_, _, result)) in keys.iter().zip(cells) {
            scratch.append(*key, result)?;
        }
        probe.append_s = started.elapsed().as_secs_f64();
    }

    let started = Instant::now();
    let recovered = ResultStore::open(dir)?.recover()?;
    probe.recover_s = started.elapsed().as_secs_f64();
    black_box(&recovered);

    let lines = segment_lines(dir)?;
    let started = Instant::now();
    let decoded: Vec<Option<RunResult>> = lines.iter().map(|line| decode_line(line)).collect();
    probe.decode_s = started.elapsed().as_secs_f64();
    probe.decoded = decoded.len() as u64;
    for (result, expected) in decoded.iter().zip(&projections) {
        if result.as_ref().map(store::result_projection).as_ref() != Some(expected) {
            probe.mismatches += 1;
        }
    }
    probe.mismatches += (projections.len() as u64).saturating_sub(decoded.len() as u64);

    let service = ExperimentService::with_cache_dir(ParallelExecutor::serial(), dir)?;
    let started = Instant::now();
    let hits = cells.iter().filter(|(runner, spec, _)| service.peek(runner, spec).is_some()).count();
    probe.lookup_s = started.elapsed().as_secs_f64();
    probe.mismatches += (cells.len() - hits) as u64;
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
    Ok(probe)
}

/// Every non-empty line of every segment file under `dir`, in file order.
pub fn segment_lines(dir: &Path) -> std::io::Result<Vec<String>> {
    let mut files: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    files.sort();
    let mut lines = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file)?;
        lines.extend(text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string));
    }
    Ok(lines)
}

/// The codec's read path for one stored line: parse, then rebuild the result.
pub fn decode_line(line: &str) -> Option<RunResult> {
    let value = json::parse(line).ok()?;
    store::run_result_from_value(json::get(&value, "result")?)
}
