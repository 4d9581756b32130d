//! Segment compaction: rewrite the live keys into fresh segments and drop
//! everything superseded or evicted.
//!
//! Append-only segments accumulate garbage two ways: a key re-recorded by a
//! later append (two processes sharing the directory, or a post-compaction
//! crash window) and keys evicted from the bounded in-memory cache. A
//! compaction pass re-reads the store through [`ResultStore::recover`], so
//! it trusts exactly what a restart trusts (a segment corrupted mid-file is
//! quarantined there, not read past), keeps each live key's last write in
//! the order of those writes, and rewrites those records into fresh
//! segments. A compacted store therefore reloads in the same LRU order as
//! the store it replaced. Appends then continue the last rewritten segment
//! until it holds [`SEGMENT_CAPACITY`] entries, so a pass that cannot fill
//! its last segment does not leave the next append a fresh one.
//!
//! Crash safety is tmp-then-rename: each new segment is fully written and
//! fsynced as `compact-NNNNNN.tmp`, then renamed to `segment-NNNNNN.jsonl`
//! at an index *above* every old segment, and only then are the old
//! segments deleted. A crash at any point leaves a readable store: stray
//! `.tmp` files are deleted on open (never trusted), and if both old and
//! new segments survive, the new ones win by last-write-wins ordering.

use crate::key::CellKey;
use crate::store::{entry_line, segment_files, ResultStore, SEGMENT_CAPACITY};
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Unique live keys rewritten into fresh segments.
    pub kept: usize,
    /// Trusted records dropped (superseded duplicates plus non-live keys).
    pub dropped: usize,
    /// Segments the pass moved into quarantine (corrupted mid-file since
    /// the store was last read).
    pub quarantined: usize,
    /// Segment files before the pass.
    pub segments_before: usize,
    /// Segment files after the pass.
    pub segments_after: usize,
}

impl ResultStore {
    /// Compacts the store down to `live` keys (see the module docs). The
    /// open segment is sealed first; the last compacted segment is the open
    /// one afterwards.
    pub fn compact(&mut self, live: &HashSet<CellKey>) -> std::io::Result<CompactionReport> {
        let _span = comet_telemetry::span("store.compact");
        self.seal()?;
        let dir = self.dir().to_path_buf();
        let old_files = segment_files(&dir)?;
        let segments_before = old_files.len();
        let next_index = old_files.last().map(|(index, _)| index + 1).unwrap_or(0);

        let recovery = self.recover()?;
        let (records, quarantined) = (recovery.entries.len(), recovery.quarantined);
        let mut survivors = recovery.latest();
        survivors.retain(|(key, _)| live.contains(key));
        let kept = survivors.len();

        // Write the survivors into tmp files, fsync, rename into place.
        let mut new_paths = Vec::new();
        for (chunk_index, chunk) in survivors.chunks(SEGMENT_CAPACITY).enumerate() {
            let index = next_index + chunk_index as u64;
            let tmp = dir.join(format!("compact-{index:06}.tmp"));
            {
                let file = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
                let mut writer = BufWriter::new(file);
                for (key, result) in chunk {
                    writeln!(writer, "{}", entry_line(*key, result))?;
                }
                writer.flush()?;
                writer.get_ref().sync_all()?;
            }
            let path = dir.join(format!("segment-{index:06}.jsonl"));
            fs::rename(&tmp, &path)?;
            new_paths.push(path);
        }
        // Make the renames durable before deleting the old segments
        // (best-effort: not every filesystem supports dir fsync). A
        // quarantined segment has already moved, so its removal is a no-op.
        if let Ok(dir_handle) = File::open(&dir) {
            let _ = dir_handle.sync_all();
        }
        for (_, path) in &old_files {
            let _ = fs::remove_file(path);
        }

        let segments_after = new_paths.len();
        let last =
            new_paths.last().map(|path| (path.as_path(), kept - (segments_after - 1) * SEGMENT_CAPACITY));
        self.set_layout(next_index + segments_after as u64, segments_after, last)?;
        Ok(CompactionReport { kept, dropped: records - kept, quarantined, segments_before, segments_after })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_sim::{MechanismKind, Runner, SimConfig};

    fn sample() -> comet_sim::RunResult {
        Runner::new(SimConfig::quick_test())
            .run_single_core("429.mcf", MechanismKind::Baseline, 1000)
            .unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("comet-compact-{tag}-{}", std::process::id()))
    }

    #[test]
    fn compaction_drops_dead_and_superseded_keys_and_survives_reopen() {
        let dir = temp_dir("basic");
        let _ = fs::remove_dir_all(&dir);
        let result = sample();
        let mut store = ResultStore::open(&dir).unwrap();
        for i in 0..10u128 {
            store.append(CellKey(i), &result).unwrap();
        }
        // Re-record key 3 (superseded) and keep only even keys live.
        store.append(CellKey(3), &result).unwrap();
        let live: HashSet<CellKey> = (0..10u128).filter(|i| i % 2 == 0).map(CellKey).collect();

        let report = store.compact(&live).unwrap();
        assert_eq!(report.kept, 5);
        assert_eq!(report.dropped, 6, "5 odd keys + 1 superseded duplicate record");
        assert_eq!(report.segments_after, 1);
        assert_eq!(store.segments_on_disk(), 1);

        // The compacted store reloads exactly the live set, and appends
        // after compaction continue its last segment.
        store.append(CellKey(100), &result).unwrap();
        let recovery = ResultStore::open(&dir).unwrap().recover().unwrap();
        let keys: Vec<CellKey> = recovery.entries.into_iter().map(|(key, _)| key).collect();
        assert_eq!(keys.len(), 6);
        assert!(keys.contains(&CellKey(100)));
        for key in &live {
            assert!(keys.contains(key), "live key {key:?} survived");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A re-recorded key reloads at its last write, as it would from the
    /// same store uncompacted, so a bounded cache evicts the same cells.
    #[test]
    fn a_compacted_store_reloads_in_last_write_order() {
        let dir = temp_dir("order");
        let _ = fs::remove_dir_all(&dir);
        let result = sample();
        let mut store = ResultStore::open(&dir).unwrap();
        for i in [0u128, 1, 2, 3, 1] {
            store.append(CellKey(i), &result).unwrap();
        }
        let live: HashSet<CellKey> = (0..4u128).map(CellKey).collect();
        let report = store.compact(&live).unwrap();
        assert_eq!((report.kept, report.dropped), (4, 1));

        let recovery = ResultStore::open(&dir).unwrap().recover().unwrap();
        let keys: Vec<CellKey> = recovery.entries.into_iter().map(|(key, _)| key).collect();
        assert_eq!(keys, [0u128, 2, 3, 1].map(CellKey));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_removed_on_open_not_loaded() {
        let dir = temp_dir("tmp");
        let _ = fs::remove_dir_all(&dir);
        let result = sample();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.append(CellKey(1), &result).unwrap();
        }
        // Simulate a crash mid-compaction: a half-written tmp file.
        fs::write(dir.join("compact-000007.tmp"), "{\"key\":\"partial").unwrap();
        let recovery = ResultStore::open(&dir).unwrap().recover().unwrap();
        assert_eq!(recovery.entries.len(), 1, "tmp content is never loaded");
        assert!(!dir.join("compact-000007.tmp").exists(), "stray tmp removed on open");
        let _ = fs::remove_dir_all(&dir);
    }
}
