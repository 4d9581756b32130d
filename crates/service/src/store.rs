//! On-disk persistence for the result cache: JSON-lines segments and the
//! one reader of them, so a warm cache survives service restarts.
//!
//! Layout: `<dir>/segment-NNNNNN.jsonl`, one `{"key": "<32 hex>", "result":
//! {…}}` object per line, appended in completion order and rotated every
//! [`SEGMENT_CAPACITY`] entries. The *open* segment is append-only and
//! fsync-free by design — a torn final line (crash mid-append) is detected
//! by the parser and skipped, costing one re-simulation, never a wrong
//! result. Sealing a segment (rotation, compaction, shutdown) fsyncs it, so
//! every *sealed* segment is durable.
//!
//! Recovery ([`ResultStore::recover`]) is the only code that reads a
//! segment: start-up loads through it, and so does compaction. It
//! distinguishes two failure shapes: a malformed **final** line is the
//! expected torn-append crash artifact and is skipped in place, while a
//! malformed line **mid-file** means the segment was corrupted after the
//! fact (bit rot, foreign writes) — the whole file is moved into
//! `<dir>/quarantine/` rather than trusted, and only the entries before the
//! corruption point are loaded. Recovery never aborts a service start.
//! [`Recovery::latest`] applies last-write-wins to what it read.
//!
//! Reading back parses each line with `serde_json::from_str` and decodes
//! the result through `RunResult`'s derived `Deserialize`. The three
//! `#[serde(skip)]` fields (`energy_breakdown`, `controller`, `engine`) are
//! not serialized and come back as defaults; every experiment assembly works
//! off the serialized fields only, so cached and fresh results are
//! interchangeable where the service hands them out.

use crate::faults::{AppendFault, FaultPlan};
use crate::key::CellKey;
use comet_sim::RunResult;
use serde::{Deserialize, Value};
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Entries per segment file before rotating to a new one.
pub const SEGMENT_CAPACITY: usize = 512;

/// Subdirectory corrupt segments are moved into during recovery.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Append-only content-addressed result store.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    writer: Option<BufWriter<File>>,
    segment_index: u64,
    entries_in_segment: usize,
    segments_on_disk: usize,
    faults: Option<Arc<FaultPlan>>,
}

/// What [`ResultStore::recover`] found on disk.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Every trusted `(key, result)` entry, in write order; a re-recorded
    /// key appears once per write (see [`latest`](Self::latest)).
    pub entries: Vec<(CellKey, RunResult)>,
    /// Malformed final lines skipped in place (torn appends).
    pub torn_lines: usize,
    /// Segments moved into [`QUARANTINE_DIR`] because of mid-file
    /// corruption or an unreadable file.
    pub quarantined: usize,
}

impl Recovery {
    /// Each key's last trusted write, in the order of those writes: the
    /// cache state the segments describe, and the order its LRU clock
    /// replays them in.
    pub fn latest(self) -> Vec<(CellKey, RunResult)> {
        let mut entries = self.entries;
        let mut seen = HashSet::with_capacity(entries.len());
        let last_write: Vec<bool> = entries.iter().rev().map(|(key, _)| seen.insert(*key)).collect();
        let mut last_write = last_write.into_iter().rev();
        entries.retain(|_| last_write.next().expect("one mark per entry"));
        entries
    }
}

impl ResultStore {
    /// Opens (creating if needed) the store directory. Existing segments are
    /// left untouched; new entries go to a fresh segment after the highest
    /// existing index. Use [`recover`](Self::recover) to load what's already
    /// there.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        Self::open_faulted(dir, None)
    }

    /// [`open`](Self::open) with a fault-injection plan threaded into the
    /// append path (test-only; production callers pass no plan).
    pub fn open_faulted(
        dir: impl Into<PathBuf>,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // An interrupted compaction may leave `*.tmp` files behind; they were
        // never renamed into place, so their content is not yet trusted.
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "tmp") {
                let _ = fs::remove_file(&path);
            }
        }
        let files = segment_files(&dir)?;
        let segment_index = files.last().map(|(index, _)| index + 1).unwrap_or(0);
        Ok(ResultStore {
            dir,
            writer: None,
            segment_index,
            entries_in_segment: 0,
            segments_on_disk: files.len(),
            faults,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Segment files currently on disk (sealed and open).
    pub fn segments_on_disk(&self) -> usize {
        self.segments_on_disk
    }

    /// Adopts the layout a compaction pass wrote: `segments_on_disk`
    /// segments below `next_segment_index`, the last of which (`last`, with
    /// its entry count) stays open for appends.
    pub(crate) fn set_layout(
        &mut self,
        next_segment_index: u64,
        segments_on_disk: usize,
        last: Option<(&Path, usize)>,
    ) -> std::io::Result<()> {
        self.segment_index = next_segment_index;
        self.entries_in_segment = 0;
        self.segments_on_disk = segments_on_disk;
        if let Some((path, entries)) = last {
            self.writer = Some(BufWriter::new(OpenOptions::new().append(true).open(path)?));
            self.entries_in_segment = entries;
        }
        Ok(())
    }

    /// Flushes and fsyncs the open segment (if any) and closes it; the next
    /// append starts a fresh segment. Called on rotation, before
    /// compaction, and at graceful shutdown — a sealed segment is durable.
    pub fn seal(&mut self) -> std::io::Result<()> {
        if let Some(mut writer) = self.writer.take() {
            writer.flush()?;
            writer.get_ref().sync_all()?;
        }
        self.entries_in_segment = 0;
        Ok(())
    }

    /// Appends one completed cell. Flushed per entry so a reader (or a
    /// restart) sees every fully written line; the previous segment is
    /// fsynced when a rotation seals it. An append that fails after it may
    /// have written part of its line closes the segment, so that part stays
    /// the segment's torn tail and the next append opens a fresh segment.
    pub fn append(&mut self, key: CellKey, result: &RunResult) -> std::io::Result<()> {
        if self.entries_in_segment >= SEGMENT_CAPACITY {
            self.seal()?;
        }
        if self.writer.is_none() {
            let path = self.dir.join(format!("segment-{:06}.jsonl", self.segment_index));
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            self.writer = Some(BufWriter::new(file));
            self.segment_index += 1;
            self.entries_in_segment = 0;
            self.segments_on_disk += 1;
        }
        let writer = self.writer.as_mut().expect("writer opened above");
        let line = entry_line(key, result);
        if let Some(plan) = &self.faults {
            match plan.on_append() {
                AppendFault::Proceed => {}
                AppendFault::Enospc => return Err(FaultPlan::enospc_error()),
                AppendFault::Torn { keep_bytes } => {
                    let keep = keep_bytes.min(line.len());
                    let torn = writer.write_all(&line.as_bytes()[..keep]).and_then(|()| writer.flush());
                    self.abandon_segment();
                    torn?;
                    return Err(FaultPlan::torn_error());
                }
            }
        }
        let written = writeln!(writer, "{line}").and_then(|()| writer.flush());
        if written.is_err() {
            self.abandon_segment();
        }
        written?;
        self.entries_in_segment += 1;
        Ok(())
    }

    /// Closes the open segment after a failed append without flushing what
    /// its writer still buffers (dropping a `BufWriter` would flush it), so
    /// nothing lands after a partial line. The lines before it are synced as
    /// sealing would; that is best effort, since the append already fails.
    fn abandon_segment(&mut self) {
        if let Some(writer) = self.writer.take() {
            let (file, _unflushed) = writer.into_parts();
            let _ = file.sync_all();
        }
    }

    /// Loads every trusted entry from disk, quarantining corrupt segments
    /// instead of aborting (see the module docs for the torn-tail vs
    /// mid-file-corruption distinction). Never fails on segment *content*;
    /// only directory-level I/O errors propagate.
    pub fn recover(&mut self) -> std::io::Result<Recovery> {
        let _span = comet_telemetry::span("store.recover");
        let mut recovery = Recovery::default();
        for (_, path) in segment_files(&self.dir)? {
            let file = match File::open(&path) {
                Ok(file) => file,
                Err(_) => {
                    if self.quarantine(&path) {
                        recovery.quarantined += 1;
                        self.segments_on_disk = self.segments_on_disk.saturating_sub(1);
                    }
                    continue;
                }
            };
            let mut segment_entries: Vec<(CellKey, RunResult)> = Vec::new();
            // (line number, total lines) of the first malformed line, if any.
            let mut first_bad: Option<usize> = None;
            let mut lines_seen = 0usize;
            for line in BufReader::new(file).lines() {
                lines_seen += 1;
                let parsed = match line {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => parse_entry(&line),
                    Err(_) => None,
                };
                match parsed {
                    Some(entry) if first_bad.is_none() => segment_entries.push(entry),
                    Some(_) => {} // past the corruption point: not trusted
                    None => first_bad = first_bad.or(Some(lines_seen)),
                }
            }
            if let Some(bad) = first_bad {
                if bad == lines_seen {
                    // A malformed *final* line is the expected torn-append
                    // artifact: skip it, trust the rest of the segment.
                    recovery.torn_lines += 1;
                } else if self.quarantine(&path) {
                    // Malformed mid-file: the segment is corrupt. Keep the
                    // entries before the corruption point, quarantine the file.
                    recovery.quarantined += 1;
                    self.segments_on_disk = self.segments_on_disk.saturating_sub(1);
                }
            }
            recovery.entries.append(&mut segment_entries);
        }
        Ok(recovery)
    }

    /// Moves `path` into the quarantine subdirectory; returns whether the
    /// move succeeded (a failed move leaves the file where it was — it will
    /// be re-quarantined on the next recovery).
    fn quarantine(&self, path: &Path) -> bool {
        let quarantine = self.dir.join(QUARANTINE_DIR);
        if fs::create_dir_all(&quarantine).is_err() {
            return false;
        }
        let name = match path.file_name() {
            Some(name) => name,
            None => return false,
        };
        fs::rename(path, quarantine.join(name)).is_ok()
    }
}

/// Segment files under `dir`, sorted by index.
pub(crate) fn segment_files(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    if !dir.exists() {
        return Ok(files);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(name) => name,
            None => continue,
        };
        if let Some(index) = name.strip_prefix("segment-").and_then(|rest| rest.strip_suffix(".jsonl")) {
            if let Ok(index) = index.parse::<u64>() {
                files.push((index, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// One segment line, without its newline: the only place the line format
/// is written (appends and compaction both call it).
pub(crate) fn entry_line(key: CellKey, result: &RunResult) -> String {
    let result_json = serde_json::to_string(result).expect("value-tree serialization cannot fail");
    format!("{{\"key\":\"{key}\",\"result\":{result_json}}}")
}

fn parse_entry(line: &str) -> Option<(CellKey, RunResult)> {
    let value = serde_json::from_str(line).ok()?;
    let key = CellKey::from_hex(value.get("key")?.as_str()?)?;
    let result = RunResult::from_value(value.get("result")?).ok()?;
    Some((key, result))
}

/// Decodes a [`RunResult`] from its serialized value tree, `None` if it does
/// not decode (the entry is then treated as corrupt and skipped).
///
/// The repository benchmark (`repobench/`) calls this. ROADMAP item 4(b)
/// moves it to `RunResult::from_value` and removes this wrapper.
pub fn run_result_from_value(value: &Value) -> Option<RunResult> {
    RunResult::from_value(value).ok()
}

/// Serializes `result` the same way the store does — the canonical
/// cached-result projection used by the bit-exactness tests.
pub fn result_projection(result: &RunResult) -> String {
    serde_json::to_string(result).expect("value-tree serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_sim::{MechanismKind, Runner, SimConfig};

    fn sample_result() -> RunResult {
        Runner::new(SimConfig::quick_test())
            .run_single_core("429.mcf", MechanismKind::Baseline, 1000)
            .unwrap()
    }

    #[test]
    fn round_trips_a_real_run_result_bit_exactly() {
        let result = sample_result();
        let json_text = result_projection(&result);
        let parsed = serde_json::from_str(&json_text).unwrap();
        let rebuilt = run_result_from_value(&parsed).expect("reconstruction succeeds");
        assert_eq!(result_projection(&rebuilt), json_text, "projection must round-trip bit-exactly");
    }

    #[test]
    fn latest_keeps_each_keys_last_write_in_write_order() {
        let write =
            |key: u128, instructions: u64| (CellKey(key), RunResult { instructions, ..RunResult::default() });
        let recovery = Recovery {
            entries: vec![write(0, 1), write(1, 2), write(2, 3), write(1, 4)],
            ..Recovery::default()
        };
        let latest: Vec<(CellKey, u64)> =
            recovery.latest().into_iter().map(|(key, result)| (key, result.instructions)).collect();
        assert_eq!(latest, [(CellKey(0), 1), (CellKey(2), 3), (CellKey(1), 4)]);
    }

    #[test]
    fn segments_rotate_and_stream_back_in_order() {
        let dir = std::env::temp_dir().join(format!("comet-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let result = sample_result();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            for i in 0..(SEGMENT_CAPACITY + 3) as u128 {
                store.append(CellKey(i), &result).unwrap();
            }
        }
        assert_eq!(segment_files(&dir).unwrap().len(), 2, "rotation after SEGMENT_CAPACITY entries");

        // Reopen: entries read back in write order, new appends go to a new segment.
        let mut store = ResultStore::open(&dir).unwrap();
        let entries = store.recover().unwrap().entries;
        assert_eq!(entries.len(), SEGMENT_CAPACITY + 3);
        assert_eq!(entries[0].0, CellKey(0));
        assert_eq!(entries.last().unwrap().0, CellKey((SEGMENT_CAPACITY + 2) as u128));
        store.append(CellKey(9999), &result).unwrap();
        assert_eq!(store.recover().unwrap().entries.len(), SEGMENT_CAPACITY + 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_lines_are_skipped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("comet-store-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let result = sample_result();
        {
            let mut store = ResultStore::open(&dir).unwrap();
            store.append(CellKey(1), &result).unwrap();
        }
        // Simulate a crash mid-append: a truncated trailing line.
        let (_, path) = segment_files(&dir).unwrap()[0].clone();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"key\":\"00000000000000000000000000000002\",\"result\":{{\"label\":\"tor").unwrap();
        drop(file);

        let recovery = ResultStore::open(&dir).unwrap().recover().unwrap();
        assert_eq!(recovery.entries.len(), 1);
        assert_eq!(recovery.entries[0].0, CellKey(1));
        assert_eq!((recovery.torn_lines, recovery.quarantined), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }
}
