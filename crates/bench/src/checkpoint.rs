//! Append-only checkpoint journal for supervised sweep campaigns
//! (`FA_CHECKPOINT`).
//!
//! A killed campaign must resume exactly where it stopped, and the merged
//! output must be byte-identical to an uninterrupted run. The journal
//! therefore stores each completed cell's emitted row **verbatim** — the
//! exact `SweepRow::json` line the report would print — so resumption re-emits
//! bytes instead of re-deriving them (nothing here needs a JSON parser).
//!
//! # Format
//!
//! One header line, then one record line per completed cell:
//!
//! ```text
//! fa-checkpoint-v1 fingerprint=<hex16> cells=<n>
//! cell <idx> cycles=<c> instr=<i> health=<r>:<da>:<fa>:<la>:<nb> row=<row json>
//! ```
//!
//! The `health=` token carries the cell's forward-progress counters
//! (directory rescues, then the worst dir-alloc / fill / LSQ attempt
//! counts and the NoC backlog high-water mark) so a resumed campaign's
//! summary line accounts journaled cells too.
//!
//! The header fingerprint is an FNV-1a 64 hash of the canonical campaign
//! configuration (everything that affects simulated results — seed, sizing,
//! methodology, NoC, check mode, cell identities — and nothing that does
//! not, such as worker-thread count or trace mode). Resuming against a
//! journal whose fingerprint differs panics loudly: replaying rows from a
//! different campaign would silently corrupt the sweep.
//!
//! # Crash tolerance
//!
//! Records are appended with a single `write` call each, so a `SIGKILL`
//! can at worst leave one torn line at the tail. Only complete,
//! newline-terminated, well-formed lines count on replay; a torn tail (or
//! any malformed line) is skipped and its cell simply re-runs. Duplicate
//! records for one cell are last-wins — append-only journals never need
//! rewriting.

use fa_mem::ProgressStats;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal schema tag, first token of the header line.
pub const SCHEMA: &str = "fa-checkpoint-v1";

/// FNV-1a 64-bit hash — the campaign fingerprint function. Stable across
/// platforms and dependency-free.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One journaled cell: the simulated totals (summed over every methodology
/// run, for resumed timing accounting) and the emitted row line, verbatim.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CellRecord {
    /// Simulated cycles across all runs of the cell (including dropped).
    pub cycles: u64,
    /// Committed instructions across all runs of the cell.
    pub instructions: u64,
    /// Forward-progress counters aggregated over every run of the cell
    /// (rescues summed, high-water marks maxed) — journaled so a resumed
    /// campaign's health summary matches an uninterrupted one.
    pub health: ProgressStats,
    /// The row exactly as the report emits it (`SweepRow::json`).
    pub row: String,
}

/// An open campaign journal: previously completed cells plus an append
/// handle shared by the sweep workers.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    /// Cells already completed by a previous (possibly killed) campaign,
    /// keyed by cell index. These are skipped on resume and their rows
    /// re-emitted verbatim.
    pub completed: BTreeMap<usize, CellRecord>,
}

impl Journal {
    /// Opens `path`, replaying any usable records from a prior campaign
    /// with the same fingerprint. A missing file, or one whose header is
    /// torn, starts a fresh journal.
    ///
    /// # Errors
    ///
    /// Any I/O error from reading or creating the file.
    ///
    /// # Panics
    ///
    /// Panics when the journal belongs to a *different* campaign
    /// (fingerprint or cell-count mismatch) — resuming it would corrupt
    /// the sweep.
    pub fn open(path: &Path, fingerprint: u64, cells: usize) -> std::io::Result<Journal> {
        let completed = match std::fs::read(path) {
            Ok(bytes) => parse(&String::from_utf8_lossy(&bytes), path, fingerprint, cells),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let (file, completed) = match completed {
            Some(completed) => {
                let file = OpenOptions::new().append(true).open(path)?;
                (file, completed)
            }
            None => {
                // Fresh campaign (or a tail-torn header from a kill before
                // the first record): truncate and write a new header.
                let mut file =
                    OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
                file.write_all(
                    format!("{SCHEMA} fingerprint={fingerprint:016x} cells={cells}\n").as_bytes(),
                )?;
                (file, BTreeMap::new())
            }
        };
        Ok(Journal { path: path.to_path_buf(), file: Mutex::new(file), completed })
    }

    /// The journal's path (for messages).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed-cell record with a single `write` call, so a
    /// kill mid-append tears at most this line.
    ///
    /// # Errors
    ///
    /// Any I/O error from the append.
    pub fn record(&self, idx: usize, r: &CellRecord) -> std::io::Result<()> {
        debug_assert!(!r.row.contains('\n'), "rows are single-line JSON");
        let h = &r.health;
        let line = format!(
            "cell {idx} cycles={} instr={} health={}:{}:{}:{}:{} row={}\n",
            r.cycles,
            r.instructions,
            h.dir_rescues,
            h.dir_alloc_attempts_max,
            h.fill_attempts_max,
            h.lsq_attempts_max,
            h.noc_backlog_max,
            r.row
        );
        let mut f = self.file.lock().expect("a sweep worker panicked holding the journal");
        f.write_all(line.as_bytes())
    }
}

/// Replays journal text: `Some(records)` when the header matches this
/// campaign, `None` when the file holds no complete header line (treated
/// as a fresh start).
///
/// # Panics
///
/// Panics on a well-formed header naming a different campaign.
fn parse(
    text: &str,
    path: &Path,
    fingerprint: u64,
    cells: usize,
) -> Option<BTreeMap<usize, CellRecord>> {
    // Only newline-terminated lines count: a kill mid-append leaves the
    // final line torn, and `split('\n')` puts that fragment (or an empty
    // string) after the last terminator — dropped here.
    let mut lines: Vec<&str> = text.split('\n').collect();
    lines.pop();
    let mut it = lines.into_iter();
    let header = it.next()?;
    let expected = format!("{SCHEMA} fingerprint={fingerprint:016x} cells={cells}");
    assert_eq!(
        header,
        expected,
        "{}: checkpoint journal belongs to a different campaign \
         (its header is {header:?}, this campaign is {expected:?}); \
         delete the journal or restore the matching FA_* configuration",
        path.display()
    );
    let mut completed = BTreeMap::new();
    for line in it {
        if let Some((idx, rec)) = parse_record(line, cells) {
            completed.insert(idx, rec); // last-wins
        }
    }
    Some(completed)
}

/// Parses one record line; `None` for anything malformed (skipped — the
/// cell just re-runs).
fn parse_record(line: &str, cells: usize) -> Option<(usize, CellRecord)> {
    let rest = line.strip_prefix("cell ")?;
    let (idx, rest) = rest.split_once(' ')?;
    let idx: usize = idx.parse().ok()?;
    if idx >= cells {
        return None;
    }
    let (cycles, rest) = rest.strip_prefix("cycles=")?.split_once(' ')?;
    let (instr, rest) = rest.strip_prefix("instr=")?.split_once(' ')?;
    let (health, row) = rest.strip_prefix("health=")?.split_once(" row=")?;
    // A torn write cannot end in a newline, so any complete `row=` payload
    // is the full verbatim row; still insist it looks like one JSON object.
    if !(row.starts_with('{') && row.ends_with('}')) {
        return None;
    }
    Some((
        idx,
        CellRecord {
            cycles: cycles.parse().ok()?,
            instructions: instr.parse().ok()?,
            health: parse_health(health)?,
            row: row.to_string(),
        },
    ))
}

/// Parses the 5-field colon-separated health token (see the module docs
/// for field order); `None` for any other shape.
fn parse_health(h: &str) -> Option<ProgressStats> {
    let mut it = h.split(':').map(str::parse::<u64>);
    let mut next = || it.next()?.ok();
    let s = ProgressStats {
        dir_rescues: next()?,
        dir_alloc_attempts_max: next()?,
        fill_attempts_max: next()?,
        lsq_attempts_max: next()?,
        noc_backlog_max: next()?,
    };
    if it.next().is_some() {
        return None;
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fa-ckpt-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fresh_journal_writes_header_and_replays_records() {
        let p = tmp("fresh");
        let _ = std::fs::remove_file(&p);
        let health = ProgressStats {
            dir_rescues: 2,
            dir_alloc_attempts_max: 9,
            fill_attempts_max: 4,
            lsq_attempts_max: 1,
            noc_backlog_max: 37,
        };
        {
            let j = Journal::open(&p, 0xABCD, 4).unwrap();
            assert!(j.completed.is_empty());
            j.record(
                2,
                &CellRecord { cycles: 100, instructions: 50, health, row: "{\"k\":1}".into() },
            )
            .unwrap();
            j.record(0, &CellRecord { cycles: 7, instructions: 3, row: "{\"k\":0}".into(), ..CellRecord::default() })
                .unwrap();
        }
        let j = Journal::open(&p, 0xABCD, 4).unwrap();
        assert_eq!(j.completed.len(), 2);
        assert_eq!(j.completed[&2].row, "{\"k\":1}");
        assert_eq!(j.completed[&2].health, health, "health survives the round trip");
        assert_eq!(j.completed[&0].cycles, 7);
        assert_eq!(j.completed[&0].health, ProgressStats::default());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_tail_and_malformed_lines_are_skipped_last_wins() {
        let text = format!(
            "{SCHEMA} fingerprint={:016x} cells=4\n\
             cell 1 cycles=10 instr=5 health=0:0:0:0:0 row={{\"a\":1}}\n\
             cell 9 cycles=1 instr=1 health=0:0:0:0:0 row={{\"oob\":1}}\n\
             not a record\n\
             cell 2 cycles=10 instr=5 row={{\"no health token\":1}}\n\
             cell 2 cycles=10 instr=5 health=1:2 row={{\"short health\":1}}\n\
             cell 2 cycles=10 instr=5 health=x:0:0:0:0 row={{\"bad health\":1}}\n\
             cell 1 cycles=20 instr=9 health=0:0:0:0:0 row={{\"a\":2}}\n\
             cell 3 cycles=3 instr=2 health=0:0:0:0:0 row={{\"torn\"",
            0xFEEDu64
        );
        let got = parse(&text, Path::new("j"), 0xFEED, 4).unwrap();
        assert_eq!(
            got.len(),
            1,
            "oob index, garbage, a missing or malformed health token and the torn tail are all \
             dropped (those cells re-run)"
        );
        assert_eq!(got[&1].row, "{\"a\":2}", "duplicate records are last-wins");
        assert_eq!(got[&1].cycles, 20);
    }

    #[test]
    fn torn_header_means_fresh_start() {
        assert!(parse("fa-checkpoint-v1 finger", Path::new("j"), 0xFEED, 4).is_none());
        assert!(parse("", Path::new("j"), 0xFEED, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "different campaign")]
    fn fingerprint_mismatch_panics_loudly() {
        let text = format!("{SCHEMA} fingerprint={:016x} cells=4\n", 0x1111u64);
        parse(&text, Path::new("j"), 0x2222, 4);
    }

    #[test]
    #[should_panic(expected = "different campaign")]
    fn cell_count_mismatch_panics_loudly() {
        let text = format!("{SCHEMA} fingerprint={:016x} cells=4\n", 0x1111u64);
        parse(&text, Path::new("j"), 0x1111, 5);
    }
}
