//! Append-only checkpoint journal for supervised sweep campaigns
//! (`FA_CHECKPOINT`).
//!
//! A killed campaign must resume exactly where it stopped, and the merged
//! output must be byte-identical to an uninterrupted run. The journal
//! therefore stores each completed cell's emitted row as the [`Json`] value
//! the report prints; a replayed row is that value rendered again, and as
//! `Json` keeps number literals and key order, the bytes are the same.
//!
//! # Format
//!
//! One JSON object per line: a header, then one record per completed cell.
//!
//! ```text
//! {"schema":"fa-checkpoint-v2","fingerprint":"<hex16>","cells":<n>}
//! {"cell":<idx>,"cycles":<c>,"instr":<i>,"health":{"dir_rescues":<r>,…},"row":{…}}
//! ```
//!
//! `health` carries the cell's forward-progress counters (`ProgressStats`
//! as the stats registry writes it: its fields by name) so a resumed
//! campaign's summary line accounts journaled cells too.
//!
//! The header fingerprint is an FNV-1a 64 hash of the canonical campaign
//! configuration (everything that affects simulated results — seed, sizing,
//! methodology, NoC, check mode, cell identities — and nothing that does
//! not, such as worker-thread count or trace mode). Resuming against a
//! journal whose header differs — another fingerprint, cell count or schema
//! — panics loudly: replaying rows from a different campaign would silently
//! corrupt the sweep.
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
use fa_sim::{Counter, Json};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The journal schema tag, the header's `schema` field.
pub const SCHEMA: &str = "fa-checkpoint-v2";

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
/// run, for resumed timing accounting) and the emitted row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    /// Simulated cycles across all runs of the cell (including dropped).
    pub cycles: u64,
    /// Committed instructions across all runs of the cell.
    pub instructions: u64,
    /// Forward-progress counters aggregated over every run of the cell
    /// (rescues summed, high-water marks maxed) — journaled so a resumed
    /// campaign's health summary matches an uninterrupted one.
    pub health: ProgressStats,
    /// The row exactly as the report emits it (`sweep_row`).
    pub row: Json,
}

/// An open campaign journal: previously completed cells plus an append
/// handle shared by the sweep workers.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    /// Cells already completed by a previous (possibly killed) campaign,
    /// keyed by cell index. These are skipped on resume and their rows
    /// re-emitted.
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
    /// ([`replay`]'s error) — resuming it would corrupt the sweep.
    pub fn open(path: &Path, fingerprint: u64, cells: usize) -> std::io::Result<Journal> {
        let completed = match std::fs::read(path) {
            Ok(bytes) => replay(&String::from_utf8_lossy(&bytes), fingerprint, cells)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let (file, completed) = match completed {
            Some(completed) => (OpenOptions::new().append(true).open(path)?, completed),
            None => {
                // Fresh campaign (or a tail-torn header from a kill before
                // the first record): truncate and write a new header.
                let mut file =
                    OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
                file.write_all(format!("{}\n", header(fingerprint, cells)).as_bytes())?;
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
        let line = Json::obj([
            ("cell", idx.into()),
            ("cycles", r.cycles.into()),
            ("instr", r.instructions.into()),
            ("health", r.health.to_json()),
            ("row", r.row.clone()),
        ]);
        let mut f = self.file.lock().expect("a sweep worker panicked holding the journal");
        f.write_all(format!("{line}\n").as_bytes())
    }
}

/// This campaign's header line.
fn header(fingerprint: u64, cells: usize) -> String {
    let fp = format!("{fingerprint:016x}");
    Json::obj([("schema", SCHEMA.into()), ("fingerprint", fp.into()), ("cells", cells.into())]).to_string()
}

/// Replays journal text: `Some(records)` when the header is this
/// campaign's, `None` when the text holds no complete header line (a fresh
/// start).
///
/// # Errors
///
/// A complete header naming a different campaign: another fingerprint, cell
/// count or schema.
pub fn replay(
    text: &str,
    fingerprint: u64,
    cells: usize,
) -> Result<Option<BTreeMap<usize, CellRecord>>, String> {
    // Only newline-terminated lines count: a kill mid-append leaves the
    // final line torn, without its terminator.
    let mut it = text.split_inclusive('\n').filter_map(|line| line.strip_suffix('\n'));
    let Some(found) = it.next() else { return Ok(None) };
    let expected = header(fingerprint, cells);
    if found != expected {
        return Err(format!(
            "checkpoint journal belongs to a different campaign (its header is {found:?}, this \
             campaign is {expected:?}); delete the journal or restore the matching FA_* \
             configuration"
        ));
    }
    let mut completed = BTreeMap::new();
    for (idx, rec) in it.filter_map(|line| parse_record(line, cells)) {
        completed.insert(idx, rec); // last-wins
    }
    Ok(Some(completed))
}

/// Parses one record line; `None` for anything malformed (skipped — the
/// cell just re-runs).
fn parse_record(line: &str, cells: usize) -> Option<(usize, CellRecord)> {
    let v = Json::parse(line).ok()?;
    let int = |k| v.get(k).and_then(Json::as_u64);
    let idx = usize::try_from(int("cell")?).ok().filter(|&i| i < cells)?;
    let health = ProgressStats::from_json(v.get("health")?)?;
    let row = v.get("row").filter(|r| matches!(r, Json::Obj(_)))?.clone();
    Some((idx, CellRecord { cycles: int("cycles")?, instructions: int("instr")?, health, row }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fa-ckpt-test-{name}-{}", std::process::id()));
        p
    }

    fn row(k: u64) -> Json {
        Json::obj([("k", k.into()), ("mean", Json::fixed(1.5, 6))])
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
            j.record(2, &CellRecord { cycles: 100, instructions: 50, health, row: row(1) }).unwrap();
            let quiet = ProgressStats::default();
            j.record(0, &CellRecord { cycles: 7, instructions: 3, health: quiet, row: row(0) })
                .unwrap();
        }
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(text.starts_with(&format!(
            "{{\"schema\":\"{SCHEMA}\",\"fingerprint\":\"000000000000abcd\",\"cells\":4}}\n\
             {{\"cell\":2,\"cycles\":100,\"instr\":50,\"health\":{{\"dir_rescues\":2,"
        )));
        let j = Journal::open(&p, 0xABCD, 4).unwrap();
        assert_eq!(j.completed.len(), 2);
        assert_eq!(j.completed[&2].row.to_string(), "{\"k\":1,\"mean\":1.500000}");
        assert_eq!(j.completed[&2].health, health, "health survives the round trip");
        assert_eq!(j.completed[&0].cycles, 7);
        assert_eq!(j.completed[&0].health, ProgressStats::default());
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn torn_tail_and_malformed_lines_are_skipped_last_wins() {
        let rec = |cell: u64, cycles: u64, health: &str, row: &str| {
            format!("{{\"cell\":{cell},\"cycles\":{cycles},\"instr\":5,\"health\":{health},\"row\":{row}}}\n")
        };
        let ok = "{\"dir_rescues\":0,\"dir_alloc_attempts_max\":0,\"fill_attempts_max\":0,\
                  \"lsq_attempts_max\":0,\"noc_backlog_max\":0}";
        let text = [
            format!("{}\n", header(0xFEED, 4)),
            rec(1, 10, ok, "{\"a\":1}"),
            rec(9, 1, ok, "{\"oob\":1}"),
            "not a record\n".to_string(),
            "{\"cell\":2,\"cycles\":10,\"instr\":5,\"row\":{}}\n".to_string(),
            rec(2, 10, "{\"dir_rescues\":1}", "{}"),
            rec(2, 10, &ok.replace(":0,\"fill", ":\"x\",\"fill"), "{}"),
            rec(2, 10, ok, "[1]"),
            rec(1, 20, ok, "{\"a\":2}"),
            rec(3, 3, ok, "{\"torn\":1}").trim_end_matches("}\n").to_string(),
        ]
        .concat();
        let got = replay(&text, 0xFEED, 4).unwrap().unwrap();
        assert_eq!(
            got.len(),
            1,
            "oob index, garbage, a missing or malformed health block, a non-object row and the \
             torn tail are all dropped (those cells re-run)"
        );
        assert_eq!(got[&1].row.to_string(), "{\"a\":2}", "duplicate records are last-wins");
        assert_eq!(got[&1].cycles, 20);
    }

    #[test]
    fn torn_header_means_fresh_start() {
        let h = header(0xFEED, 4);
        assert_eq!(replay(&h[..20], 0xFEED, 4), Ok(None));
        assert_eq!(replay(&h, 0xFEED, 4), Ok(None));
        assert_eq!(replay("", 0xFEED, 4), Ok(None));
    }

    #[test]
    fn a_different_campaign_or_schema_is_refused() {
        let text = format!("{}\n", header(0x1111, 4));
        for (fingerprint, cells) in [(0x2222, 4), (0x1111, 5)] {
            let e = replay(&text, fingerprint, cells).unwrap_err();
            assert!(e.contains("different campaign"), "{e}");
        }
        // The line-oriented header of the previous schema names itself.
        let old = format!("{} fingerprint={:016x} cells=4\n", SCHEMA.replace("v2", "v1"), 0x1111);
        let e = replay(&old, 0x1111, 4).unwrap_err();
        assert!(e.contains("different campaign") && e.contains("-v1 fingerprint"), "{e}");
    }

    #[test]
    #[should_panic(expected = "different campaign")]
    fn opening_another_campaigns_journal_panics_loudly() {
        let p = tmp("mismatch");
        std::fs::write(&p, format!("{}\n", header(0x1111, 4))).unwrap();
        let r = std::panic::catch_unwind(|| Journal::open(&p, 0x2222, 4));
        std::fs::remove_file(&p).unwrap();
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }
}
