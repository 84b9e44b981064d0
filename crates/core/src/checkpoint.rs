//! Campaign checkpoint/resume serialization.
//!
//! A fleet-scale campaign must survive being killed: the coordinator
//! serializes the *complete* deterministic state of the campaign — every
//! stream's fuzzer (RNG streams, corpus, coverage, found bugs with their
//! embedded schedule traces), the cross-shard broadcast protocol state,
//! and the crash database — at a quiescent round boundary, and a later
//! process resumes the campaign to byte-identical output
//! (`tests/checkpoint_resume.rs`).
//!
//! The format is the dependency-free [`kutil::codec`] text form (magic
//! `ozz-campaign`). Two classes of settings are deliberately *not*
//! serialized: machine reuse is a throughput knob with byte-identical
//! output (pinned by `tests/pool_fidelity.rs`), so a checkpoint taken
//! with one setting resumes under the other; and the worker count of the
//! work-stealing dispatcher is pure timing. Everything semantic — seed, budget, shard
//! count, bug switches, memory model, hint configuration — is embedded,
//! and on resume the checkpoint's values win over whatever the resuming
//! builder was configured with.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use kernelsim::{BugSwitches, MemoryModel, ReorderType, Syscall};
use kutil::codec::{ParseError, TextReader, TextWriter};
use oemu::{Iid, ScheduleTrace};

use crate::crashdb::CrashDb;
use crate::fuzzer::{FoundBug, FuzzStats, FuzzerCheckpoint, HintOrder};
use crate::sti::Sti;

const MAGIC: &str = "ozz-campaign";
const VERSION: u32 = 1;

/// Resumable snapshot of an entire campaign at a round boundary.
#[derive(Clone, Debug)]
pub struct CampaignCheckpoint {
    /// Campaign seed.
    pub seed: u64,
    /// Number of logical shard streams.
    pub shards: usize,
    /// Total MTI budget across all shards.
    pub budget: u64,
    /// MTIs per stream per scheduling round.
    pub epoch_mtis: u64,
    /// Rounds completed when the snapshot was taken.
    pub round: u64,
    /// Kernel build (bug switches) of the campaign's machines.
    pub bugs: BugSwitches,
    /// Crash titles the campaign stops on once all are found.
    pub expected: Vec<String>,
    /// Memory model of the campaign's machines.
    pub memory_model: MemoryModel,
    /// Per-pair hint cap.
    pub max_hints_per_pair: usize,
    /// Mutate-vs-generate ratio (serialized bit-exactly).
    pub mutate_ratio: f64,
    /// Hint ordering strategy.
    pub hint_order: HintOrder,
    /// Campaign-level deduplicated found set, in title order.
    pub found: Vec<FoundBug>,
    /// The crash database, triage counts included.
    pub crashdb: CrashDb,
    /// Per-stream resumable state, shard order.
    pub streams: Vec<StreamCheckpoint>,
}

/// Resumable state of one shard stream.
#[derive(Clone, Debug)]
pub struct StreamCheckpoint {
    /// Rounds this stream has completed.
    pub epoch: u64,
    /// Corpus length already broadcast to other shards.
    pub corpus_mark: usize,
    /// The stream exhausted its slice, found everything, or stalled.
    pub done: bool,
    /// Bug titles already reported to the coordinator.
    pub bugs_sent: BTreeSet<String>,
    /// Crash-occurrence counts already reported to the coordinator.
    pub counts_sent: BTreeMap<String, u64>,
    /// The stream's fuzzer state.
    pub fuzzer: FuzzerCheckpoint,
}

impl CampaignCheckpoint {
    /// Serializes the checkpoint to the `ozz-campaign` text form.
    pub fn to_text(&self) -> String {
        let mut w = TextWriter::new(MAGIC, VERSION);
        w.hex_field("seed", self.seed);
        w.field("shards", self.shards);
        w.field("budget", self.budget);
        w.field("epoch_mtis", self.epoch_mtis);
        w.field("round", self.round);
        w.field("bugs", self.bugs.key());
        w.field("expected", self.expected.len());
        for title in &self.expected {
            w.str_field("title", title);
        }
        w.field("model", self.memory_model.name());
        w.field("max_hints", self.max_hints_per_pair);
        w.hex_field("mutate_ratio", self.mutate_ratio.to_bits());
        w.field("hint_order", self.hint_order.name());
        w.field("found", self.found.len());
        for bug in &self.found {
            write_bug(&mut w, bug);
        }
        w.blob("crashdb", &self.crashdb.to_text());
        w.field("streams", self.streams.len());
        for st in &self.streams {
            w.begin("stream");
            w.field("epoch", st.epoch);
            w.field("corpus_mark", st.corpus_mark);
            w.field("done", st.done);
            w.field("bugs_sent", st.bugs_sent.len());
            for title in &st.bugs_sent {
                w.str_field("title", title);
            }
            w.field("counts_sent", st.counts_sent.len());
            for (title, n) in &st.counts_sent {
                w.field("tally", format_args!("{} {n}", kutil::codec::escape(title)));
            }
            write_fuzzer(&mut w, &st.fuzzer);
            w.end();
        }
        w.finish()
    }

    /// Parses the [`CampaignCheckpoint::to_text`] form.
    pub fn parse(text: &str) -> Result<CampaignCheckpoint, ParseError> {
        let (mut r, version) = TextReader::new(text, MAGIC)?;
        if version != VERSION {
            return Err(format!("unsupported {MAGIC} version {version}"));
        }
        let seed = r.hex_field("seed")?;
        let shards = r.parse_field("shards")?;
        let budget = r.parse_field("budget")?;
        let epoch_mtis = r.parse_field("epoch_mtis")?;
        let round = r.parse_field("round")?;
        let bugs = BugSwitches::parse_key(r.field("bugs")?)?;
        let n_expected: usize = r.parse_field("expected")?;
        let mut expected = Vec::with_capacity(n_expected);
        for _ in 0..n_expected {
            expected.push(r.str_field("title")?);
        }
        let model = r.field("model")?;
        let memory_model =
            MemoryModel::parse(model).ok_or_else(|| format!("bad memory model {model:?}"))?;
        let max_hints_per_pair = r.parse_field("max_hints")?;
        let mutate_ratio = f64::from_bits(r.hex_field("mutate_ratio")?);
        let hint_order = HintOrder::parse(r.field("hint_order")?)?;
        let n_found: usize = r.parse_field("found")?;
        let mut found = Vec::with_capacity(n_found);
        for _ in 0..n_found {
            found.push(read_bug(&mut r)?);
        }
        let crashdb = CrashDb::parse(&r.blob("crashdb")?)?;
        let n_streams: usize = r.parse_field("streams")?;
        let mut streams = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            r.begin("stream")?;
            let epoch = r.parse_field("epoch")?;
            let corpus_mark = r.parse_field("corpus_mark")?;
            let done = r.parse_field("done")?;
            let n_sent: usize = r.parse_field("bugs_sent")?;
            let mut bugs_sent = BTreeSet::new();
            for _ in 0..n_sent {
                bugs_sent.insert(r.str_field("title")?);
            }
            let counts_sent = read_tally_map(&mut r, "counts_sent")?;
            let fuzzer = read_fuzzer(&mut r)?;
            r.end()?;
            streams.push(StreamCheckpoint {
                epoch,
                corpus_mark,
                done,
                bugs_sent,
                counts_sent,
                fuzzer,
            });
        }
        r.expect_eof()?;
        Ok(CampaignCheckpoint {
            seed,
            shards,
            budget,
            epoch_mtis,
            round,
            bugs,
            expected,
            memory_model,
            max_hints_per_pair,
            mutate_ratio,
            hint_order,
            found,
            crashdb,
            streams,
        })
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename), so
    /// a campaign killed mid-write never leaves a truncated checkpoint.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, &self.to_text())
    }

    /// Loads a checkpoint from `path`.
    pub fn load(path: &Path) -> io::Result<CampaignCheckpoint> {
        let text = std::fs::read_to_string(path)?;
        CampaignCheckpoint::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Writes `text` to `path` via a sibling temp file and an atomic rename.
pub(crate) fn write_atomic(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

fn write_sti(w: &mut TextWriter, sti: &Sti) {
    let tokens: Vec<String> = sti.calls.iter().map(|c| c.to_token()).collect();
    w.field("sti", tokens.join(" "));
}

fn read_sti(r: &mut TextReader<'_>) -> Result<Sti, ParseError> {
    let line = r.field("sti")?;
    let mut calls = Vec::new();
    for tok in line.split_whitespace() {
        calls.push(Syscall::from_token(tok)?);
    }
    Ok(Sti { calls })
}

fn write_bug(w: &mut TextWriter, bug: &FoundBug) {
    w.begin("bug");
    w.str_field("title", &bug.title);
    w.str_field("barrier", &bug.barrier_location);
    w.field("reorder", bug.reorder_type);
    w.field("tests", bug.tests_to_find);
    w.field("rank", bug.hint_rank);
    w.field("i", bug.pair_indices.0);
    w.field("j", bug.pair_indices.1);
    w.hex_field("digest", bug.digest_fnv);
    write_sti(w, &bug.sti);
    w.blob("trace", &bug.trace.to_text());
    w.end();
}

fn read_bug(r: &mut TextReader<'_>) -> Result<FoundBug, ParseError> {
    r.begin("bug")?;
    let title = r.str_field("title")?;
    let barrier_location = r.str_field("barrier")?;
    let reorder = r.field("reorder")?;
    let reorder_type =
        ReorderType::parse(reorder).ok_or_else(|| format!("bad reorder type {reorder:?}"))?;
    let tests_to_find = r.parse_field("tests")?;
    let hint_rank = r.parse_field("rank")?;
    let i: usize = r.parse_field("i")?;
    let j: usize = r.parse_field("j")?;
    let digest_fnv = r.hex_field("digest")?;
    let sti = read_sti(r)?;
    let trace = ScheduleTrace::parse(&r.blob("trace")?)?;
    r.end()?;
    if j >= sti.calls.len() || i >= j {
        return Err(format!("bug pair indices ({i}, {j}) out of range"));
    }
    let pair = (sti.calls[i], sti.calls[j]);
    Ok(FoundBug {
        title,
        barrier_location,
        reorder_type,
        tests_to_find,
        hint_rank,
        pair,
        sti: std::sync::Arc::new(sti),
        pair_indices: (i, j),
        trace,
        digest_fnv,
    })
}

fn write_fuzzer(w: &mut TextWriter, ck: &FuzzerCheckpoint) {
    w.begin("fuzzer");
    for (idx, word) in ck.gen_state.iter().enumerate() {
        w.hex_field(&format!("gen{idx}"), *word);
    }
    w.hex_field("pick", ck.rng_pick);
    w.field("corpus", ck.corpus.len());
    for sti in &ck.corpus {
        write_sti(w, sti);
    }
    w.field("coverage", ck.coverage.len());
    for iid in &ck.coverage {
        w.field("iid", iid.to_token());
    }
    w.field("found", ck.found.len());
    for bug in &ck.found {
        write_bug(w, bug);
    }
    w.field("crashes", ck.crash_counts.len());
    for (title, n) in &ck.crash_counts {
        w.field("tally", format_args!("{} {n}", kutil::codec::escape(title)));
    }
    w.field("stis_run", ck.stats.stis_run);
    w.field("mtis_run", ck.stats.mtis_run);
    w.field("crashes_total", ck.stats.crashes_total);
    w.field("stat_coverage", ck.stats.coverage);
    w.field("barren_stis", ck.stats.barren_stis);
    w.field("stalled", ck.stats.stalled);
    w.end();
}

fn read_fuzzer(r: &mut TextReader<'_>) -> Result<FuzzerCheckpoint, ParseError> {
    r.begin("fuzzer")?;
    let mut gen_state = [0u64; 4];
    for (idx, word) in gen_state.iter_mut().enumerate() {
        *word = r.hex_field(&format!("gen{idx}"))?;
    }
    let rng_pick = r.hex_field("pick")?;
    let n_corpus: usize = r.parse_field("corpus")?;
    let mut corpus = Vec::with_capacity(n_corpus);
    for _ in 0..n_corpus {
        corpus.push(read_sti(r)?);
    }
    let n_cov: usize = r.parse_field("coverage")?;
    let mut coverage = Vec::with_capacity(n_cov);
    for _ in 0..n_cov {
        coverage.push(Iid::from_token(r.field("iid")?)?);
    }
    let n_found: usize = r.parse_field("found")?;
    let mut found = Vec::with_capacity(n_found);
    for _ in 0..n_found {
        found.push(read_bug(r)?);
    }
    let crash_counts = read_tally_map(r, "crashes")?;
    let stats = FuzzStats {
        stis_run: r.parse_field("stis_run")?,
        mtis_run: r.parse_field("mtis_run")?,
        crashes_total: r.parse_field("crashes_total")?,
        coverage: r.parse_field("stat_coverage")?,
        barren_stis: r.parse_field("barren_stis")?,
        stalled: r.parse_field("stalled")?,
    };
    r.end()?;
    Ok(FuzzerCheckpoint {
        gen_state,
        rng_pick,
        corpus,
        coverage,
        found,
        crash_counts,
        stats,
    })
}

fn read_tally_map(r: &mut TextReader<'_>, key: &str) -> Result<BTreeMap<String, u64>, ParseError> {
    let count: usize = r.parse_field(key)?;
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let line = r.field("tally")?;
        let (name, n) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("bad tally line {line:?}"))?;
        let n: u64 = n.parse().map_err(|_| format!("bad tally count {line:?}"))?;
        let name =
            kutil::codec::unescape(name).ok_or_else(|| format!("bad tally name {line:?}"))?;
        map.insert(name, n);
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::{FuzzConfig, Fuzzer};

    /// Builds a checkpoint from a real mid-campaign fuzzer so it carries a
    /// populated corpus, coverage set, found bugs with traces, and crash
    /// counts.
    fn sample() -> CampaignCheckpoint {
        let mut f = Fuzzer::new(FuzzConfig {
            seed: 5,
            ..FuzzConfig::default()
        });
        f.run_until(400, usize::MAX);
        let fck = f.checkpoint();
        let mut crashdb = CrashDb::new();
        for bug in &fck.found {
            crashdb.record(bug, 0, 1, "tso", "all", 2);
        }
        CampaignCheckpoint {
            seed: 5,
            shards: 2,
            budget: 800,
            epoch_mtis: 64,
            round: 3,
            bugs: BugSwitches::all(),
            expected: vec!["some crash title".into()],
            memory_model: MemoryModel::Tso,
            max_hints_per_pair: 8,
            mutate_ratio: 0.5,
            hint_order: HintOrder::MaxReorderFirst,
            found: fck.found.clone(),
            crashdb,
            streams: vec![
                StreamCheckpoint {
                    epoch: 3,
                    corpus_mark: fck.corpus.len(),
                    done: false,
                    bugs_sent: fck.found.iter().map(|b| b.title.clone()).collect(),
                    counts_sent: fck.crash_counts.clone(),
                    fuzzer: fck.clone(),
                },
                StreamCheckpoint {
                    epoch: 3,
                    corpus_mark: 0,
                    done: true,
                    bugs_sent: BTreeSet::new(),
                    counts_sent: BTreeMap::new(),
                    fuzzer: fck,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let ck = sample();
        let text = ck.to_text();
        let back = CampaignCheckpoint::parse(&text).expect("parse");
        // Re-rendering the parsed checkpoint must reproduce the bytes —
        // the property the resume tests lean on.
        assert_eq!(back.to_text(), text);
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.streams.len(), 2);
        assert_eq!(back.found.len(), ck.found.len());
        for (a, b) in back.found.iter().zip(&ck.found) {
            assert_eq!(a.title, b.title);
            assert_eq!(a.digest_fnv, b.digest_fnv);
            assert_eq!(a.pair, b.pair);
            assert_eq!(a.trace.to_text(), b.trace.to_text());
        }
        assert_eq!(back.crashdb, ck.crashdb);
        assert_eq!(back.streams[0].fuzzer.stats, ck.streams[0].fuzzer.stats);
        assert_eq!(back.streams[0].fuzzer.corpus, ck.streams[0].fuzzer.corpus);
        assert_eq!(
            back.streams[0].fuzzer.coverage,
            ck.streams[0].fuzzer.coverage
        );
    }

    #[test]
    fn mutate_ratio_roundtrips_bit_exactly() {
        let mut ck = sample();
        ck.mutate_ratio = 0.1 + 0.2; // not representable, bit pattern matters
        let back = CampaignCheckpoint::parse(&ck.to_text()).unwrap();
        assert_eq!(back.mutate_ratio.to_bits(), ck.mutate_ratio.to_bits());
    }

    #[test]
    fn save_load_roundtrips_and_is_atomic() {
        let ck = sample();
        let dir = std::env::temp_dir().join(format!("ozz-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ckpt");
        ck.save(&path).expect("save");
        assert!(!path.with_file_name("campaign.ckpt.tmp").exists());
        let back = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(back.to_text(), ck.to_text());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_checkpoint_is_rejected() {
        let text = sample().to_text();
        let cut = &text[..text.len() / 2];
        assert!(CampaignCheckpoint::parse(cut).is_err());
    }

    #[test]
    fn resumed_fuzzer_from_parsed_checkpoint_continues_identically() {
        // The full serialize → parse → resume path must be as good as the
        // in-memory resume pinned in fuzzer.rs.
        let cfg = FuzzConfig {
            seed: 5,
            ..FuzzConfig::default()
        };
        let mut a = Fuzzer::new(cfg.clone());
        a.run_until(300, usize::MAX);
        let mut w = TextWriter::new("test-fuzzer", 1);
        write_fuzzer(&mut w, &a.checkpoint());
        let text = w.finish();
        let (mut r, _) = TextReader::new(&text, "test-fuzzer").unwrap();
        let parsed = read_fuzzer(&mut r).expect("parse");
        let mut b = Fuzzer::from_checkpoint(cfg, parsed);
        for _ in 0..5 {
            a.step();
            b.step();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.coverage_iids(), b.coverage_iids());
        assert_eq!(a.corpus(), b.corpus());
        assert_eq!(a.crash_counts(), b.crash_counts());
    }
}
