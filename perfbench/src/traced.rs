//! The traced fuzzer.
//!
//! [`TracedFuzzer::step`] re-runs one `Fuzzer::step` iteration through the same
//! public calls the fuzzer makes — STI generation or mutation, machine
//! checkout, profiling, hint calculation, per-pair reset / setup /
//! snapshot, per-hint restore and pair execution, first-sighting record
//! and digest, checkin — with a span around each call. Its deterministic
//! outputs ([`CampaignOutputs`]) must equal the fuzzer's exactly; the
//! traced run fails otherwise, so the spans are known to describe the
//! work the untraced run measured.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};

use kernelsim::{BugSwitches, ExecRequest, MachinePool, MachineSnapshot, RestoreCounters};
use kutil::{fnv1a64, splitmix64};
use oemu::{Iid, MemoryModel};
use ozz::campaign::CampaignReport;
use ozz::fuzzer::{FoundBug, FuzzConfig, Fuzzer, HintOrder};
use ozz::hints::calc_hints_for;
use ozz::mti::build_mtis;
use ozz::profile_sti_on;
use ozz::sti::{Sti, StiGen};

use crate::spans::Tracer;

/// A first sighting, reduced to the fields that must match exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoundRecord {
    pub title: String,
    pub tests_to_find: u64,
    pub hint_rank: usize,
    pub digest_fnv: u64,
}

impl FoundRecord {
    fn of(bug: &FoundBug) -> FoundRecord {
        FoundRecord {
            title: bug.title.clone(),
            tests_to_find: bug.tests_to_find,
            hint_rank: bug.hint_rank,
            digest_fnv: bug.digest_fnv,
        }
    }
}

/// The deterministic outputs of a campaign: what the traced fuzzer must
/// reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignOutputs {
    pub mtis_run: u64,
    pub crashes_total: u64,
    pub coverage: usize,
    /// First sightings in title order.
    pub found: Vec<FoundRecord>,
}

impl CampaignOutputs {
    pub fn of_fuzzer(f: &Fuzzer) -> CampaignOutputs {
        CampaignOutputs {
            mtis_run: f.stats().mtis_run,
            crashes_total: f.stats().crashes_total,
            coverage: f.stats().coverage,
            found: f.found().values().map(FoundRecord::of).collect(),
        }
    }

    pub fn of_report(r: &CampaignReport) -> CampaignOutputs {
        CampaignOutputs {
            mtis_run: r.stats.mtis_run,
            crashes_total: r.stats.crashes_total,
            coverage: r.stats.coverage,
            found: r.found.values().map(FoundRecord::of).collect(),
        }
    }

    /// MTIs until the last of `expected` was first seen; `None` while one
    /// is still missing.
    pub fn tests_to_find(&self, expected: &[String]) -> Option<u64> {
        expected
            .iter()
            .map(|t| {
                self.found
                    .iter()
                    .find(|f| &f.title == t)
                    .map(|f| f.tests_to_find)
            })
            .try_fold(0, |acc, t| t.map(|t| acc.max(t)))
    }
}

/// Work counts at the span boundaries, so per-layer ratios are taken
/// where the work happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub stis: u64,
    pub mtis: u64,
    /// Distinct `(i, j)` pairs run (one reset + setup + snapshot each).
    pub pairs: u64,
    /// Setup-prefix syscalls run (every call before `j` except `i`).
    pub setup_calls: u64,
    pub profile_events: u64,
    /// Hints calculated, before the per-pair cap.
    pub hints: u64,
    /// MTIs whose run raised at least one crash report.
    pub crash_mtis: u64,
    /// First-sighting record re-runs.
    pub records: u64,
    pub digest_bytes: u64,
}

/// Initial corpus-pick scramble state and multiplier — `fuzzer.rs`
/// `PICK_INIT` / `PICK_MUL`, which the traced fuzzer must replicate because the
/// pick stream is private to the fuzzer.
const PICK_INIT: u64 = 0x9e37_79b9_7f4a_7c15;
const PICK_MUL: u64 = 0x5851_f42d_4c95_7f2d;

/// `fuzzer.rs` `corpus_pick`: a mutate-vs-generate toss and an index
/// draw, both always consumed.
fn corpus_pick(state: &mut u64, corpus_len: usize, mutate_ratio: f64) -> Option<usize> {
    let mut draw = || {
        *state = state.wrapping_mul(PICK_MUL).wrapping_add(1);
        *state
    };
    let toss = (draw() >> 33) as f64 / (1u64 << 31) as f64;
    let idx_draw = draw();
    if corpus_len == 0 || toss >= mutate_ratio {
        return None;
    }
    Some((idx_draw % corpus_len as u64) as usize)
}

/// A fuzzing campaign run step by step under spans.
pub struct TracedFuzzer {
    bugs: BugSwitches,
    model: MemoryModel,
    max_hints_per_pair: usize,
    mutate_ratio: f64,
    gen: StiGen,
    corpus: Vec<Sti>,
    coverage: HashSet<Iid>,
    found: BTreeMap<String, FoundRecord>,
    rng_pick: u64,
    pool: MachinePool,
    mtis_run: u64,
    crashes_total: u64,
    /// Consecutive steps that produced no MTI (`FuzzStats::barren_stis`).
    pub barren_stis: u64,
}

impl TracedFuzzer {
    /// A traced fuzzer for the campaign `Fuzzer::new(cfg)` would run. Only the
    /// default paths are replicated: pooled machines and the paper's hint
    /// order.
    pub fn new(cfg: &FuzzConfig) -> TracedFuzzer {
        assert!(
            cfg.reuse_machines,
            "the traced fuzzer replicates the pooled path"
        );
        assert_eq!(cfg.hint_order, HintOrder::MaxReorderFirst);
        let mut sm = cfg.seed;
        TracedFuzzer {
            bugs: cfg.bugs.clone(),
            model: cfg.memory_model,
            max_hints_per_pair: cfg.max_hints_per_pair,
            mutate_ratio: cfg.mutate_ratio,
            gen: StiGen::new(cfg.seed),
            corpus: Vec::new(),
            coverage: HashSet::new(),
            found: BTreeMap::new(),
            rng_pick: PICK_INIT ^ splitmix64(&mut sm),
            pool: MachinePool::new(),
            mtis_run: 0,
            crashes_total: 0,
            barren_stis: 0,
        }
    }

    pub fn outputs(&self) -> CampaignOutputs {
        CampaignOutputs {
            mtis_run: self.mtis_run,
            crashes_total: self.crashes_total,
            coverage: self.coverage.len(),
            found: self.found.values().cloned().collect(),
        }
    }

    pub fn mtis_run(&self) -> u64 {
        self.mtis_run
    }

    pub fn found_all(&self, expected: &[String]) -> bool {
        expected.iter().all(|t| self.found.contains_key(t))
    }

    pub fn restore_counters(&self) -> RestoreCounters {
        self.pool.restore_counters()
    }

    pub fn boots(&self) -> u64 {
        self.pool.boots()
    }

    /// One `Fuzzer::step`, with a span around each layer call and the work
    /// it did added to `counts`.
    pub fn step(&mut self, tr: &mut Tracer, counts: &mut LayerCounts) {
        let mtis_before = self.mtis_run;
        let sti = tr.span("ozz.sti", |_| {
            match corpus_pick(&mut self.rng_pick, self.corpus.len(), self.mutate_ratio) {
                Some(idx) => self.gen.mutate(&self.corpus[idx]),
                None => self.gen.generate(),
            }
        });
        counts.stis += 1;
        let m = tr.span("kernelsim.pool.checkout", |_| {
            self.pool.checkout_with_model(&self.bugs, self.model)
        });
        let k = m.kctx();
        let traces = tr.span("ozz.profile", |_| profile_sti_on(k, &sti));
        tr.span("ozz.fuzzer.coverage", |_| {
            let before = self.coverage.len();
            for t in &traces {
                counts.profile_events += t.events.len() as u64;
                for e in &t.events {
                    self.coverage.insert(e.iid());
                }
            }
            if self.coverage.len() > before {
                self.corpus.push(sti.clone());
            }
        });
        let hints = Cell::new(0u64);
        let model = self.model;
        let mtis = tr.span("ozz.hints", |_| {
            build_mtis(
                &sti,
                |i, j| {
                    let h = calc_hints_for(&traces[i].events, &traces[j].events, model);
                    hints.set(hints.get() + h.len() as u64);
                    h
                },
                self.max_hints_per_pair,
            )
        });
        counts.hints += hints.get();
        let mut rank_of_pair: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut cur_pair: Option<(usize, usize)> = None;
        let mut post_setup: Option<MachineSnapshot> = None;
        for mti in mtis {
            let rank = rank_of_pair.entry((mti.i, mti.j)).or_insert(0);
            let this_rank = *rank;
            *rank += 1;
            self.mtis_run += 1;
            counts.mtis += 1;
            if cur_pair != Some((mti.i, mti.j)) {
                tr.span("kernelsim.reset", |_| k.reset());
                tr.span("ozz.mti.setup", |_| mti.run_setup(k));
                // The previous pair's snapshot is freed inside the span, as
                // the fuzzer frees it on this assignment: freeing is part
                // of what a snapshot costs.
                tr.span("kernelsim.snapshot", |_| post_setup = Some(k.snapshot()));
                cur_pair = Some((mti.i, mti.j));
                counts.pairs += 1;
                counts.setup_calls += mti.j as u64 - 1;
            } else {
                let snap = post_setup.as_ref().expect("snapshot set with cur_pair");
                tr.span("kernelsim.restore", |_| k.restore(snap));
            }
            let out = tr.span("ozz.mti.pair", |_| mti.run_pair_pooled(&m));
            if !out.crashed() {
                continue;
            }
            counts.crash_mtis += 1;
            self.crashes_total += out.crashes.len() as u64;
            if out
                .crashes
                .iter()
                .all(|c| self.found.contains_key(&c.title))
            {
                continue;
            }
            // First sighting: `Mti::run_pair_pooled_recorded`, unrolled so
            // the digest gets a span of its own.
            let snap = post_setup.as_ref().expect("snapshot set with cur_pair");
            let digest = tr.span("ozz.fuzzer.record", |tr| {
                tr.span("kernelsim.restore", |_| k.restore(snap));
                mti.install_controls(k);
                let (a, b) = mti.pair();
                m.execute(ExecRequest::recorded(mti.plan(), a, b))
                    .into_recorded();
                tr.span("kernelsim.digest", |_| k.state_digest())
            });
            counts.records += 1;
            counts.digest_bytes += digest.len() as u64;
            let digest_fnv = fnv1a64(digest.as_bytes());
            for crash in &out.crashes {
                self.found
                    .entry(crash.title.clone())
                    .or_insert_with(|| FoundRecord {
                        title: crash.title.clone(),
                        tests_to_find: self.mtis_run,
                        hint_rank: this_rank,
                        digest_fnv,
                    });
            }
        }
        for t in traces {
            k.engine.recycle_profile_events(t.events);
        }
        tr.span("kernelsim.pool.checkin", |_| self.pool.checkin(m));
        tr.span("kernelsim.snapshot", |_| drop(post_setup));
        if self.mtis_run == mtis_before {
            self.barren_stis += 1;
        } else {
            self.barren_stis = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replicated pick stream draws exactly what the fuzzer's does:
    /// two draws per call, whatever the decision.
    #[test]
    fn corpus_pick_consumes_two_draws() {
        let mut a = 7u64;
        let mut b = 7u64;
        corpus_pick(&mut a, 0, 0.5);
        corpus_pick(&mut b, 10, 0.5);
        assert_eq!(a, b);
        let mut s = 1u64;
        let picks: Vec<Option<usize>> = (0..64).map(|_| corpus_pick(&mut s, 5, 0.5)).collect();
        assert!(picks.iter().any(Option::is_none));
        assert!(picks.iter().flatten().all(|&i| i < 5));
        assert!(picks.iter().any(Option::is_some));
    }

    /// Two builds the benchmark drives, stepped through the fuzzer and
    /// through the traced fuzzer: every deterministic output agrees.
    #[test]
    fn traced_fuzzer_matches_the_fuzzer() {
        for cfg in [
            FuzzConfig {
                seed: 2024,
                bugs: BugSwitches::all(),
                memory_model: MemoryModel::Tso,
                ..FuzzConfig::default()
            },
            FuzzConfig {
                seed: 5,
                bugs: BugSwitches::none(),
                memory_model: MemoryModel::Pso,
                ..FuzzConfig::default()
            },
        ] {
            let mut f = Fuzzer::new(cfg.clone());
            let mut d = TracedFuzzer::new(&cfg);
            let mut tr = Tracer::default();
            let mut counts = LayerCounts::default();
            for _ in 0..200 {
                f.step();
                d.step(&mut tr, &mut counts);
                assert_eq!(d.barren_stis, f.stats().barren_stis);
            }
            assert_eq!(d.outputs(), CampaignOutputs::of_fuzzer(&f));
            assert_eq!(tr.get("ozz.sti").calls, 200);
            assert_eq!(tr.get("ozz.mti.setup").calls, counts.pairs);
        }
    }

    #[test]
    fn tests_to_find_is_the_last_expected_sighting() {
        let rec = |title: &str, t| FoundRecord {
            title: title.into(),
            tests_to_find: t,
            hint_rank: 0,
            digest_fnv: 0,
        };
        let out = CampaignOutputs {
            mtis_run: 100,
            crashes_total: 3,
            coverage: 1,
            found: vec![rec("a", 10), rec("b", 40), rec("c", 90)],
        };
        assert_eq!(out.tests_to_find(&["a".into(), "b".into()]), Some(40));
        assert_eq!(out.tests_to_find(&["a".into(), "z".into()]), None);
        assert_eq!(out.tests_to_find(&[]), Some(0));
    }
}
