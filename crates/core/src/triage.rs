//! Triage: trace minimization, input shrinking, and patch bisection.
//!
//! A raw [`FoundBug`] carries a full [`ScheduleTrace`] — every
//! instrumented engine event of the crashing execution, often dozens of
//! lines — plus the whole generated STI. A human debugging the kernel
//! ordering bug needs the opposite: the *minimal* reproducer and the
//! *culprit patch*. This module closes that gap in three steps:
//!
//! 1. **Trace minimization** ([`Triager::minimize`]): project the full
//!    trace to its *decisions* (delayed stores, versioned loads — the
//!    sparse form, [`ScheduleTrace::sparsify`]) and delta-debug that
//!    decision set plus the switch script down to a fixed point, accepting
//!    a candidate only if its replay still produces the same oracle
//!    [`Verdict`] without divergence. Candidates replay on one pooled
//!    machine ([`crate::repro::replay_trace_on`]), so a minimization costs
//!    replays, not boots.
//! 2. **Input shrinking** (same entry point): drop the STI calls after the
//!    pair, then delta-debug the setup prefix under the minimized trace,
//!    remapping the pair indices.
//! 3. **Patch bisection** ([`Triager::bisect`]): log₂-probe the buggy
//!    build's enabled [`BugSwitches`] with the minimized reproducer to
//!    name the culprit switch — the one whose revert is necessary and
//!    sufficient for the symptom. Verification failure (or an
//!    already-fixed build) reports [`BisectOutcome::Inconclusive`], never
//!    a wrong patch.
//!
//! The shrinking loop is deterministic (no RNG) and runs to a fixed
//! point, so minimization is idempotent and byte-reproducible — pinned by
//! `tests/triage_minimal.rs` across all three memory models, and by
//! golden minimized traces under `tests/golden/`.

use std::time::Instant;

use kernelsim::{BugId, BugSwitches, MachinePool, RunOutcome, Syscall};
use kutil::fnv1a64;
use oemu::{MemoryModel, ScheduleTrace};

use crate::fuzzer::{FoundBug, FuzzConfig, Fuzzer};
use crate::hints::calc_hints;
use crate::mti::build_mtis;
use crate::profile_sti_on;
use crate::report::TriageReport;
use crate::repro::replay_trace_on;
use crate::sti::{directed_bug_sti, Sti};

/// What counts as "the bug reproduced" on a run outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A crash report with exactly this title.
    Title(String),
    /// The wrong-value symptom of the two silent bugs (Table 4's `✓*` tls
    /// row and the filemap data-loss row): the pair's second syscall
    /// returned 0 where the correct execution returns nonzero.
    RetBZero,
}

impl Verdict {
    /// The verdict for `bug`'s expected symptom.
    pub fn for_bug(bug: BugId) -> Verdict {
        match bug {
            BugId::KnownTlsErr | BugId::ExtFilemap => Verdict::RetBZero,
            _ => Verdict::Title(bug.expected_title().to_string()),
        }
    }

    /// Whether the verdict holds on `out`.
    pub fn holds(&self, out: &RunOutcome) -> bool {
        match self {
            Verdict::Title(t) => out.crashes.iter().any(|c| &c.title == t),
            Verdict::RetBZero => out.ret_b == 0,
        }
    }

    /// Human-readable form for reports.
    pub fn describe(&self) -> String {
        match self {
            Verdict::Title(t) => format!("crash '{t}'"),
            Verdict::RetBZero => "wrong value (cpu1 returned 0)".to_string(),
        }
    }
}

/// A recorded reproducer: everything triage needs to re-run the bug.
#[derive(Clone, Debug)]
pub struct Reproducer {
    /// The targeted bug, when the recording was directed at one.
    pub bug: Option<BugId>,
    /// The syscall sequence.
    pub sti: Sti,
    /// Index of the pair's first syscall.
    pub i: usize,
    /// Index of the pair's second syscall (`i < j`).
    pub j: usize,
    /// The recorded schedule (full or already sparse).
    pub trace: ScheduleTrace,
    /// The symptom a candidate replay must re-produce.
    pub verdict: Verdict,
    /// Re-apply the §6.2 per-CPU migration override on every candidate
    /// machine (the sbitmap row is unreproducible without it).
    pub migration_override: bool,
}

impl Reproducer {
    /// A reproducer from a fuzzer-found bug's embedded trace.
    pub fn from_found(bug: &FoundBug) -> Reproducer {
        Reproducer {
            bug: None,
            sti: (*bug.sti).clone(),
            i: bug.pair_indices.0,
            j: bug.pair_indices.1,
            trace: bug.trace.clone(),
            verdict: Verdict::Title(bug.title.clone()),
            migration_override: false,
        }
    }
}

/// Records a crashing schedule for `bug` under the ambient
/// ([`MemoryModel::from_env`]) memory model. See
/// [`record_reproducer_under`].
pub fn record_reproducer(bug: BugId) -> Option<Reproducer> {
    record_reproducer_under(bug, MemoryModel::from_env())
}

/// Records a crashing schedule for `bug` on its directed STI under
/// `model`: the §6.2 pair-×-hint sweep in record mode (first recorded run
/// showing the symptom wins), falling back to a short seeded campaign for
/// bugs whose trigger needs a longer setup prefix. Returns `None` when
/// neither finds the symptom within the budget.
pub fn record_reproducer_under(bug: BugId, model: MemoryModel) -> Option<Reproducer> {
    let sti = directed_bug_sti(bug);
    let verdict = Verdict::for_bug(bug);
    let migration = bug == BugId::KnownSbitmap;
    let bugs = BugSwitches::only([bug]);
    let pool = MachinePool::new();
    let m = pool.checkout_with_model(&bugs, model);
    if migration {
        m.kctx().set_migration_override(true);
    }
    let traces = profile_sti_on(m.kctx(), &sti);
    let mtis = build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    );
    for mti in mtis {
        let k = m.kctx();
        k.reset();
        if migration {
            k.set_migration_override(true);
        }
        mti.run_setup(k);
        let rec = mti.run_pair_pooled_recorded(&m);
        // The wrong-value verdict only means something on the pair that
        // ends in the value-returning call (oracle-matrix semantics).
        let hit = match (&verdict, bug) {
            (Verdict::RetBZero, BugId::KnownTlsErr) => {
                mti.pair().1 == (Syscall::TlsPollErr { fd: 0 }) && rec.outcome.ret_b == 0
            }
            _ => verdict.holds(&rec.outcome),
        };
        if hit {
            return Some(Reproducer {
                bug: Some(bug),
                sti: (*mti.sti).clone(),
                i: mti.i,
                j: mti.j,
                trace: rec.trace,
                verdict,
                migration_override: migration,
            });
        }
    }
    // Fallback: a focused seeded campaign on the single-bug build. The
    // FoundBug embeds its own recorded trace. Run until *this* bug's title
    // shows up — other titles can surface first (under the Arm model even
    // switched-off code can crash, since `READ_ONCE` is not a load barrier
    // there), and stopping at the first find would miss the target.
    let mut f = Fuzzer::new(FuzzConfig {
        seed: 2024,
        bugs,
        memory_model: model,
        ..FuzzConfig::default()
    });
    loop {
        let before = f.found().len();
        f.run_until(30_000, before + 1);
        if f.found().contains_key(bug.expected_title()) {
            break;
        }
        let stats = f.stats();
        if stats.mtis_run >= 30_000 || stats.stalled || f.found().len() == before {
            return None;
        }
    }
    let fb = f.found().get(bug.expected_title())?;
    let mut r = Reproducer::from_found(fb);
    r.bug = Some(bug);
    Some(r)
}

/// Cost and size accounting of one minimization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinimizeStats {
    /// Replayable events (steps + switches) of the original trace.
    pub events_before: usize,
    /// Replayable events of the minimized trace.
    pub events_after: usize,
    /// STI length before shrinking.
    pub calls_before: usize,
    /// STI length after shrinking.
    pub calls_after: usize,
    /// Candidate replays spent (sparsification check, trace ddmin, STI
    /// ddmin, final verification).
    pub replays: u64,
    /// Wall time of the whole minimization.
    pub wall_ms: f64,
}

impl MinimizeStats {
    /// Event reduction as a percentage of the original size.
    pub fn reduction_pct(&self) -> f64 {
        if self.events_before == 0 {
            return 0.0;
        }
        100.0 * (self.events_before - self.events_after) as f64 / self.events_before as f64
    }
}

/// A minimized reproducer: the fixed-point trace and shrunk input.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The minimal sparse schedule.
    pub trace: ScheduleTrace,
    /// The shrunk syscall sequence.
    pub sti: Sti,
    /// Pair index of the first syscall in the shrunk STI.
    pub i: usize,
    /// Pair index of the second syscall in the shrunk STI.
    pub j: usize,
    /// FNV-1a fingerprint of the minimized replay's post-run state digest.
    pub digest_fnv: u64,
    /// Size and cost accounting.
    pub stats: MinimizeStats,
}

/// Outcome of a patch bisection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BisectOutcome {
    /// The one enabled switch whose revert is necessary and sufficient
    /// for the symptom, verified on both sides.
    Culprit(BugId),
    /// No verified culprit — an already-fixed build, a reproducer that no
    /// longer fires, or a failed necessity/sufficiency check. Never a
    /// guess: the message says which check failed.
    Inconclusive(String),
}

/// The full triage result: minimization, bisection, and the rendered
/// report.
#[derive(Clone, Debug)]
pub struct TriageResult {
    /// The minimized reproducer.
    pub minimized: Minimized,
    /// The named culprit switch (or why there is none).
    pub bisect: BisectOutcome,
    /// Builds probed during bisection.
    pub bisect_probes: u64,
    /// The human-readable report.
    pub report: TriageReport,
}

/// The triage driver, configured with the buggy build under scrutiny.
#[derive(Clone, Debug)]
pub struct Triager {
    /// The build the bug was observed on — the candidate set bisection
    /// searches, and the build minimization replays against.
    pub bugs: BugSwitches,
}

impl Triager {
    /// A triager for the given buggy build.
    pub fn new(bugs: BugSwitches) -> Triager {
        Triager { bugs }
    }

    /// Minimizes `r`'s trace and STI to a fixed point (see the module
    /// docs). Deterministic and idempotent: minimizing the minimized
    /// reproducer returns it byte-identically.
    pub fn minimize(&self, r: &Reproducer) -> Minimized {
        let start = Instant::now();
        let pool = MachinePool::new();
        let m = pool.checkout_with_model(&self.bugs, r.trace.model);
        let mut replays = 0u64;
        let events_before = r.trace.event_count();
        let calls_before = r.sti.calls.len();

        // Candidate acceptance: a non-diverged replay with the verdict.
        let mut check = |sti: &Sti, i: usize, j: usize, t: &ScheduleTrace| -> Option<String> {
            replays += 1;
            let k = m.kctx();
            k.reset();
            if r.migration_override {
                k.set_migration_override(true);
            }
            let rep = replay_trace_on(&m, sti, i, j, t);
            (!rep.diverged && r.verdict.holds(&rep.outcome)).then_some(rep.digest)
        };

        // 1. Sparse projection. It must reproduce (the decisions plus the
        // switch script are exactly what produced the recording); if the
        // replay contract is ever broken, degrade to the original trace
        // rather than emitting a non-reproducing "minimization".
        let sparse = if r.trace.sparse {
            r.trace.clone()
        } else {
            r.trace.sparsify()
        };
        if check(&r.sti, r.i, r.j, &sparse).is_none() {
            let digest = check(&r.sti, r.i, r.j, &r.trace)
                .expect("the recorded trace must replay its own verdict");
            return Minimized {
                trace: r.trace.clone(),
                sti: r.sti.clone(),
                i: r.i,
                j: r.j,
                digest_fnv: fnv1a64(digest.as_bytes()),
                stats: MinimizeStats {
                    events_before,
                    events_after: events_before,
                    calls_before,
                    calls_after: calls_before,
                    replays,
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                },
            };
        }

        // 2. Delta-debug decisions and switches to a joint fixed point.
        let mut trace = sparse;
        loop {
            let keep = shrink(trace.steps.len(), |keep| {
                check(&r.sti, r.i, r.j, &trace.with_step_subset(keep)).is_some()
            });
            let after_steps = trace.with_step_subset(&keep);
            let keep = shrink(after_steps.switches.len(), |keep| {
                check(&r.sti, r.i, r.j, &after_steps.with_switch_subset(keep)).is_some()
            });
            let next = after_steps.with_switch_subset(&keep);
            let done = next == trace;
            trace = next;
            if done {
                break;
            }
        }

        // 3. Shrink the input: calls after the pair never execute under
        // replay — drop them outright — then delta-debug the setup prefix
        // under the minimized trace, remapping the pair indices.
        let base: Vec<Syscall> = r.sti.calls[..=r.j].to_vec();
        let setup: Vec<usize> = (0..r.j).filter(|&x| x != r.i).collect();
        let keep = shrink(setup.len(), |keep| {
            let (sti, i, j) = rebuild_sti(&base, &setup, keep, r.i, r.j);
            check(&sti, i, j, &trace).is_some()
        });
        let (sti, i, j) = rebuild_sti(&base, &setup, &keep, r.i, r.j);

        // 4. Final verification — also yields the minimized state digest.
        let digest = check(&sti, i, j, &trace)
            .expect("every accepted candidate reproduced; the fixed point must too");
        Minimized {
            stats: MinimizeStats {
                events_before,
                events_after: trace.event_count(),
                calls_before,
                calls_after: sti.calls.len(),
                replays,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
            },
            trace,
            sti,
            i,
            j,
            digest_fnv: fnv1a64(digest.as_bytes()),
        }
    }

    /// Bisects the buggy build's enabled switches with the minimized
    /// reproducer: log₂ halving on "does the symptom still fire with only
    /// this half enabled", with two-sided verification — a culprit must
    /// reproduce alone (sufficiency) and the symptom must die once it is
    /// reverted (necessity). When the symptom survives the revert, the
    /// search repeats on the remainder to *enumerate* every sufficient
    /// switch; more than one means the patch is genuinely ambiguous and the
    /// outcome is an [`BisectOutcome::Inconclusive`] naming them all —
    /// never a guess. Returns the probe count alongside the outcome.
    pub fn bisect(&self, r: &Reproducer, min: &Minimized) -> (BisectOutcome, u64) {
        let enabled: Vec<BugId> = self.bugs.iter().collect();
        let pool = MachinePool::new();
        let mut probes = 0u64;
        let mut fires = |set: &BugSwitches| -> bool {
            probes += 1;
            let m = pool.checkout_with_model(set, min.trace.model);
            let k = m.kctx();
            k.reset();
            if r.migration_override {
                k.set_migration_override(true);
            }
            let rep = replay_trace_on(&m, &min.sti, min.i, min.j, &min.trace);
            !rep.diverged && r.verdict.holds(&rep.outcome)
        };
        if enabled.is_empty() {
            return (
                BisectOutcome::Inconclusive(
                    "the build has no bug switches enabled (already fixed)".into(),
                ),
                probes,
            );
        }
        // Enumerate every individually-sufficient switch: bisect the
        // still-suspect set, verify the find reproduces alone, revert it,
        // and repeat until the symptom dies. A single survivor passed both
        // checks — sufficiency in the loop, necessity by the loop's exit
        // condition (the symptom died once it was reverted).
        let mut remaining = enabled.clone();
        let mut culprits: Vec<BugId> = Vec::new();
        loop {
            let still_fires = fires(&BugSwitches::only(remaining.iter().copied()));
            if !still_fires {
                break;
            }
            if remaining.is_empty() {
                // The symptom fires with every switch reverted: under the
                // Arm model some fixes are insufficient by design
                // (`READ_ONCE` is not a load barrier there), and no patch
                // can be named for it.
                return (
                    BisectOutcome::Inconclusive(
                        "the symptom fires even with every switch reverted — \
                         not attributable to any patch under this memory model"
                            .into(),
                    ),
                    probes,
                );
            }
            let mut suspects = remaining.clone();
            while suspects.len() > 1 {
                let half = &suspects[..suspects.len() / 2];
                if fires(&BugSwitches::only(half.iter().copied())) {
                    suspects = half.to_vec();
                } else {
                    suspects = suspects[suspects.len() / 2..].to_vec();
                }
            }
            let culprit = suspects[0];
            if !fires(&BugSwitches::only([culprit])) {
                return (
                    BisectOutcome::Inconclusive(format!(
                        "sufficiency check failed: {culprit} alone does not reproduce"
                    )),
                    probes,
                );
            }
            culprits.push(culprit);
            remaining.retain(|&b| b != culprit);
        }
        match culprits.len() {
            0 => (
                BisectOutcome::Inconclusive(
                    "the minimized reproducer does not fire on this build (already fixed?)".into(),
                ),
                probes,
            ),
            1 => (BisectOutcome::Culprit(culprits[0]), probes),
            _ => {
                let names: Vec<String> = culprits.iter().map(|c| c.to_string()).collect();
                (
                    BisectOutcome::Inconclusive(format!(
                        "the symptom has {} independent causes on this build: {} — \
                         each reproduces it alone",
                        culprits.len(),
                        names.join(", ")
                    )),
                    probes,
                )
            }
        }
    }

    /// The full pipeline: minimize, bisect, render the report.
    pub fn triage(&self, r: &Reproducer) -> TriageResult {
        let minimized = self.minimize(r);
        let (bisect, bisect_probes) = self.bisect(r, &minimized);
        let report = TriageReport::new(r, &minimized, &bisect);
        TriageResult {
            minimized,
            bisect,
            bisect_probes,
            report,
        }
    }

    /// [`Triager::triage`] for a fuzzer-found bug's embedded trace.
    pub fn triage_found(&self, bug: &FoundBug) -> TriageResult {
        self.triage(&Reproducer::from_found(bug))
    }
}

/// Deterministic delta debugging over index set `0..len`: repeatedly try
/// removing contiguous chunks (size `len`, then halving down to 1, chunks
/// aligned on the current kept sequence, left to right), keeping any
/// removal `reproduces` accepts, until a whole size-ladder pass removes
/// nothing. The result is a fixed point of the procedure itself — running
/// it again returns the same indices — which is what makes minimization
/// idempotent.
fn shrink(len: usize, mut reproduces: impl FnMut(&[usize]) -> bool) -> Vec<usize> {
    let mut kept: Vec<usize> = (0..len).collect();
    loop {
        let before = kept.len();
        let mut size = kept.len();
        while size >= 1 {
            let mut start = 0;
            while start < kept.len() {
                let end = (start + size).min(kept.len());
                let cand: Vec<usize> = kept[..start]
                    .iter()
                    .chain(kept[end..].iter())
                    .copied()
                    .collect();
                if reproduces(&cand) {
                    // The next chunk slid into `start`; retry in place.
                    kept = cand;
                } else {
                    start = end;
                }
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }
        if kept.len() == before {
            return kept;
        }
    }
}

/// Rebuilds a candidate STI from the pair's base calls (`..=j`), the
/// setup-index table, and the kept positions into it; returns the calls in
/// original order with the pair indices remapped.
fn rebuild_sti(
    base: &[Syscall],
    setup: &[usize],
    keep: &[usize],
    i: usize,
    j: usize,
) -> (Sti, usize, usize) {
    let mut indices: Vec<usize> = keep.iter().map(|&p| setup[p]).collect();
    indices.push(i);
    indices.push(j);
    indices.sort_unstable();
    let calls: Vec<Syscall> = indices.iter().map(|&x| base[x]).collect();
    let ni = indices.iter().position(|&x| x == i).expect("i kept");
    let nj = indices.iter().position(|&x| x == j).expect("j kept");
    (Sti { calls }, ni, nj)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shrink` on a predicate that needs a known subset must return
    /// exactly that subset, deterministically.
    #[test]
    fn shrink_finds_the_needed_subset() {
        let needed = [2usize, 5, 6];
        let pred = |keep: &[usize]| needed.iter().all(|n| keep.contains(n));
        let got = shrink(8, pred);
        assert_eq!(got, needed.to_vec());
        // Idempotent: shrinking a minimal set changes nothing (indices are
        // positions into the kept sequence on re-entry).
        let again = shrink(3, |keep| keep.len() == 3 || keep.len() >= 3);
        assert_eq!(again, vec![0, 1, 2]);
    }

    #[test]
    fn shrink_handles_trivial_predicates() {
        assert_eq!(shrink(5, |_| true), Vec::<usize>::new());
        assert_eq!(shrink(5, |k| k.len() == 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(shrink(0, |_| true), Vec::<usize>::new());
    }

    #[test]
    fn rebuild_sti_remaps_pair_indices() {
        use Syscall::*;
        let base = [VmciQpCreate, WqPost, PipeRead, VmciQpAttach];
        // pair (1, 3); setup = [0, 2]; keep only setup position 1 (= call 2)
        let (sti, i, j) = rebuild_sti(&base, &[0, 2], &[1], 1, 3);
        assert_eq!(sti.calls, vec![WqPost, PipeRead, VmciQpAttach]);
        assert_eq!((i, j), (0, 2));
        let (sti, i, j) = rebuild_sti(&base, &[0, 2], &[], 1, 3);
        assert_eq!(sti.calls, vec![WqPost, VmciQpAttach]);
        assert_eq!((i, j), (0, 1));
    }

    /// End-to-end on the Figure 1 bug: record, minimize, check the trace
    /// shrank and still reproduces, and the bisector names the bug.
    #[test]
    fn figure1_minimizes_and_bisects() {
        let bug = BugId::KnownWatchQueuePost;
        let r = record_reproducer(bug).expect("figure 1 records");
        let triager = Triager::new(BugSwitches::only([bug]));
        let min = triager.minimize(&r);
        assert!(min.trace.sparse);
        assert!(min.stats.events_after <= min.stats.events_before);
        assert!(
            min.stats.events_after < min.stats.events_before,
            "a full recording always has non-decision steps to drop"
        );
        // The minimized trace replays the verdict on a fresh boot too.
        let rep = crate::repro::replay_trace(
            BugSwitches::only([bug]),
            &min.sti,
            min.i,
            min.j,
            &min.trace,
        );
        assert!(!rep.diverged);
        assert!(r.verdict.holds(&rep.outcome));
        let (outcome, _) = triager.bisect(&r, &min);
        assert_eq!(outcome, BisectOutcome::Culprit(bug));
    }

    #[test]
    fn bisect_on_fixed_build_is_inconclusive() {
        let bug = BugId::KnownWatchQueuePost;
        let r = record_reproducer(bug).expect("figure 1 records");
        let buggy = Triager::new(BugSwitches::only([bug]));
        let min = buggy.minimize(&r);
        let fixed = Triager::new(BugSwitches::none());
        let (outcome, _) = fixed.bisect(&r, &min);
        assert!(matches!(outcome, BisectOutcome::Inconclusive(_)));
    }
}
