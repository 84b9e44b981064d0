//! The `triage` workload: crash to minimal, attributed reproducer.
//!
//! One operation is one oracle-matrix bug taken through
//! `triage::record_reproducer`, `Triager::minimize` and `Triager::bisect`.
//! A pass covers all 24 bugs in an order drawn from the seed; passes
//! repeat until the run's time is up. Triage is deterministic, so every
//! pass must produce the same outputs for a bug.

use std::collections::BTreeMap;
use std::time::Instant;

use kernelsim::{BugId, BugSwitches, ExecRequest, MachinePool};
use kutil::{fnv1a64, splitmix64};
use oemu::ScheduleTrace;
use ozz::mti::run_setup_prefix;
use ozz::sti::Sti;
use ozz::triage::{record_reproducer, BisectOutcome, Minimized, Reproducer, Triager};

use crate::checks::{self, ReplayCheck};
use crate::procfs::{peak_rss_mb, ProcSample};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, percentile_checked, summary};
use crate::Args;

/// Passes before timing starts; `setup_s` is their total wall time.
const WARMUP_PASSES: u64 = 6;
/// Timed passes at least: 5 × 24 bugs leaves ≥ 10 samples beyond p90.
const MIN_PASSES: u64 = 5;

/// Every oracle-matrix bug: new, known, extended.
pub fn oracle_bugs() -> Vec<BugId> {
    BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .copied()
        .collect()
}

/// Pass `pass`'s bug order: a Fisher–Yates shuffle driven by the seed.
fn pass_order(seed: u64, pass: u64) -> Vec<BugId> {
    let mut bugs = oracle_bugs();
    let mut sm = seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..bugs.len()).rev() {
        let j = (splitmix64(&mut sm) % (i as u64 + 1)) as usize;
        bugs.swap(i, j);
    }
    bugs
}

/// The build a bug's bisection searches: every switch except the bug's
/// title twins, so the culprit is unambiguous.
fn bisect_build(bug: BugId) -> BugSwitches {
    BugSwitches::only(
        BugSwitches::all()
            .iter()
            .filter(|&b| b == bug || b.expected_title() != bug.expected_title()),
    )
}

/// What one bug's triage must reproduce exactly, pass after pass and in
/// the traced run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriageOutputs {
    pub events_before: usize,
    pub events_after: usize,
    pub calls_before: usize,
    pub calls_after: usize,
    pub replays: u64,
    pub digest_fnv: u64,
    pub bisect: BisectOutcome,
    pub probes: u64,
}

impl TriageOutputs {
    fn of(min: &Minimized, bisect: BisectOutcome, probes: u64) -> TriageOutputs {
        TriageOutputs {
            events_before: min.stats.events_before,
            events_after: min.stats.events_after,
            calls_before: min.stats.calls_before,
            calls_after: min.stats.calls_after,
            replays: min.stats.replays,
            digest_fnv: min.digest_fnv,
            bisect,
            probes,
        }
    }
}

/// Record, minimize, bisect — the timed operation, untraced.
fn triage_bug(bug: BugId) -> Option<(Reproducer, Minimized, TriageOutputs)> {
    let r = record_reproducer(bug)?;
    let min = Triager::new(BugSwitches::only([bug])).minimize(&r);
    let (bisect, probes) = Triager::new(bisect_build(bug)).bisect(&r, &min);
    let outputs = TriageOutputs::of(&min, bisect, probes);
    Some((r, min, outputs))
}

/// The same operation with a span around each stage.
fn triage_bug_traced(
    bug: BugId,
    tr: &mut Tracer,
) -> Option<(Reproducer, Minimized, TriageOutputs)> {
    let r = tr.span("ozz.triage.record", |_| record_reproducer(bug))?;
    let min = tr.span("ozz.triage.minimize", |_| {
        Triager::new(BugSwitches::only([bug])).minimize(&r)
    });
    let (bisect, probes) = tr.span("ozz.triage.bisect", |_| {
        Triager::new(bisect_build(bug)).bisect(&r, &min)
    });
    let outputs = TriageOutputs::of(&min, bisect, probes);
    Some((r, min, outputs))
}

/// Replays `trace` on a machine of `bug`'s build checked out of `pool`:
/// `repro::replay_trace_on`, unrolled into reset / setup / execute /
/// digest spans. Returns the check and the digest's length.
fn replay(
    pool: &MachinePool,
    bug: BugId,
    r: &Reproducer,
    sti: &Sti,
    (i, j): (usize, usize),
    trace: &ScheduleTrace,
    tr: &mut Tracer,
) -> (ReplayCheck, usize) {
    let build = BugSwitches::only([bug]);
    let m = tr.span("kernelsim.pool.checkout", |_| {
        pool.checkout_with_model(&build, trace.model)
    });
    let k = m.kctx();
    let (check, bytes) = tr.span("ozz.repro.replay", |tr| {
        tr.span("kernelsim.reset", |_| {
            k.reset();
            if r.migration_override {
                k.set_migration_override(true);
            }
        });
        tr.span("ozz.mti.setup", |_| run_setup_prefix(k, &sti.calls, i, j));
        let (outcome, report) = tr.span("ozz.repro.replay.execute", |_| {
            m.execute(ExecRequest::replay(trace, sti.calls[i], sti.calls[j]))
                .into_replayed()
        });
        let digest = tr.span("kernelsim.digest", |_| k.state_digest());
        let check = ReplayCheck {
            diverged: report.diverged,
            verdict_holds: r.verdict.holds(&outcome),
            digest_fnv: fnv1a64(digest.as_bytes()),
        };
        (check, digest.len())
    });
    tr.span("kernelsim.pool.checkin", |_| pool.checkin(m));
    (check, bytes)
}

/// One bug triaged in a pass.
struct BugRun {
    bug: BugId,
    op_ms: f64,
    outputs: Option<TriageOutputs>,
}

pub fn run_triage(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let start = Instant::now();
    for pass in 0..WARMUP_PASSES {
        for bug in pass_order(args.seed, pass) {
            triage_bug(bug);
        }
    }
    let setup_s = start.elapsed().as_secs_f64();

    let run_s = args.untraced_seconds();
    let min_passes = if args.trace { 1 } else { MIN_PASSES };
    let mut runs: Vec<BugRun> = Vec::new();
    let mut passes = 0;
    let mut proc = ProcSample::default();
    let mut first: BTreeMap<BugId, TriageOutputs> = BTreeMap::new();
    let start = Instant::now();
    while passes < min_passes || start.elapsed().as_secs_f64() < run_s {
        for bug in pass_order(args.seed, WARMUP_PASSES + passes) {
            let before = ProcSample::now()?;
            let t = Instant::now();
            let done = triage_bug(bug);
            let op_ms = t.elapsed().as_secs_f64() * 1e3;
            proc = proc.plus(&ProcSample::now()?.since(&before));
            out.attempted += 1;
            let outputs = match done {
                None => {
                    out.fail(format!("{bug}: no reproducer within the budget"));
                    None
                }
                Some((r, min, o)) => {
                    // Checked once per bug: triage is deterministic, so a
                    // later pass must simply repeat the first.
                    match first.get(&bug) {
                        Some(prev) if *prev != o => out.fail(format!(
                            "{bug}: triage not deterministic: {o:?} != {prev:?}"
                        )),
                        Some(_) => {}
                        None => {
                            let pool = MachinePool::new();
                            let pair = (min.i, min.j);
                            let mut scratch = Tracer::default();
                            let (check, _) =
                                replay(&pool, bug, &r, &min.sti, pair, &min.trace, &mut scratch);
                            let model = min.trace.model;
                            if let Err(why) =
                                checks::triage_ok(bug, model, check, min.digest_fnv, &o.bisect)
                            {
                                out.fail(why);
                            }
                            first.insert(bug, o.clone());
                        }
                    }
                    Some(o)
                }
            };
            runs.push(BugRun {
                bug,
                op_ms,
                outputs,
            });
        }
        passes += 1;
    }

    let op_ms: Vec<f64> = runs.iter().map(|r| r.op_ms).collect();
    let replays: u64 = runs
        .iter()
        .filter_map(|r| r.outputs.as_ref())
        .map(|o| o.replays + o.probes)
        .sum();
    let total_s = op_ms.iter().sum::<f64>() / 1e3;
    let events: Vec<f64> = first.values().map(|o| o.events_after as f64).collect();
    println!(
        "{passes} passes, {} bug triages, {replays} replays, {:.2} minflt/replay, sys share {:.3}",
        runs.len(),
        proc.minflt as f64 / replays.max(1) as f64,
        proc.sys_share()
    );
    println!("bug triage ms: {}", summary(&op_ms));
    out.set("setup_s", setup_s);
    out.set("mtis_per_s", replays as f64 / total_s);
    // p50 is the median bug's mean cost over the passes. Pooling the
    // samples instead puts the median on the boundary between the 12th
    // and 13th cheapest bug, and a per-bug median flips with whichever
    // host-speed phase held most of the run; a per-bug mean moves only in
    // proportion to it.
    let mut per_bug: BTreeMap<BugId, Vec<f64>> = BTreeMap::new();
    for r in &runs {
        per_bug.entry(r.bug).or_default().push(r.op_ms);
    }
    let bug_means: Vec<f64> = per_bug
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    out.set("op_ms_p50", median(&bug_means));
    if let Some(p90) = percentile_checked(&op_ms, 0.9) {
        out.set("op_ms_p90", p90);
    } else if !args.trace {
        return Err(format!("{} bug triages are too few for p90", op_ms.len()));
    }
    out.set("peak_rss_mb", peak_rss_mb()?);
    if !events.is_empty() {
        out.set("ozz.triage.min_events_p50", median(&events));
    }
    if args.trace {
        trace_triage(&runs, total_s, replays, proc, &mut out);
    }
    Ok(out)
}

/// Traced pass over the bug triages the untraced pass ran, plus a replay
/// of each bug's original and minimized trace split into its stages.
fn trace_triage(
    runs: &[BugRun],
    untraced_s: f64,
    replays: u64,
    proc: ProcSample,
    out: &mut Outcome,
) {
    let mut tr = Tracer::default();
    let pool = MachinePool::new();
    let bugs = runs.len() as u64;
    let mut replay_calls = 0u64;
    let mut setup_calls = 0u64;
    let mut digest_bytes = 0u64;
    let mut traced_op_s = 0.0;
    let start = Instant::now();
    for run in runs {
        let before = tr.covered_s();
        let done = triage_bug_traced(run.bug, &mut tr);
        traced_op_s += tr.covered_s() - before;
        let got = done.as_ref().map(|d| &d.2);
        if got != run.outputs.as_ref() {
            out.problems.push(format!(
                "fidelity: traced triage of {} gave {got:?}, untraced {:?}",
                run.bug, run.outputs
            ));
        }
        let Some((r, min, _)) = done else { continue };
        for (sti, pair, trace) in [
            (&r.sti, (r.i, r.j), &r.trace),
            (&min.sti, (min.i, min.j), &min.trace),
        ] {
            let (check, bytes) = replay(&pool, run.bug, &r, sti, pair, trace, &mut tr);
            replay_calls += 1;
            setup_calls += pair.1 as u64 - 1;
            digest_bytes += bytes as u64;
            if check.diverged || !check.verdict_holds {
                out.problems.push(format!(
                    "fidelity: {} replay of a recorded trace failed: {check:?}",
                    run.bug
                ));
            }
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let us = |name: &str, d: u64| tr.get(name).us_per(d);
    let outputs: Vec<&TriageOutputs> = runs.iter().filter_map(|r| r.outputs.as_ref()).collect();
    let n_out = outputs.len() as u64;
    out.set("proc.minflt_per_mti", per(proc.minflt, replays));
    out.set("proc.sys_share", proc.sys_share());
    out.set(
        "ozz.triage.record.us_per_bug",
        us("ozz.triage.record", bugs),
    );
    out.set(
        "ozz.triage.minimize.us_per_bug",
        us("ozz.triage.minimize", bugs),
    );
    out.set(
        "ozz.triage.bisect.us_per_bug",
        us("ozz.triage.bisect", bugs),
    );
    out.set(
        "ozz.triage.minimize.replays_per_bug",
        per(outputs.iter().map(|o| o.replays).sum(), n_out),
    );
    out.set(
        "ozz.triage.bisect.probes_per_bug",
        per(outputs.iter().map(|o| o.probes).sum(), n_out),
    );
    out.set(
        "ozz.repro.replay.us_per_call",
        us("ozz.repro.replay", replay_calls),
    );
    out.set(
        "ozz.repro.replay.reset_us",
        us("kernelsim.reset", replay_calls),
    );
    out.set(
        "ozz.repro.replay.setup_us",
        us("ozz.mti.setup", replay_calls),
    );
    out.set(
        "ozz.repro.replay.execute_us",
        us("ozz.repro.replay.execute", replay_calls),
    );
    out.set(
        "ozz.repro.replay.digest_us",
        us("kernelsim.digest", replay_calls),
    );
    out.set(
        "kernelsim.reset.us_per_pair",
        us("kernelsim.reset", replay_calls),
    );
    out.set(
        "ozz.mti.setup.us_per_pair",
        us("ozz.mti.setup", replay_calls),
    );
    out.set(
        "ozz.mti.setup.calls_per_pair",
        per(setup_calls, replay_calls),
    );
    out.set(
        "kernelsim.digest.us_per_call",
        us("kernelsim.digest", replay_calls),
    );
    out.set("kernelsim.digest.bytes", per(digest_bytes, replay_calls));
    out.set("kernelsim.pool.boots", per(pool.boots(), bugs));
    let checkout = tr.get("kernelsim.pool.checkout");
    out.set(
        "kernelsim.pool.checkout_us",
        checkout.us_per(checkout.calls),
    );
    let checkin = tr.get("kernelsim.pool.checkin");
    out.set("kernelsim.pool.checkin_us", checkin.us_per(checkin.calls));
    out.set("trace.coverage", tr.covered_s() / traced_s);
    out.set("trace.overhead", traced_op_s / untraced_s);
    crate::campaign::print_breakdown(&tr, traced_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use oemu::MemoryModel;

    #[test]
    fn every_pass_covers_the_24_bugs_in_a_seeded_order() {
        let sorted = |mut v: Vec<BugId>| {
            v.sort();
            v
        };
        assert_eq!(oracle_bugs().len(), 24);
        assert_eq!(sorted(pass_order(2024, 0)), sorted(oracle_bugs()));
        assert_eq!(pass_order(2024, 3), pass_order(2024, 3));
        assert_ne!(pass_order(2024, 0), pass_order(2024, 1));
        assert_ne!(pass_order(1, 0), pass_order(2, 0));
    }

    #[test]
    fn bisect_build_drops_only_title_twins() {
        let b = bisect_build(BugId::KnownXskState);
        assert!(b.has(BugId::KnownXskState));
        assert!(!b.has(BugId::XskStateBound));
        assert_eq!(b.iter().count(), BugSwitches::all().iter().count() - 1);
        assert_eq!(bisect_build(BugId::KnownVlan), BugSwitches::all());
    }

    #[test]
    fn a_bug_triages_to_itself() {
        let bug = BugId::KnownVlan;
        let (r, min, o) = triage_bug(bug).expect("vlan records");
        assert_eq!(o.bisect, BisectOutcome::Culprit(bug));
        let pool = MachinePool::new();
        let mut tr = Tracer::default();
        let (check, _) = replay(
            &pool,
            bug,
            &r,
            &min.sti,
            (min.i, min.j),
            &min.trace,
            &mut tr,
        );
        assert!(checks::triage_ok(bug, MemoryModel::Tso, check, min.digest_fnv, &o.bisect).is_ok());
        assert_eq!(tr.get("ozz.repro.replay").calls, 1);
        assert_eq!(tr.get("kernelsim.digest").calls, 1);
        let (_, _, traced) = triage_bug_traced(bug, &mut tr).unwrap();
        assert_eq!(traced, o);
        assert_eq!(tr.get("ozz.triage.bisect").calls, 1);
    }
}
