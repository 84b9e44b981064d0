//! The triage differential battery: for every oracle-matrix bug, the
//! minimized reproducer must (a) replay to the same oracle verdict on a
//! fresh machine, (b) be no longer than the original recording, (c) be a
//! fixed point of the minimizer (idempotence), and (d) come out
//! byte-identical when the whole record-and-minimize pipeline runs twice
//! (determinism). Across the battery, the median event reduction must be
//! at least 40%.
//!
//! Like every workspace integration test, this honours the ambient
//! `OZZ_MEMMODEL` environment — ci.sh runs it under all three memory
//! models.

use kernelsim::{BugId, BugSwitches, MachinePool};
use ozz::repro::replay_trace_on;
use ozz::triage::{record_reproducer, BisectOutcome, Minimized, Reproducer, Triager};

fn all_bugs() -> Vec<BugId> {
    BugId::NEW
        .iter()
        .chain(BugId::KNOWN.iter())
        .chain(BugId::EXTENDED.iter())
        .copied()
        .collect()
}

/// Replays the minimized reproducer on a fresh pooled machine of the given
/// build and checks the oracle verdict — property (a)'s independent check,
/// sharing no state with the minimizer's own verification.
fn reproduces(build: &BugSwitches, r: &Reproducer, min: &Minimized) -> bool {
    let pool = MachinePool::new();
    let m = pool.checkout_with_model(build, min.trace.model);
    let k = m.kctx();
    k.reset();
    if r.migration_override {
        k.set_migration_override(true);
    }
    let rep = replay_trace_on(&m, &min.sti, min.i, min.j, &min.trace);
    !rep.diverged && r.verdict.holds(&rep.outcome)
}

/// The minimized reproducer re-packed as a recorder output, to feed the
/// minimizer its own result for the idempotence check.
fn as_reproducer(r: &Reproducer, min: &Minimized) -> Reproducer {
    Reproducer {
        sti: min.sti.clone(),
        i: min.i,
        j: min.j,
        trace: min.trace.clone(),
        ..r.clone()
    }
}

/// Properties (a)–(c) plus the reduction statistic, for every bug.
#[test]
fn minimized_traces_reproduce_shrink_and_fix() {
    let mut reductions = Vec::new();
    for bug in all_bugs() {
        let build = BugSwitches::only([bug]);
        let r = record_reproducer(bug).unwrap_or_else(|| panic!("{bug} must record"));
        let triager = Triager::new(build.clone());
        let min = triager.minimize(&r);

        // (a) Replay equivalence: same verdict, no divergence, fresh machine.
        assert!(
            reproduces(&build, &r, &min),
            "{bug}: minimized trace must replay to the same verdict"
        );

        // (b) Never longer than the recording.
        assert!(
            min.stats.events_after <= min.stats.events_before,
            "{bug}: minimization must not grow the trace"
        );

        // (c) Idempotence: minimizing the minimized reproducer is the
        // identity, byte for byte.
        let again = triager.minimize(&as_reproducer(&r, &min));
        assert_eq!(
            again.trace.to_text(),
            min.trace.to_text(),
            "{bug}: minimization must be a fixed point"
        );
        assert_eq!(again.sti.calls, min.sti.calls, "{bug}: STI fixed point");
        assert_eq!((again.i, again.j), (min.i, min.j));
        assert_eq!(again.digest_fnv, min.digest_fnv);

        reductions.push(min.stats.reduction_pct());
    }

    // Battery-wide statistic: median event reduction >= 40%.
    reductions.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = reductions[reductions.len() / 2];
    assert!(
        median >= 40.0,
        "median event reduction {median:.1}% must be at least 40%"
    );
}

/// Property (d): running the whole record-and-minimize pipeline twice
/// yields byte-identical traces and STIs. Recording is seeded and the
/// minimizer has no randomness, so this is exact equality, not similarity.
#[test]
fn minimization_is_deterministic_end_to_end() {
    for bug in all_bugs() {
        let triager = Triager::new(BugSwitches::only([bug]));
        let one = {
            let r = record_reproducer(bug).unwrap_or_else(|| panic!("{bug} must record"));
            (r.clone(), triager.minimize(&r))
        };
        let two = {
            let r = record_reproducer(bug).unwrap_or_else(|| panic!("{bug} must record"));
            (r.clone(), triager.minimize(&r))
        };
        assert_eq!(
            one.0.trace.to_text(),
            two.0.trace.to_text(),
            "{bug}: recording must be deterministic"
        );
        assert_eq!(
            one.1.trace.to_text(),
            two.1.trace.to_text(),
            "{bug}: minimized trace must be byte-identical across runs"
        );
        assert_eq!(one.1.sti.calls, two.1.sti.calls);
        assert_eq!(one.1.digest_fnv, two.1.digest_fnv);
        assert_eq!(one.1.stats.replays, two.1.stats.replays);
    }
}

/// The bisector names exactly the switch the oracle-matrix row flips: on a
/// build with *all* switches enabled it must single out the bug's own
/// switch for every minimized reproducer. The one deliberate alias pair
/// (`XskStateBound` and `KnownXskState` model the same real xsk bug and
/// share a crash title) must instead be reported as an ambiguous patch
/// naming both — and resolve to the right culprit once the twin is off the
/// build.
#[test]
fn bisection_names_the_flipped_switch() {
    for bug in all_bugs() {
        let r = record_reproducer(bug).unwrap_or_else(|| panic!("{bug} must record"));
        let min = Triager::new(BugSwitches::only([bug])).minimize(&r);
        // Under the Arm model `READ_ONCE` is not a load barrier, so some
        // fix patches are insufficient by design and the symptom can fire
        // on the fully-fixed build; no patch is nameable then, and the
        // bisector must say so rather than guess.
        if reproduces(&BugSwitches::none(), &r, &min) {
            let (outcome, _) = Triager::new(BugSwitches::all()).bisect(&r, &min);
            match outcome {
                BisectOutcome::Inconclusive(why) => assert!(
                    why.contains("every switch reverted"),
                    "{bug}: expected the unattributable diagnosis, got: {why}"
                ),
                other => panic!("{bug}: fires on the fixed build, yet bisect said {other:?}"),
            }
            continue;
        }
        let twins: Vec<BugId> = BugSwitches::all()
            .iter()
            .filter(|&b| b != bug && b.expected_title() == bug.expected_title())
            .collect();
        let unambiguous =
            BugSwitches::only(BugSwitches::all().iter().filter(|b| !twins.contains(b)));
        let (outcome, probes) = Triager::new(unambiguous).bisect(&r, &min);
        assert_eq!(
            outcome,
            BisectOutcome::Culprit(bug),
            "{bug}: bisection must name the culprit"
        );
        // log2 halving plus the loop checks and the sufficiency probe.
        let n = BugSwitches::all().iter().count() as u64;
        assert!(
            probes <= n.ilog2() as u64 + 4,
            "{bug}: {probes} probes exceeds the log2 budget"
        );
        if !twins.is_empty() {
            // On the full build the patch is ambiguous: the bisector must
            // say so and name every sufficient switch, never pick one.
            let (outcome, _) = Triager::new(BugSwitches::all()).bisect(&r, &min);
            match outcome {
                BisectOutcome::Inconclusive(why) => {
                    assert!(
                        why.contains(&bug.to_string()),
                        "{bug}: ambiguity report must name the bug: {why}"
                    );
                    for t in &twins {
                        assert!(
                            why.contains(&t.to_string()),
                            "{bug}: ambiguity report must name {t}: {why}"
                        );
                    }
                }
                other => panic!("{bug}: title-aliased build must be ambiguous, got {other:?}"),
            }
        }
    }
}

/// On an already-fixed build the bisector reports `Inconclusive` — never a
/// wrong patch. Two shapes: the empty build, and the build where only the
/// culprit has been reverted.
#[test]
fn bisection_is_inconclusive_on_fixed_builds() {
    for bug in [
        BugId::KnownWatchQueuePost,
        BugId::TlsSkProt,
        BugId::ExtRingBuffer,
    ] {
        let r = record_reproducer(bug).unwrap_or_else(|| panic!("{bug} must record"));
        let min = Triager::new(BugSwitches::only([bug])).minimize(&r);

        let (outcome, _) = Triager::new(BugSwitches::none()).bisect(&r, &min);
        assert!(
            matches!(outcome, BisectOutcome::Inconclusive(_)),
            "{bug}: empty build must be inconclusive, got {outcome:?}"
        );

        let patched = BugSwitches::only(BugSwitches::all().iter().filter(|&b| b != bug));
        let (outcome, _) = Triager::new(patched).bisect(&r, &min);
        assert!(
            matches!(outcome, BisectOutcome::Inconclusive(_)),
            "{bug}: culprit-reverted build must be inconclusive, got {outcome:?}"
        );
    }
}
