//! Replay fidelity: every bug a campaign finds must reproduce from its
//! embedded schedule trace alone (ISSUE 5 acceptance).
//!
//! A `FoundBug` carries the recorded schedule of the crashing execution
//! (switch points + engine ordering decisions) plus an FNV fingerprint of
//! the post-run machine-state digest. `reproduce_from_trace` boots a fresh
//! kernel, re-runs the STI setup prefix, and replays the pair slaved to
//! the trace — no Table 2 controls, no breakpoint plan, no hint search.
//! Fidelity means: no divergence, same crash title, byte-identical state
//! digest. Pinned here for two seeds, on pooled and fresh-boot machines.

use kernelsim::BugSwitches;
use kutil::fnv1a64;
use oemu::ScheduleTrace;
use ozz::fuzzer::{FuzzConfig, Fuzzer};
use ozz::repro::{replay_trace, reproduce_from_trace};

fn campaign(seed: u64, budget: u64, reuse_machines: bool) -> Fuzzer {
    let mut f = Fuzzer::new(FuzzConfig {
        seed,
        reuse_machines,
        ..FuzzConfig::default()
    });
    f.run_until(budget, usize::MAX);
    f
}

#[test]
fn every_campaign_crash_replays_to_identical_verdict_and_digest() {
    for seed in [2024, 7] {
        let f = campaign(seed, 400, true);
        assert!(
            !f.found().is_empty(),
            "seed {seed}: the budget finds at least one bug"
        );
        for (title, bug) in f.found() {
            assert!(
                reproduce_from_trace(bug, BugSwitches::all()),
                "seed {seed}: {title} must replay to the same verdict and digest"
            );
        }
    }
}

#[test]
fn fresh_boot_campaign_traces_replay_too() {
    // A fresh-boot campaign records on a new machine per test instead of
    // a pooled one; its traces must be just as replayable.
    let f = campaign(2024, 300, false);
    assert!(!f.found().is_empty());
    for (title, bug) in f.found() {
        assert!(
            reproduce_from_trace(bug, BugSwitches::all()),
            "{title} (fresh-boot arm) must replay"
        );
    }
}

#[test]
fn replay_is_detected_as_unfaithful_on_the_wrong_kernel() {
    // Replaying a buggy-kernel trace on the fixed kernel must not claim
    // fidelity: the fixed kernel executes different code (the patch adds
    // barriers), so the replay diverges or lands on a different state.
    let f = campaign(2024, 400, true);
    let bug = f.found().values().next().expect("campaign found a bug");
    assert!(
        !reproduce_from_trace(bug, BugSwitches::none()),
        "fixed kernel must not validate a buggy-kernel trace"
    );
    let (i, j) = bug.pair_indices;
    let replay = replay_trace(BugSwitches::none(), &bug.sti, i, j, &bug.trace);
    assert!(
        replay.diverged || fnv1a64(replay.digest.as_bytes()) != bug.digest_fnv,
        "the mismatch is visible in the replay report"
    );
}

#[test]
fn traces_roundtrip_through_the_text_format() {
    // Serialization fidelity on real campaign traces, not just synthetic
    // ones: parse(to_text(t)) == t, and the parsed trace still replays.
    let f = campaign(7, 400, true);
    let bug = f.found().values().next().expect("campaign found a bug");
    let text = bug.trace.to_text();
    let parsed = ScheduleTrace::parse(&text).expect("serialized trace parses");
    assert_eq!(parsed, bug.trace, "text roundtrip is lossless");
    let (i, j) = bug.pair_indices;
    let replay = replay_trace(BugSwitches::all(), &bug.sti, i, j, &parsed);
    assert!(!replay.diverged);
    assert!(replay.outcome.crashes.iter().any(|c| c.title == bug.title));
    assert_eq!(fnv1a64(replay.digest.as_bytes()), bug.digest_fnv);
}
