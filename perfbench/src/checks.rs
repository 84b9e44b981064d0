//! The correctness checks behind `failed`, one per workload.
//!
//! Each check compares what a run produced against what the build must
//! produce. They are plain functions of the run's outputs, so the tests
//! below can hand them a wrong expectation and watch them trip.

use std::collections::BTreeSet;

use kernelsim::{BugId, BugSwitches, MemoryModel};
use ozz::triage::BisectOutcome;

use crate::traced::CampaignOutputs;

/// Titles a seeded bug raises at a second site, with the bug. The
/// `ExtBufferDoubleFree` double free can be caught in `bh_replace` instead
/// of `bh_evict`; `WatchQueueFilter`'s `pipe_read` can commit `ops` while
/// `len` is still delayed and trip the length check instead of the NULL
/// `ops`.
pub const SECOND_SITES: [(&str, BugId); 2] = [
    (
        "KASAN: double-free in bh_replace",
        BugId::ExtBufferDoubleFree,
    ),
    (
        "kernel BUG at pipe_read: uninitialised pipe_buffer length",
        BugId::WatchQueueFilter,
    ),
];

/// Crash titles the build's enabled bugs are expected to raise: each
/// bug's `expected_title`, and its second-site titles.
pub fn expected_titles(bugs: &BugSwitches) -> BTreeSet<&'static str> {
    let second = SECOND_SITES
        .iter()
        .filter(|(_, bug)| bugs.has(*bug))
        .map(|(title, _)| *title);
    bugs.iter()
        .map(BugId::expected_title)
        .chain(second)
        .collect()
}

/// `steady`: crash titles outside `expected`, each one a failure.
pub fn unexpected_titles<'a>(
    found: impl IntoIterator<Item = &'a str>,
    expected: &BTreeSet<&str>,
) -> Vec<&'a str> {
    found
        .into_iter()
        .filter(|t| !expected.contains(t))
        .collect()
}

/// `discover`: the expected titles a finished campaign did not find.
pub fn missing_titles<'a>(out: &CampaignOutputs, expected: &'a [String]) -> Vec<&'a str> {
    expected
        .iter()
        .filter(|t| !out.found.iter().any(|f| &f.title == *t))
        .map(String::as_str)
        .collect()
}

/// `patched_pso`: the paper's no-false-positive property — a patched build
/// raises no crash report at all.
pub fn no_crash_reports(out: &CampaignOutputs) -> Result<(), String> {
    match out.crashes_total {
        0 => Ok(()),
        n => Err(format!(
            "{n} crash report(s) on the patched build: {:?}",
            out.found.iter().map(|f| &f.title).collect::<Vec<_>>()
        )),
    }
}

/// How the minimized reproducer fared on an independent replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayCheck {
    pub diverged: bool,
    pub verdict_holds: bool,
    pub digest_fnv: u64,
}

/// `triage`: the minimized trace replays without divergence, keeps its
/// verdict and lands on the digest minimization recorded; under TSO the
/// bisection names the bug itself.
pub fn triage_ok(
    bug: BugId,
    model: MemoryModel,
    replay: ReplayCheck,
    min_digest_fnv: u64,
    bisect: &BisectOutcome,
) -> Result<(), String> {
    if replay.diverged {
        return Err(format!("{bug}: minimized trace diverges on replay"));
    }
    if !replay.verdict_holds {
        return Err(format!("{bug}: minimized trace lost its verdict"));
    }
    if replay.digest_fnv != min_digest_fnv {
        return Err(format!(
            "{bug}: replay digest {:016x} != minimized {min_digest_fnv:016x}",
            replay.digest_fnv
        ));
    }
    if model == MemoryModel::Tso && *bisect != BisectOutcome::Culprit(bug) {
        return Err(format!("{bug}: bisect said {bisect:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traced::FoundRecord;

    fn outputs(titles: &[&str], crashes_total: u64) -> CampaignOutputs {
        CampaignOutputs {
            mtis_run: 10,
            crashes_total,
            coverage: 1,
            found: titles
                .iter()
                .map(|t| FoundRecord {
                    title: t.to_string(),
                    tests_to_find: 1,
                    hint_rank: 0,
                    digest_fnv: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn steady_trips_on_a_title_outside_the_build() {
        let one = BugSwitches::only([BugId::KnownVlan]);
        let vlan = BugId::KnownVlan.expected_title();
        let fget = BugId::KnownFget.expected_title();
        assert!(unexpected_titles([vlan], &expected_titles(&one)).is_empty());
        // Wrong expectation: the build is thought to hold only vlan.
        assert_eq!(
            unexpected_titles([vlan, fget], &expected_titles(&one)),
            vec![fget]
        );
    }

    #[test]
    fn steady_allows_a_second_site_only_with_its_bug() {
        let (title, bug) = SECOND_SITES[0];
        let with = BugSwitches::only([bug]);
        assert!(unexpected_titles([title], &expected_titles(&with)).is_empty());
        // Wrong expectation: the second site's bug is not in the build.
        let without = BugSwitches::only(BugSwitches::all().iter().filter(|&b| b != bug));
        assert_eq!(
            unexpected_titles([title], &expected_titles(&without)),
            vec![title]
        );
        // A title on no list fails on the all-bugs build too.
        let all = expected_titles(&BugSwitches::all());
        assert_eq!(
            unexpected_titles(["KASAN: double-free in bh_other"], &all),
            vec!["KASAN: double-free in bh_other"]
        );
    }

    #[test]
    fn discover_trips_on_a_title_the_campaign_cannot_find() {
        let out = outputs(&["a", "b"], 2);
        assert!(missing_titles(&out, &["a".into(), "b".into()]).is_empty());
        assert_eq!(missing_titles(&out, &["a".into(), "x".into()]), vec!["x"]);
    }

    #[test]
    fn patched_pso_trips_on_any_crash_report() {
        assert!(no_crash_reports(&outputs(&[], 0)).is_ok());
        assert!(no_crash_reports(&outputs(&["a"], 1)).is_err());
    }

    #[test]
    fn triage_trips_on_divergence_lost_verdict_digest_or_wrong_culprit() {
        let bug = BugId::KnownVlan;
        let good = ReplayCheck {
            diverged: false,
            verdict_holds: true,
            digest_fnv: 7,
        };
        let culprit = BisectOutcome::Culprit(bug);
        let tso = MemoryModel::Tso;
        assert!(triage_ok(bug, tso, good, 7, &culprit).is_ok());
        let diverged = ReplayCheck {
            diverged: true,
            ..good
        };
        assert!(triage_ok(bug, tso, diverged, 7, &culprit).is_err());
        let lost = ReplayCheck {
            verdict_holds: false,
            ..good
        };
        assert!(triage_ok(bug, tso, lost, 7, &culprit).is_err());
        assert!(triage_ok(bug, tso, good, 8, &culprit).is_err());
        // Wrong expectation: the culprit is thought to be another bug.
        let other = BisectOutcome::Culprit(BugId::KnownFget);
        assert!(triage_ok(bug, tso, good, 7, &other).is_err());
        let vague = BisectOutcome::Inconclusive("ambiguous".into());
        assert!(triage_ok(bug, tso, good, 7, &vague).is_err());
        assert!(triage_ok(bug, MemoryModel::Arm, good, 7, &vague).is_ok());
    }
}
