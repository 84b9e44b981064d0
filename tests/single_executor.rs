//! One executor: the properties the single-threaded pair executor rests on.
//!
//! A pair run is two syscall legs driven by `ksched::StepScheduler`: the
//! first leg runs on the calling thread, and when the single breakpoint
//! fires the peer leg runs to completion as a nested call. These tests pin
//! that choreography and its consequences end to end: recorded traces fit
//! the parser's pair grammar (at most one `switch`, thread ids 0 and 1),
//! traces outside it are rejected before replay can see them, recording
//! and replay on a pooled machine match a fresh boot, and bounded
//! exploration is a pure function of its inputs.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use kernelsim::{run_concurrent_closures, BugId, BugSwitches, ExecRequest, Kctx, MachinePool};
use ksched::{BreakWhen, Breakpoint, SchedulePlan};
use modelcheck::{explore_pair, Bound};
use oemu::{iid, ScheduleTrace, Tid};
use ozz::hints::calc_hints;
use ozz::mti::{build_mtis, Mti, RecordedRun};
use ozz::profile_sti;
use ozz::sti::{directed_bug_sti, Sti};

/// One bug per reorder flavour: the golden-trace trio.
const CORPUS: [BugId; 3] = [
    BugId::TlsSkProt,
    BugId::RdsClearBit,
    BugId::KnownWatchQueuePost,
];

fn directed_mtis(bugs: BugSwitches, sti: &Sti) -> Vec<Mti> {
    let traces = profile_sti(sti, bugs);
    build_mtis(
        sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        32,
    )
}

fn crashes_with(rec: &RecordedRun, bug: BugId) -> bool {
    rec.outcome
        .crashes
        .iter()
        .any(|c| c.title == bug.expected_title())
}

#[test]
fn pair_legs_run_nested_on_the_calling_thread() {
    // Break after CPU 0's write: CPU 1's leg must run to completion inside
    // CPU 0's leg, between the write and the rest of it, and neither leg
    // may leave the caller's OS thread.
    let k = Kctx::new(BugSwitches::none());
    let x = k.kzalloc(8, "x");
    let brk = iid!();
    let plan = SchedulePlan {
        first: Tid(0),
        breakpoint: Some(Breakpoint {
            iid: brk,
            when: BreakWhen::After,
            hit: 1,
        }),
    };
    let caller = std::thread::current().id();
    let log = Arc::new(Mutex::new(Vec::new()));
    let (log_a, log_b) = (log.clone(), log.clone());
    let out = run_concurrent_closures(
        &k,
        plan,
        move |k| {
            let _f = k.enter(Tid(0), "writer");
            log_a.lock().unwrap().push("a: before write");
            k.write(Tid(0), brk, x, 1);
            log_a.lock().unwrap().push("a: after write");
            (std::thread::current().id() == caller) as i64
        },
        move |k| {
            let _f = k.enter(Tid(1), "reader");
            log_b.lock().unwrap().push("b");
            k.read(Tid(1), iid!(), x);
            (std::thread::current().id() == caller) as i64
        },
    );
    assert!(!out.crashed());
    assert_eq!(out.ret_a, 1, "leg a left the calling thread");
    assert_eq!(out.ret_b, 1, "leg b left the calling thread");
    assert_eq!(
        *log.lock().unwrap(),
        ["a: before write", "b", "a: after write"],
        "the peer leg must run nested at the breakpoint"
    );
}

#[test]
fn recorded_traces_fit_the_replay_grammar() {
    let mut switched = false;
    for bug in CORPUS {
        let sti = directed_bug_sti(bug);
        let bugs = BugSwitches::only([bug]);
        let mut crashed = false;
        for mti in &directed_mtis(bugs.clone(), &sti) {
            let rec = mti.run_recorded(bugs.clone());
            let t = &rec.trace;
            let at = format!("{bug}: pair ({},{})", mti.i, mti.j);
            assert!(t.switches.len() <= 1, "{at}: more than one handoff");
            assert!(t.first.0 < 2, "{at}: first thread out of the pair");
            for s in &t.switches {
                assert!(s.tid.0 < 2 && s.to.0 < 2, "{at}: switch {s:?}");
            }
            for step in &t.steps {
                assert!(step.tid().0 < 2, "{at}: step {step:?}");
            }
            let parsed = ScheduleTrace::parse(&t.to_text())
                .unwrap_or_else(|e| panic!("{at}: recorded trace rejected: {e}"));
            assert_eq!(&parsed, t, "{at}: trace did not round-trip");
            switched |= !t.switches.is_empty();
            crashed |= crashes_with(&rec, bug);
        }
        assert!(crashed, "{bug}: directed sweep never crashed — vacuous");
    }
    assert!(switched, "no recording ever handed off — vacuous");
}

fn golden_traces() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read golden");
            let (_, trace) = text
                .split_once("--- trace ---")
                .expect("golden trace separator");
            (p.display().to_string(), trace.to_string())
        })
        .collect();
    out.sort();
    out
}

/// `text` with its `switch` lines replaced by `switches`, placed right
/// after the `first` line.
fn with_switches(text: &str, switches: &[&str]) -> String {
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().starts_with("switch ")) {
        out.push(line.to_string());
        if line.trim().starts_with("first ") {
            out.extend(switches.iter().map(|s| s.to_string()));
        }
    }
    out.join("\n")
}

/// `text` with the thread id of its first line whose keyword is one of
/// `kinds` rewritten to 2, one past the pair's two legs.
fn on_thread_2(text: &str, kinds: &[&str]) -> String {
    let mut done = false;
    let out: Vec<String> = text
        .lines()
        .map(|l| {
            let mut fields: Vec<&str> = l.split_whitespace().collect();
            if !done && fields.len() > 1 && kinds.contains(&fields[0]) {
                done = true;
                fields[1] = "2";
                fields.join(" ")
            } else {
                l.to_string()
            }
        })
        .collect();
    assert!(done, "no {kinds:?} line to rewrite");
    out.join("\n")
}

#[test]
fn traces_outside_the_pair_grammar_are_rejected_at_parse() {
    let goldens = golden_traces();
    assert_eq!(goldens.len(), 6, "expected the six golden traces");
    for (path, text) in &goldens {
        ScheduleTrace::parse(text).unwrap_or_else(|e| panic!("{path}: golden rejected: {e}"));
        // The rewriting itself keeps a trace well formed: only the thread
        // ids and the switch count below make it unreplayable.
        ScheduleTrace::parse(&with_switches(text, &["switch 0 1 1"]))
            .unwrap_or_else(|e| panic!("{path}: one in-pair switch rejected: {e}"));
        let bad = [
            (
                "two switches",
                with_switches(text, &["switch 0 1 1", "switch 1 1 0"]),
            ),
            ("thread 2 first", on_thread_2(text, &["first"])),
            ("switch to thread 2", with_switches(text, &["switch 0 1 2"])),
            (
                "switch from thread 2",
                with_switches(text, &["switch 2 1 0"]),
            ),
            (
                "a step on thread 2",
                on_thread_2(text, &["store", "load", "rmw", "barrier", "flush"]),
            ),
        ];
        for (what, mutated) in bad {
            assert!(
                ScheduleTrace::parse(&mutated).is_err(),
                "{path}: a trace with {what} parsed"
            );
        }
    }
}

#[test]
fn pooled_recording_matches_a_fresh_boot() {
    let pool = MachinePool::new();
    for bug in CORPUS {
        let sti = directed_bug_sti(bug);
        let bugs = BugSwitches::only([bug]);
        let m = pool.checkout(&bugs);
        let mut crashed = false;
        for mti in &directed_mtis(bugs.clone(), &sti) {
            let fresh = mti.run_recorded(bugs.clone());
            m.kctx().reset();
            mti.run_setup(m.kctx());
            let pooled = mti.run_pair_pooled_recorded(&m);
            let at = format!("{bug}: pair ({},{})", mti.i, mti.j);
            assert_eq!(
                pooled.trace.to_text(),
                fresh.trace.to_text(),
                "{at}: schedules diverged"
            );
            assert_eq!(
                format!("{:?}", pooled.outcome),
                format!("{:?}", fresh.outcome),
                "{at}: outcomes diverged"
            );
            assert_eq!(pooled.digest, fresh.digest, "{at}: states diverged");
            crashed |= crashes_with(&fresh, bug);
        }
        assert!(crashed, "{bug}: directed sweep never crashed — vacuous");
        pool.checkin(m);
    }
}

#[test]
fn replay_on_pooled_and_fresh_machines_reaches_the_recorded_state() {
    let pool = MachinePool::new();
    for bug in CORPUS {
        let sti = directed_bug_sti(bug);
        let bugs = BugSwitches::only([bug]);
        let mtis = directed_mtis(bugs.clone(), &sti);
        let (mti, rec) = mtis
            .iter()
            .find_map(|mti| {
                let rec = mti.run_recorded(bugs.clone());
                crashes_with(&rec, bug).then_some((mti, rec))
            })
            .expect("directed sweep finds a crashing schedule");

        let fresh = mti.run_replayed(bugs.clone(), &rec.trace);
        let m = pool.checkout(&bugs);
        m.kctx().reset();
        mti.run_setup(m.kctx());
        let (a, b) = mti.pair();
        let (outcome, report) = m
            .execute(ExecRequest::replay(&rec.trace, a, b))
            .into_replayed();
        assert_eq!(
            (format!("{outcome:?}"), format!("{report:?}")),
            (
                format!("{:?}", fresh.outcome),
                format!("{:?}", fresh.report)
            ),
            "{bug}: pooled and fresh replays diverged"
        );
        assert_eq!(fresh.digest, rec.digest, "{bug}: fresh replay drifted");
        assert_eq!(
            m.kctx().state_digest(),
            rec.digest,
            "{bug}: pooled replay drifted"
        );
        assert_eq!(
            format!("{outcome:?}"),
            format!("{:?}", rec.outcome),
            "{bug}: replay outcome differs from the recording"
        );
        pool.checkin(m);
    }
}

#[test]
fn bounded_exploration_is_a_pure_function_of_its_inputs() {
    let bugs = BugSwitches::only([BugId::KnownWatchQueuePost]);
    let sti = directed_bug_sti(BugId::KnownWatchQueuePost);
    let bound = Bound {
        max_schedules: 64,
        ..Bound::default()
    };
    let mut any_crash = false;
    for j in 1..sti.calls.len() {
        for i in 0..j {
            let first = explore_pair(&bugs, &sti, i, j, &bound);
            let again = explore_pair(&bugs, &sti, i, j, &bound);
            assert_eq!(
                format!("{first:#?}"),
                format!("{again:#?}"),
                "pair ({i},{j}): explorations diverged"
            );
            any_crash |= !first.crash_titles().is_empty();
        }
    }
    assert!(any_crash, "bounded exploration never crashed — vacuous");
}
