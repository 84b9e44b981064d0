//! Multi-threaded inputs: construction and execution (§4.4).
//!
//! An MTI is an STI plus an annotation: which two syscalls run concurrently
//! and under which scheduling hint. Executing an MTI is the paper's Figure
//! 5 choreography:
//!
//! - **Store barrier test** (Figure 5a): the reorderer starts first with
//!   its hinted stores delayed; the breakpoint fires *after* the scheduling
//!   point (the store past the hypothetical barrier has committed, the
//!   delayed ones have not); the other CPU runs and is observed by the
//!   oracles; the reorderer then finishes.
//! - **Load barrier test** (Figure 5b): the reorderer starts first and
//!   breaks *before* the scheduling point; the other CPU runs to completion
//!   (constructing the store history); the reorderer resumes with its
//!   hinted loads versioned, reading old values within its window.

use std::sync::Arc;

use kernelsim::{
    execute, run_one, BugSwitches, ExecRequest, Kctx, PooledMachine, ReplayReport, RunOutcome,
    Syscall,
};
use ksched::{BreakWhen, Breakpoint, SchedulePlan};
use oemu::{ScheduleTrace, Tid};

use crate::hints::{HintKind, PairSide, SchedHint};
use crate::sti::Sti;

/// A multi-threaded input: an STI with a concurrency annotation.
///
/// The STI is shared (`Arc`): [`build_mtis`] emits one MTI per hint, and
/// every hint of an STI annotates the *same* syscall sequence — cloning it
/// per hint would deep-copy the call vector `pairs × hints` times.
#[derive(Clone, Debug)]
pub struct Mti {
    /// The underlying syscall sequence.
    pub sti: Arc<Sti>,
    /// Index of the first syscall of the concurrent pair.
    pub i: usize,
    /// Index of the second syscall of the concurrent pair (`i < j`).
    pub j: usize,
    /// The scheduling hint to enforce.
    pub hint: SchedHint,
}

impl Mti {
    /// The two concurrent syscalls.
    pub fn pair(&self) -> (Syscall, Syscall) {
        (self.sti.calls[self.i], self.sti.calls[self.j])
    }

    /// Executes the MTI on a freshly booted kernel with the given bug
    /// switches, returning the run outcome.
    ///
    /// Setup (every syscall before `j` except `i`) runs single-threaded
    /// first — establishing the kernel state the pair raced in — then the
    /// pair runs concurrently under the hint.
    pub fn run(&self, bugs: BugSwitches) -> RunOutcome {
        let k = Kctx::new(bugs);
        self.run_on(&k)
    }

    /// Executes the MTI on an existing machine (used by the throughput
    /// benchmark to measure pure execution cost).
    pub fn run_on(&self, k: &Arc<Kctx>) -> RunOutcome {
        self.run_setup(k);
        self.install_controls(k);
        let (a, b) = self.pair();
        execute(k, ExecRequest::live(self.plan(), a, b)).outcome
    }

    /// Runs the single-threaded setup prefix (every syscall before `j`
    /// except `i`) on `k`. All MTIs of one pair `(i, j)` share this prefix,
    /// so a pooled executor runs it once per pair and snapshots the machine
    /// instead of re-running it per hint.
    pub fn run_setup(&self, k: &Arc<Kctx>) {
        run_setup_prefix(k, &self.sti.calls, self.i, self.j);
    }

    /// Installs the Table 2 reordering instructions for the reorderer.
    /// Public so the model checker can reuse exactly the fuzzer's control
    /// installation for its enumerated schedules.
    pub fn install_controls(&self, k: &Kctx) {
        let reorder_tid = self.reorder_tid();
        for acc in &self.hint.reorder {
            match self.hint.kind {
                HintKind::StoreBarrier => k.engine.delay_store_at(reorder_tid, acc.iid),
                HintKind::LoadBarrier => k.engine.read_old_value_at(reorder_tid, acc.iid),
            }
        }
    }

    fn reorder_tid(&self) -> Tid {
        match self.hint.reorderer {
            PairSide::First => Tid(0),
            PairSide::Second => Tid(1),
        }
    }

    /// The schedule enforcing the hint: the reorderer always starts first;
    /// the breakpoint semantics depend on the test type (Figure 5a vs 5b).
    /// Public so record-mode executors can hand the same plan to a
    /// [`kernelsim::ExecRequest::recorded`] request.
    pub fn plan(&self) -> SchedulePlan {
        SchedulePlan {
            first: self.reorder_tid(),
            breakpoint: Some(Breakpoint {
                iid: self.hint.sched.iid,
                when: match self.hint.kind {
                    HintKind::StoreBarrier => BreakWhen::After,
                    HintKind::LoadBarrier => BreakWhen::Before,
                },
                hit: self.hint.sched_hit,
            }),
        }
    }

    /// Runs the concurrent pair on a pooled machine. The caller has
    /// already established the setup state (via [`Mti::run_setup`] or a
    /// snapshot restore); this installs the reordering controls and runs
    /// the Figure 5 choreography.
    pub fn run_pair_pooled(&self, m: &PooledMachine) -> RunOutcome {
        self.install_controls(m.kctx());
        let (a, b) = self.pair();
        m.execute(ExecRequest::live(self.plan(), a, b)).outcome
    }

    /// [`Mti::run`] in record mode: a freshly booted machine executes the
    /// MTI while the engine and scheduler log every ordering decision; the
    /// returned [`RecordedRun`] carries the trace and the machine's
    /// post-run state digest so a later replay can be checked against both.
    pub fn run_recorded(&self, bugs: BugSwitches) -> RecordedRun {
        let k = Kctx::new(bugs);
        self.run_recorded_on(&k)
    }

    /// [`Mti::run_recorded`] on an existing machine (the fuzzer's
    /// fresh-boot path boots its own under the campaign's memory model).
    pub fn run_recorded_on(&self, k: &Arc<Kctx>) -> RecordedRun {
        self.run_setup(k);
        self.install_controls(k);
        let (a, b) = self.pair();
        let (outcome, trace) = execute(k, ExecRequest::recorded(self.plan(), a, b)).into_recorded();
        RecordedRun {
            digest: k.state_digest(),
            outcome,
            trace,
        }
    }

    /// [`Mti::run_pair_pooled`] in record mode. As with the plain variant,
    /// the caller has already established the setup state.
    pub fn run_pair_pooled_recorded(&self, m: &PooledMachine) -> RecordedRun {
        self.install_controls(m.kctx());
        let (a, b) = self.pair();
        let (outcome, trace) = m
            .execute(ExecRequest::recorded(self.plan(), a, b))
            .into_recorded();
        RecordedRun {
            digest: m.kctx().state_digest(),
            outcome,
            trace,
        }
    }

    /// Replays a recorded trace of this MTI on a freshly booted machine —
    /// no Table 2 controls, no breakpoint plan; the trace alone dictates
    /// delays, versioned reads, and the interleaving. The machine boots
    /// under the trace's recorded memory model, so a trace captured on a
    /// PSO or Arm machine replays against the same semantics. Returns the
    /// outcome, the post-run digest, and the replay fidelity report.
    pub fn run_replayed(&self, bugs: BugSwitches, trace: &ScheduleTrace) -> ReplayedRun {
        let k = Kctx::new_with_model(bugs, trace.model);
        self.run_setup(&k);
        let (a, b) = self.pair();
        let (outcome, report) = execute(&k, ExecRequest::replay(trace, a, b)).into_replayed();
        ReplayedRun {
            digest: k.state_digest(),
            outcome,
            report,
        }
    }
}

/// Outcome of a record-mode MTI execution ([`Mti::run_recorded`]).
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// The run outcome — identical to what the un-recorded run returns.
    pub outcome: RunOutcome,
    /// The schedule trace: enough to reproduce the run without controls.
    pub trace: ScheduleTrace,
    /// [`Kctx::state_digest`] after the run (controls cleared, buffers
    /// drained): the replay fidelity target.
    pub digest: String,
}

/// Outcome of a replay-mode MTI execution ([`Mti::run_replayed`]).
#[derive(Clone, Debug)]
pub struct ReplayedRun {
    /// The replayed run's outcome.
    pub outcome: RunOutcome,
    /// Post-run state digest, to compare against the recording's.
    pub digest: String,
    /// Whether the replay followed the trace to the end without divergence.
    pub report: ReplayReport,
}

/// Runs the single-threaded setup prefix of a concurrent pair `(i, j)`:
/// every call before `j` except `i`, on CPU 0. This is *the* definition of
/// the kernel state a pair races in — [`Mti::run_setup`], trace replay
/// ([`crate::repro::replay_trace`]) and trace minimization
/// (`ozz::triage`) all establish it through this one function.
pub fn run_setup_prefix(k: &Arc<Kctx>, calls: &[Syscall], i: usize, j: usize) {
    for (idx, &call) in calls.iter().enumerate().take(j) {
        if idx != i {
            run_one(k, Tid(0), call);
        }
    }
}

/// Builds the MTIs for one STI: every ordered pair `(i, j)` annotated with
/// each of its scheduling hints, hint-priority order preserved within a
/// pair.
pub fn build_mtis(
    sti: &Sti,
    hints_for_pair: impl Fn(usize, usize) -> Vec<SchedHint>,
    max_hints_per_pair: usize,
) -> Vec<Mti> {
    let shared = Arc::new(sti.clone());
    let mut mtis = Vec::new();
    for i in 0..sti.calls.len() {
        for j in (i + 1)..sti.calls.len() {
            for hint in hints_for_pair(i, j).into_iter().take(max_hints_per_pair) {
                mtis.push(Mti {
                    sti: Arc::clone(&shared),
                    i,
                    j,
                    hint,
                });
            }
        }
    }
    mtis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile_sti;
    use kernelsim::BugId;

    #[test]
    fn figure1_bug_found_via_mti_pipeline() {
        // End-to-end: profile the STI, compute hints for the (post, read)
        // pair, and run MTIs in priority order — the Figure 1 bug must be
        // found by one of the top hints.
        let bugs = BugSwitches::only([BugId::KnownWatchQueuePost]);
        let sti = Sti {
            calls: vec![Syscall::WqPost, Syscall::PipeRead],
        };
        let traces = profile_sti(&sti, bugs.clone());
        let hints = crate::hints::calc_hints(&traces[0].events, &traces[1].events);
        assert!(!hints.is_empty(), "the pair shares the ring buffer");
        let mut found = None;
        for (rank, hint) in hints.iter().enumerate() {
            let mti = Mti {
                sti: Arc::new(sti.clone()),
                i: 0,
                j: 1,
                hint: hint.clone(),
            };
            let out = mti.run(bugs.clone());
            if out.crashed() {
                found = Some((rank, out.title().unwrap().to_string()));
                break;
            }
        }
        let (rank, title) = found.expect("the hint list must expose Figure 1");
        assert_eq!(
            title,
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
        assert!(rank < 4, "an early (large-reorder) hint triggers it");
    }

    #[test]
    fn fixed_kernel_survives_every_hint() {
        let bugs = BugSwitches::none();
        let sti = Sti {
            calls: vec![Syscall::WqPost, Syscall::PipeRead],
        };
        let traces = profile_sti(&sti, bugs.clone());
        let hints = crate::hints::calc_hints(&traces[0].events, &traces[1].events);
        for hint in hints {
            let mti = Mti {
                sti: Arc::new(sti.clone()),
                i: 0,
                j: 1,
                hint,
            };
            let out = mti.run(bugs.clone());
            assert!(!out.crashed(), "patched kernel survives: {out:?}");
        }
    }

    #[test]
    fn build_mtis_respects_cap_and_order() {
        let sti = Sti {
            calls: vec![Syscall::WqPost, Syscall::PipeRead, Syscall::WqPost],
        };
        let bugs = BugSwitches::all();
        let traces = profile_sti(&sti, bugs);
        let mtis = build_mtis(
            &sti,
            |i, j| crate::hints::calc_hints(&traces[i].events, &traces[j].events),
            2,
        );
        // 3 pairs, at most 2 hints each.
        assert!(mtis.len() <= 6);
        assert!(mtis.iter().all(|m| m.i < m.j));
    }

    #[test]
    fn setup_runs_everything_before_j_except_i() {
        // Pair (TlsInit, SetSockOpt) with a preceding unrelated call: the
        // preceding call must run as setup so the machine state matches.
        let bugs = BugSwitches::none();
        let sti = Sti {
            calls: vec![
                Syscall::VmciQpCreate,
                Syscall::TlsInit { fd: 0 },
                Syscall::SetSockOpt { fd: 0 },
            ],
        };
        let traces = profile_sti(&sti, bugs.clone());
        let hints = crate::hints::calc_hints(&traces[1].events, &traces[2].events);
        let mti = Mti {
            sti: Arc::new(sti.clone()),
            i: 1,
            j: 2,
            hint: hints.into_iter().next().expect("tls pair shares state"),
        };
        let out = mti.run(bugs);
        assert!(!out.crashed());
        assert_eq!(out.ret_a, 0, "tls_init ran in the pair, not in setup");
    }
}
