//! Machine pool: zero-boot MTI execution.
//!
//! The paper runs tests *in-vivo* inside long-lived QEMU/KVM VMs — a
//! machine boots once and then executes test after test, with the executor
//! processes reused across programs the way Syzkaller reuses them. This
//! module gives the reproduction the same discipline:
//!
//! - [`PooledMachine`]: a booted [`Kctx`] that runs test after test.
//! - [`MachinePool`]: a shelf of reset machines keyed by [`BugSwitches`].
//!   Checking a machine in rolls it back to its boot snapshot
//!   ([`Kctx::reset`]), so a checkout is always byte-identical to a fresh
//!   boot — verified by the reset-fidelity tests — at a fraction of the
//!   cost.

use std::collections::HashMap;
use std::sync::Arc;

use kutil::sync::Mutex;

use crate::bugs::BugSwitches;
use crate::exec::{execute, ExecReply, ExecRequest};
use crate::kctx::Kctx;
use oemu::MemoryModel;

/// A booted machine, ready to run MTIs without booting anything.
pub struct PooledMachine {
    k: Arc<Kctx>,
}

impl PooledMachine {
    /// Boots a fresh TSO machine.
    pub fn boot(bugs: BugSwitches) -> Self {
        Self::boot_with_model(bugs, MemoryModel::Tso)
    }

    /// Boots a fresh machine emulating the given memory model.
    pub fn boot_with_model(bugs: BugSwitches, model: MemoryModel) -> Self {
        PooledMachine {
            k: Kctx::new_with_model(bugs, model),
        }
    }

    /// The machine itself.
    pub fn kctx(&self) -> &Arc<Kctx> {
        &self.k
    }

    /// Runs one [`ExecRequest`] on this machine — the pooled counterpart
    /// of [`crate::execute`]. Both legs run on the calling thread.
    pub fn execute(&self, req: ExecRequest<'_>) -> ExecReply {
        execute(&self.k, req)
    }
}

/// A shelf of reset machines keyed by their machine identity: the
/// bug-switch set plus the memory model the engine emulates.
///
/// `checkout` pops a previously reset machine (or boots one on a miss);
/// `checkin` resets the machine back to boot state and shelves it. One
/// pool per fuzzer keeps shards contention-free in parallel campaigns.
#[derive(Default)]
pub struct MachinePool {
    shelves: Mutex<HashMap<(BugSwitches, MemoryModel), Vec<PooledMachine>>>,
    boots: Mutex<u64>,
}

impl MachinePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a TSO machine booted with `bugs`, reusing a shelved one
    /// when available. The returned machine is always in exact boot state.
    pub fn checkout(&self, bugs: &BugSwitches) -> PooledMachine {
        self.checkout_with_model(bugs, MemoryModel::Tso)
    }

    /// Checks out a machine booted with `bugs` under `model`. A machine's
    /// model is part of its identity, so a PSO checkout never returns a
    /// shelved TSO machine (and vice versa).
    pub fn checkout_with_model(&self, bugs: &BugSwitches, model: MemoryModel) -> PooledMachine {
        if let Some(m) = self
            .shelves
            .lock()
            .get_mut(&(bugs.clone(), model))
            .and_then(|shelf| shelf.pop())
        {
            return m;
        }
        *self.boots.lock() += 1;
        PooledMachine::boot_with_model(bugs.clone(), model)
    }

    /// Resets `machine` to boot state and shelves it for the next checkout.
    pub fn checkin(&self, machine: PooledMachine) {
        machine.k.reset();
        self.shelves
            .lock()
            .entry((machine.k.switches().clone(), machine.k.memory_model()))
            .or_default()
            .push(machine);
    }

    /// Machines currently shelved (idle), across all switch sets.
    pub fn idle(&self) -> usize {
        self.shelves.lock().values().map(Vec::len).sum()
    }

    /// Machines booted by this pool over its lifetime — the number a
    /// fresh-boot executor would have multiplied by its test count.
    pub fn boots(&self) -> u64 {
        *self.boots.lock()
    }

    /// Restore-path counters summed over every *shelved* machine (a
    /// machine's engine carries them across resets). Call between steps —
    /// while a machine is checked out its counts are not visible here.
    pub fn restore_counters(&self) -> RestoreCounters {
        let shelves = self.shelves.lock();
        let mut total = RestoreCounters::default();
        for m in shelves.values().flatten() {
            let s = m.k.engine.stats();
            total.incremental += s.restores_incremental;
            total.words_replayed += s.restore_words_replayed;
            total.full_fallbacks += s.restore_full_fallbacks;
            total.journal_peak_words = total.journal_peak_words.max(s.journal_peak_words);
        }
        total
    }
}

/// Machine-restore observability rolled up by [`MachinePool::restore_counters`]:
/// how often resets took the incremental undo-journal path versus the full
/// `clone_from` fallback, and how much replay work the journal did.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreCounters {
    /// Restores that rolled back via the undo journal.
    pub incremental: u64,
    /// Memory pre-images replayed by those incremental restores.
    pub words_replayed: u64,
    /// Restores that fell back to the full `clone_from` path.
    pub full_fallbacks: u64,
    /// Deepest memory undo journal observed on any one machine (words),
    /// i.e. the worst-case replay a single restore could have faced.
    pub journal_peak_words: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kctx::ECRASH;
    use ksched::{BreakWhen, Breakpoint, SchedulePlan};
    use oemu::{AccessKind, Tid};

    #[test]
    fn checkout_checkin_reuses_the_same_machine() {
        let pool = MachinePool::new();
        let bugs = BugSwitches::all();
        let m = pool.checkout(&bugs);
        let first = Arc::as_ptr(m.kctx());
        pool.checkin(m);
        assert_eq!(pool.idle(), 1);
        let m = pool.checkout(&bugs);
        assert_eq!(Arc::as_ptr(m.kctx()), first, "shelved machine reused");
        assert_eq!(pool.boots(), 1, "one boot serves both checkouts");
        // A different switch set gets its own machine.
        let other = pool.checkout(&BugSwitches::none());
        assert_ne!(Arc::as_ptr(other.kctx()), first);
        assert_eq!(pool.boots(), 2);
    }

    #[test]
    fn shelves_are_keyed_by_memory_model_too() {
        let pool = MachinePool::new();
        let bugs = BugSwitches::all();
        let tso = pool.checkout(&bugs);
        let tso_ptr = Arc::as_ptr(tso.kctx());
        pool.checkin(tso);
        // Same switches, different model: the shelved TSO machine must not
        // be handed out.
        let pso = pool.checkout_with_model(&bugs, MemoryModel::Pso);
        assert_ne!(Arc::as_ptr(pso.kctx()), tso_ptr);
        assert_eq!(pso.kctx().memory_model(), MemoryModel::Pso);
        assert_eq!(pool.boots(), 2);
        pool.checkin(pso);
        assert_eq!(pool.idle(), 2);
        // Each checkout finds its own shelf again.
        let tso = pool.checkout(&bugs);
        assert_eq!(Arc::as_ptr(tso.kctx()), tso_ptr);
        assert_eq!(tso.kctx().memory_model(), MemoryModel::Tso);
        assert_eq!(pool.boots(), 2, "both shelves were reused");
    }

    #[test]
    fn pooled_run_matches_fresh_run() {
        // The Figure 5a store-barrier forcing of the exec tests, executed
        // once on a freshly booted machine and once on a pooled one: same
        // crash title, same return values.
        let profile = {
            let k = Kctx::new(BugSwitches::all());
            k.engine.set_profiling(true);
            crate::exec::run_one(&k, Tid(0), crate::Syscall::WqPost);
            let p = k.engine.take_profile(Tid(0));
            k.engine.set_profiling(false);
            p
        };
        let stores: Vec<_> = profile
            .accesses()
            .filter(|a| a.kind == AccessKind::Store)
            .collect();
        let (last, rest) = stores.split_last().expect("writer has stores");
        let plan = || SchedulePlan {
            first: Tid(0),
            breakpoint: Some(Breakpoint {
                iid: last.iid,
                when: BreakWhen::After,
                hit: 1,
            }),
        };

        let k = Kctx::new(BugSwitches::all());
        for a in rest {
            k.engine.delay_store_at(Tid(0), a.iid);
        }
        let fresh = execute(
            &k,
            ExecRequest::live(plan(), crate::Syscall::WqPost, crate::Syscall::PipeRead),
        )
        .outcome;

        let pool = MachinePool::new();
        let m = pool.checkout(&BugSwitches::all());
        for a in rest {
            m.kctx().engine.delay_store_at(Tid(0), a.iid);
        }
        let pooled = m
            .execute(ExecRequest::live(
                plan(),
                crate::Syscall::WqPost,
                crate::Syscall::PipeRead,
            ))
            .outcome;

        assert_eq!(fresh.title(), pooled.title());
        assert_eq!(fresh.title().unwrap(), pooled.title().unwrap());
        assert_eq!((fresh.ret_a, fresh.ret_b), (pooled.ret_a, pooled.ret_b));
        assert_eq!(pooled.ret_b, ECRASH);
    }

    #[test]
    fn checked_in_machine_runs_again() {
        let pool = MachinePool::new();
        let bugs = BugSwitches::all();
        let mut m = pool.checkout(&bugs);
        for _ in 0..3 {
            let out = m
                .execute(ExecRequest::live(
                    SchedulePlan::sequential(Tid(0)),
                    crate::Syscall::WqPost,
                    crate::Syscall::PipeRead,
                ))
                .outcome;
            assert!(!out.crashed(), "in-order run is benign: {out:?}");
            pool.checkin(m);
            m = pool.checkout(&bugs);
        }
        assert_eq!(pool.boots(), 1);
    }
}
