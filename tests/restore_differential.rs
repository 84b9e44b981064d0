//! Differential pin for machine restore: restore == fresh boot.
//!
//! A restore has two outcomes: it rolls back through the undo journal, or
//! it falls back to copying the snapshot (`clone_from`). Either way the
//! contract is the in-vivo one: the restored machine must be
//! byte-identical to a machine booted fresh that ran exactly the MTIs
//! executed before the snapshot — for any workload and any memory model.
//! Every restore below is compared by [`Kctx::state_digest`] against such
//! a fresh boot.
//!
//! The cells cover randomized MTI batches, nested snapshots with repeat
//! restores, a `zero_range` alloc/free storm, and the two ways the
//! fallback is reached in practice: restoring a snapshot onto *another*
//! machine, and nesting snapshots past the journal's frame cap
//! ([`kutil::MAX_FRAMES`]). Counter assertions ride along: the journal
//! cells take zero full-restore fallbacks, each fallback cell exactly one.
//!
//! [`Kctx::state_digest`]: kernelsim::Kctx::state_digest

use std::sync::Arc;

use kernelsim::{BugId, BugSwitches, Kctx, MemoryModel, PooledMachine};
use kutil::DetRng;
use oemu::{Iid, Tid};
use ozz::hints::calc_hints;
use ozz::mti::{build_mtis, Mti};
use ozz::profile_sti_on;
use ozz::sti::known_bug_sti;

/// Builds a deterministic MTI corpus for `bug` by profiling on `k`.
/// Profiling mutates the machine, so callers reset before comparing.
fn corpus(bug: BugId, k: &Arc<Kctx>, cap: usize) -> Vec<Mti> {
    let sti = known_bug_sti(bug).expect("table-4 sti");
    let traces = profile_sti_on(k, &sti);
    build_mtis(
        &sti,
        |i, j| calc_hints(&traces[i].events, &traces[j].events),
        cap,
    )
}

/// Boots a machine and its MTI corpus; the machine is reset to boot state.
fn setup(model: MemoryModel, cap: usize) -> (PooledMachine, Vec<Mti>) {
    let m = PooledMachine::boot_with_model(BugSwitches::all(), model);
    let mtis = corpus(BugId::KnownWatchQueuePost, m.kctx(), cap);
    m.kctx().reset();
    (m, mtis)
}

/// Runs one MTI (setup prefix + reordered pair) on `m`.
fn run(m: &PooledMachine, mti: &Mti) {
    mti.run_setup(m.kctx());
    mti.run_pair_pooled(m);
}

/// The oracle: a freshly booted machine that ran exactly `ran`, in order.
fn fresh(model: MemoryModel, mtis: &[Mti], ran: &[usize]) -> String {
    let m = PooledMachine::boot_with_model(BugSwitches::all(), model);
    for &i in ran {
        run(&m, &mtis[i]);
    }
    m.kctx().state_digest()
}

fn fallbacks(m: &PooledMachine) -> u64 {
    m.kctx().engine.stats().restore_full_fallbacks
}

#[test]
fn journal_restore_equals_fresh_boot_across_models() {
    for (mi, model) in MemoryModel::ALL.into_iter().enumerate() {
        let (m, mtis) = setup(model, 24);
        let boot = fresh(model, &mtis, &[]);
        let mut rng = DetRng::new(0xd1ff + 16 * mi as u64);
        let mut pick = || rng.gen_range(0..mtis.len() as u64) as usize;
        for round in 0..6u32 {
            // Each round snapshots after a different prefix of MTIs, then
            // throws a batch away through the journal.
            m.kctx().reset();
            assert_eq!(m.kctx().state_digest(), boot, "{model:?} round {round}");
            let prefix: Vec<usize> = (0..round % 3).map(|_| pick()).collect();
            for &i in &prefix {
                run(&m, &mtis[i]);
            }
            let snap = m.kctx().snapshot();
            let batch = 1 + round as usize % 4;
            for _ in 0..batch {
                run(&m, &mtis[pick()]);
            }
            m.kctx().restore(&snap);
            assert_eq!(
                m.kctx().state_digest(),
                fresh(model, &mtis, &prefix),
                "{model:?} round {round}: restore differs from a fresh boot \
                 that ran {prefix:?}"
            );
        }

        let s = m.kctx().engine.stats();
        assert_eq!(s.restore_full_fallbacks, 0, "{model:?}: journal fell back");
        assert!(s.restores_incremental >= 12, "journal path never taken");
        assert!(s.restore_words_replayed > 0, "nothing was ever rolled back");
    }
}

#[test]
fn nested_snapshots_and_repeat_restores_match_a_fresh_boot() {
    for model in MemoryModel::ALL {
        let (m, mtis) = setup(model, 12);
        let at = |ran: &[usize], what: &str| {
            assert_eq!(
                m.kctx().state_digest(),
                fresh(model, &mtis, ran),
                "{model:?}: {what} differs from a fresh boot"
            );
        };

        // Outer snapshot, mutate, inner snapshot, mutate.
        run(&m, &mtis[0]);
        let outer = m.kctx().snapshot();
        run(&m, &mtis[1]);
        let inner = m.kctx().snapshot();
        run(&m, &mtis[2]);

        // Inner restore, then restore-after-restore with nothing in
        // between: the journal frame stays armed and replays an empty delta.
        m.kctx().restore(&inner);
        at(&[0, 1], "the inner restore");
        m.kctx().restore(&inner);
        at(&[0, 1], "a repeat restore with an empty delta");

        // Mutate again and unwind through both nesting levels.
        run(&m, &mtis[3 % mtis.len()]);
        m.kctx().restore(&inner);
        at(&[0, 1], "a second inner restore");
        m.kctx().restore(&outer);
        at(&[0], "the outer restore through a popped inner frame");

        // The outer frame is still armed: mutating and restoring again
        // stays incremental and exact.
        run(&m, &mtis[4 % mtis.len()]);
        m.kctx().restore(&outer);
        at(&[0], "an outer restore-after-restore");

        assert_eq!(fallbacks(&m), 0, "{model:?}");
        assert!(m.kctx().engine.stats().restores_incremental >= 5);
    }
}

#[test]
fn zero_range_over_never_written_words_restores_exactly() {
    // `kzalloc` zeroes fresh object words with `zero_range`; slots never
    // written before journal nothing (removing an absent key is a no-op),
    // so a restore across an allocate-write-free storm must still be
    // byte-exact and cheap.
    for model in MemoryModel::ALL {
        let (m, mtis) = setup(model, 4);
        run(&m, &mtis[0]);
        let snap = m.kctx().snapshot();

        let k = m.kctx();
        let mut addrs = Vec::new();
        for i in 0..8u64 {
            // Fresh heap objects: every word is zeroed by the allocator
            // without having ever been written.
            let a = k.kzalloc(64, "restore_differential");
            if i % 2 == 0 {
                k.write(Tid(0), Iid(900 + i), a + 8, 0xbeef ^ i);
            }
            addrs.push(a);
        }
        for (i, a) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                k.kfree(Tid(0), *a);
            }
        }

        k.restore(&snap);
        assert_eq!(k.state_digest(), fresh(model, &mtis, &[0]), "{model:?}");
        assert_eq!(fallbacks(&m), 0, "{model:?}");
    }
}

#[test]
fn cross_machine_restore_falls_back_once_and_equals_a_fresh_boot() {
    for model in MemoryModel::ALL {
        let (a, mtis) = setup(model, 12);
        let ran = [0, 1 % mtis.len()];
        for &i in &ran {
            run(&a, &mtis[i]);
        }
        let snap = a.kctx().snapshot();

        // `b` ran something else and never armed `a`'s generations: the
        // restore copies the snapshot and re-arms `b`'s journal at it.
        let b = PooledMachine::boot_with_model(BugSwitches::all(), model);
        run(&b, &mtis[2 % mtis.len()]);
        b.kctx().restore(&snap);
        assert_eq!(b.kctx().state_digest(), fresh(model, &mtis, &ran));
        assert_eq!(fallbacks(&b), 1, "{model:?}: cross-machine restore");

        // A repeat restore of the same snapshot rolls back incrementally.
        run(&b, &mtis[3 % mtis.len()]);
        b.kctx().restore(&snap);
        assert_eq!(b.kctx().state_digest(), fresh(model, &mtis, &ran));
        assert_eq!(fallbacks(&b), 1, "{model:?}: re-armed restore fell back");
        assert_eq!(b.kctx().engine.stats().restores_incremental, 1);
        assert_eq!(fallbacks(&a), 0);
    }
}

#[test]
fn nesting_past_the_frame_cap_evicts_the_oldest_in_lockstep() {
    for model in MemoryModel::ALL {
        let (m, mtis) = setup(model, 12);
        // Nine nested snapshots on top of the boot frame, an MTI before
        // each: the cap evicts the boot frame and the first snapshot.
        let nest = kutil::MAX_FRAMES + 1;
        let mut ran = Vec::new();
        let mut snaps = Vec::new();
        for s in 0..nest {
            ran.push(s % mtis.len());
            run(&m, &mtis[s % mtis.len()]);
            snaps.push(m.kctx().snapshot());
        }
        let k = m.kctx();
        assert_eq!(k.engine.journal_depth(), kutil::MAX_FRAMES);
        assert_eq!(k.kmem.journal_depth(), kutil::MAX_FRAMES);

        // The oldest surviving snapshot is still armed in every journal.
        run(&m, &mtis[0]);
        k.restore(&snaps[1]);
        assert_eq!(k.state_digest(), fresh(model, &mtis, &ran[..2]));
        assert_eq!(fallbacks(&m), 0, "{model:?}: snapshot 1 was evicted");

        // The first snapshot was evicted: exactly one fallback.
        k.restore(&snaps[0]);
        assert_eq!(k.state_digest(), fresh(model, &mtis, &ran[..1]));
        assert_eq!(fallbacks(&m), 1, "{model:?}: snapshot 0 was still armed");
        assert_eq!(k.engine.journal_depth(), 1);
        assert_eq!(k.kmem.journal_depth(), 1);
    }
}
