//! Simulated word-granular memory.
//!
//! The paper's OEMU operates on real kernel memory; this reproduction gives
//! the simulated kernel its own sparse address space. All shared kernel state
//! lives here as 64-bit words keyed by simulated address, so that every
//! access is forced through the emulation engine and its reordering
//! machinery. Unwritten words read as zero, matching `kzalloc` semantics.
//!
//! # Undo journal
//!
//! Restoring a machine to a snapshot used to `clone_from` the whole word
//! table even when a test touched a handful of slots. The journal makes
//! restore cost proportional to state touched instead: while a frame is
//! armed (one per live snapshot, managed by the engine), `write` and
//! `zero_range` append each slot's pre-image to the top frame, and rollback
//! replays those entries *backwards* — the oldest pre-image of a slot is
//! applied last and therefore wins, so no first-touch dedup set is needed
//! on the hot write path.

use std::collections::HashMap;
use std::ops::Range;

use kutil::hash::BuildWordHasher;

/// One undo frame: `(addr, pre-image)` pairs in mutation order. `None`
/// means the slot was absent (reads as zero) before the mutation.
type UndoFrame = Vec<(u64, Option<u64>)>;

/// Sparse word-addressed memory. Keys are byte addresses of word slots;
/// the simulated kernel lays out object fields at 8-byte strides.
#[derive(Default, Debug)]
pub struct Memory {
    /// Hashed with [`BuildWordHasher`], not SipHash: the keys are
    /// simulator-chosen addresses, so a fixed mixing hash is safe and makes
    /// boot's ~16.5k inserts several times cheaper. Its iteration order is
    /// deterministic but never observable — every rendering sorts.
    words: HashMap<u64, u64, BuildWordHasher>,
    /// Undo journal: one frame per armed snapshot, oldest first. Mutations
    /// append pre-images to the top frame; an empty stack journals nothing.
    /// Deliberately excluded from `Clone`: a snapshot's memory copy is pure
    /// content, and a restored journal would undo the wrong machine.
    journal: Vec<UndoFrame>,
}

impl Clone for Memory {
    fn clone(&self) -> Self {
        Memory {
            words: self.words.clone(),
            journal: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Keep the existing table allocation: machine resets restore boot
        // memory thousands of times per campaign. The journal no longer
        // describes the new contents, so it is cleared; the engine re-arms
        // frames explicitly after a full restore.
        self.words.clone_from(&source.words);
        self.journal.clear();
    }
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the word at `addr`; unwritten memory reads as zero.
    pub fn read(&self, addr: u64) -> u64 {
        self.words.get(&addr).copied().unwrap_or(0)
    }

    /// Writes the word at `addr` and returns the previous value (needed by
    /// the store history, which records the value each store overwrites).
    pub fn write(&mut self, addr: u64, value: u64) -> u64 {
        let prev = self.words.insert(addr, value);
        if let Some(frame) = self.journal.last_mut() {
            frame.push((addr, prev));
        }
        prev.unwrap_or(0)
    }

    /// Zeroes `words` consecutive word slots starting at `addr`
    /// (`kzalloc`-style object clearing, performed outside the reordering
    /// machinery because fresh objects are not yet shared). Slots that were
    /// never written journal nothing — removing an absent key is a no-op.
    pub fn zero_range(&mut self, addr: u64, words: u64) {
        for i in 0..words {
            let slot = addr + i * 8;
            if let Some(old) = self.words.remove(&slot) {
                if let Some(frame) = self.journal.last_mut() {
                    frame.push((slot, Some(old)));
                }
            }
        }
    }

    /// Number of distinct words ever written (diagnostics only).
    pub fn footprint(&self) -> usize {
        self.words.len()
    }

    /// Reserves table capacity for `additional` more words, so a bulk
    /// install inserts without rehashing along the way.
    pub fn reserve(&mut self, additional: usize) {
        self.words.reserve(additional);
    }

    /// Every written word outside `skip` as `(addr, value)` sorted by
    /// address — a deterministic rendering of memory contents for state
    /// digests. Skipped words are dropped while collecting, so a large
    /// excluded range (the resident image) is never copied or sorted.
    pub fn sorted_words(&self, skip: Range<u64>) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .words
            .iter()
            .filter(|(a, _)| !skip.contains(a))
            .map(|(&a, &w)| (a, w))
            .collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Undo-journal frame management (driven by the engine's snapshot
    // stack; Memory itself never decides when a frame starts or ends).
    // ------------------------------------------------------------------

    /// Arms a new (top) undo frame: subsequent mutations journal their
    /// pre-images into it until the next push or rollback.
    pub fn journal_push(&mut self) {
        self.journal.push(Vec::new());
    }

    /// Rolls memory back to its contents when frame `k` was pushed: frames
    /// above `k` are replayed backwards and popped, then frame `k` itself
    /// is replayed and left armed (empty) for further mutations. Returns
    /// the number of journal entries replayed.
    pub fn journal_rollback_to(&mut self, k: usize) -> u64 {
        debug_assert!(k < self.journal.len());
        let mut replayed = 0u64;
        while self.journal.len() > k + 1 {
            let frame = self.journal.pop().expect("len > k+1");
            replayed += self.replay(frame.into_iter());
        }
        // Replay the target frame in place, keeping its allocation armed.
        let mut frame = std::mem::take(&mut self.journal[k]);
        replayed += self.replay(frame.drain(..));
        self.journal[k] = frame;
        replayed
    }

    fn replay(&mut self, entries: impl DoubleEndedIterator<Item = (u64, Option<u64>)>) -> u64 {
        let mut n = 0u64;
        for (addr, pre) in entries.rev() {
            match pre {
                Some(v) => {
                    self.words.insert(addr, v);
                }
                None => {
                    self.words.remove(&addr);
                }
            }
            n += 1;
        }
        n
    }

    /// Drops the oldest (bottom) frame without replaying it — its snapshot
    /// generation becomes a full-restore fallback.
    pub fn journal_drop_oldest(&mut self) {
        if !self.journal.is_empty() {
            self.journal.remove(0);
        }
    }

    /// Drops every frame (full-restore fallback or journal invalidation).
    pub fn journal_clear(&mut self) {
        self.journal.clear();
    }

    /// Armed frame count.
    pub fn journal_depth(&self) -> usize {
        self.journal.len()
    }

    /// Total journalled entries across all armed frames — the exact number
    /// of replays a rollback to the bottom frame would perform.
    pub fn journal_entries(&self) -> u64 {
        self.journal.iter().map(|f| f.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read(0xdead_beef), 0);
    }

    #[test]
    fn write_returns_previous() {
        let mut mem = Memory::new();
        assert_eq!(mem.write(8, 1), 0);
        assert_eq!(mem.write(8, 2), 1);
        assert_eq!(mem.read(8), 2);
    }

    #[test]
    fn zero_range_clears_words() {
        let mut mem = Memory::new();
        mem.write(0x100, 7);
        mem.write(0x108, 8);
        mem.write(0x110, 9);
        mem.zero_range(0x100, 2);
        assert_eq!(mem.read(0x100), 0);
        assert_eq!(mem.read(0x108), 0);
        assert_eq!(mem.read(0x110), 9);
    }

    #[test]
    fn footprint_counts_distinct_words() {
        let mut mem = Memory::new();
        mem.write(0, 1);
        mem.write(0, 2);
        mem.write(8, 3);
        assert_eq!(mem.footprint(), 2);
    }

    #[test]
    fn sorted_words_skipping_a_range_equals_filtering_the_full_list() {
        let (base, end) = (0x1000u64, 0x1100u64);
        let mut mem = Memory::new();
        // The four edges, a word inside, and words well clear on each side.
        for addr in [base - 8, base, base + 0x40, end - 8, end, 0x8, 0x9000] {
            mem.write(addr, addr ^ 0x5a);
        }
        let full = mem.sorted_words(0..0);
        assert_eq!(full.len(), 7, "an empty range skips nothing");
        let filtered: Vec<_> = full
            .iter()
            .copied()
            .filter(|&(a, _)| a < base || a >= end)
            .collect();
        let skipped = mem.sorted_words(base..end);
        assert_eq!(skipped, filtered);
        let addrs: Vec<u64> = skipped.iter().map(|&(a, _)| a).collect();
        assert_eq!(addrs, [0x8, base - 8, end, 0x9000], "sorted, edges exact");
    }

    #[test]
    fn rollback_restores_pre_frame_contents() {
        let mut mem = Memory::new();
        mem.write(0x100, 1);
        mem.journal_push();
        mem.write(0x100, 2); // overwrite
        mem.write(0x100, 3); // overwrite again: oldest pre-image must win
        mem.write(0x108, 9); // fresh slot
        mem.zero_range(0x100, 1); // remove journalled slot
        let replayed = mem.journal_rollback_to(0);
        assert_eq!(replayed, 4);
        assert_eq!(mem.read(0x100), 1, "oldest pre-image wins");
        assert_eq!(mem.read(0x108), 0, "fresh slot removed");
        assert_eq!(mem.footprint(), 1);
        // The frame stays armed: further mutations roll back too.
        mem.write(0x118, 5);
        assert_eq!(mem.journal_rollback_to(0), 1);
        assert_eq!(mem.read(0x118), 0);
    }

    #[test]
    fn nested_frames_roll_back_through_each_other() {
        let mut mem = Memory::new();
        mem.journal_push(); // frame 0 (boot)
        mem.write(0x10, 1);
        mem.journal_push(); // frame 1 (post-setup)
        mem.write(0x10, 2);
        mem.write(0x18, 3);
        // Roll back only the top frame.
        assert_eq!(mem.journal_rollback_to(1), 2);
        assert_eq!((mem.read(0x10), mem.read(0x18)), (1, 0));
        assert_eq!(mem.journal_depth(), 2);
        // Roll back to the bottom frame: pops the top.
        mem.write(0x10, 4);
        assert_eq!(mem.journal_rollback_to(0), 2);
        assert_eq!(mem.read(0x10), 0);
        assert_eq!(mem.journal_depth(), 1);
    }

    #[test]
    fn zero_range_over_never_written_words_journals_nothing() {
        let mut mem = Memory::new();
        mem.journal_push();
        mem.zero_range(0x200, 8);
        assert_eq!(mem.journal_entries(), 0);
        assert_eq!(mem.journal_rollback_to(0), 0);
    }

    #[test]
    fn clone_excludes_journal() {
        let mut mem = Memory::new();
        mem.journal_push();
        mem.write(0x10, 1);
        let copy = mem.clone();
        assert_eq!(copy.journal_depth(), 0);
        assert_eq!(copy.read(0x10), 1);
        let mut dst = Memory::new();
        dst.journal_push();
        dst.clone_from(&mem);
        assert_eq!(dst.journal_depth(), 0, "clone_from invalidates the journal");
    }
}
