//! Slab-style allocator with KASAN-like access checking.
//!
//! Objects are carved from a bump region of the simulated address space with
//! a redzone after each object. Freed objects enter a quarantine and their
//! addresses are never reused, so a dangling pointer dereference is always
//! attributable to the exact freed object — the property KASAN's quarantine
//! buys on real kernels and the reason the paper's in-vivo approach can
//! detect use-after-free and double-free outcomes of reordering (§3,
//! "Benefits of in-vivo emulation").

use std::collections::BTreeMap;

use kutil::sync::Mutex;

use crate::report::{Fault, FaultKind};

/// Addresses below this are the null guard page; any access faults as a
/// NULL pointer dereference.
pub const NULL_GUARD: u64 = 0x1000;

/// Base of the simulated slab heap.
pub const HEAP_BASE: u64 = 0x1_0000_0000;

/// Redzone placed after every object, in bytes.
pub const REDZONE: u64 = 64;

/// Lifecycle state of a slab object.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AllocState {
    /// Live object.
    Allocated,
    /// Freed and quarantined; all accesses fault as use-after-free.
    Freed,
}

/// Metadata of one slab object.
#[derive(Clone, Debug)]
pub struct Object {
    /// Base address.
    pub base: u64,
    /// Usable size in bytes.
    pub size: u64,
    /// Live or quarantined.
    pub state: AllocState,
    /// Allocation-site tag (cache name analog), for reports.
    pub tag: &'static str,
}

/// Allocator counters.
#[derive(Default, Debug, Clone, Copy)]
pub struct KmemStats {
    /// Objects allocated.
    pub allocs: u64,
    /// Objects freed.
    pub frees: u64,
    /// Access checks performed.
    pub checks: u64,
}

/// One undo frame: `(base, pre-image)` pairs in mutation order. `None`
/// means the object did not exist before the mutation (a `kzalloc`);
/// `Some` carries the object's metadata before a `kfree` flipped its state.
/// Rollback replays entries backwards, so the oldest pre-image of an
/// address wins and no dedup set is needed on the allocation path.
struct KmemFrame {
    generation: u64,
    entries: Vec<(u64, Option<Object>)>,
}

struct Inner {
    next: u64,
    objects: BTreeMap<u64, Object>,
    stats: KmemStats,
    /// Armed undo frames, oldest first — one per live snapshot.
    frames: Vec<KmemFrame>,
}

impl Inner {
    fn journal(&mut self, base: u64, pre: Option<Object>) {
        if let Some(frame) = self.frames.last_mut() {
            frame.entries.push((base, pre));
        }
    }
}

/// Replays one frame's pre-images backwards so the oldest entry per
/// address is applied last and wins.
fn replay(objects: &mut BTreeMap<u64, Object>, entries: Vec<(u64, Option<Object>)>) {
    for (base, pre) in entries.into_iter().rev() {
        match pre {
            Some(obj) => {
                objects.insert(base, obj);
            }
            None => {
                objects.remove(&base);
            }
        }
    }
}

/// A full copy of the allocator's state: bump pointer, every object's
/// lifecycle (including the quarantine), and counters. Restoring the bump
/// pointer matters for determinism — profiles key on simulated addresses,
/// so a reset machine must hand out exactly the addresses a fresh boot
/// would.
#[derive(Clone)]
pub struct KmemSnapshot {
    next: u64,
    objects: BTreeMap<u64, Object>,
    stats: KmemStats,
    /// Undo-journal generation id ([`kutil::next_generation`]): a restore
    /// whose generation is armed rolls back incrementally. Not part of the
    /// digest — it names the snapshot, it is not state.
    generation: u64,
}

impl KmemSnapshot {
    /// Appends a deterministic rendering of the captured heap to `out`
    /// (BTreeMap iteration is already address-ordered). Stats counters are
    /// excluded — diagnostics only.
    pub fn digest(&self, out: &mut String) {
        digest_state(out, self.next, self.objects.values());
    }
}

/// The one rendering of heap state both digests share: a snapshot's
/// [`KmemSnapshot::digest`] and the live [`Kmem::digest_live`] must be
/// byte-identical for the same state.
fn digest_state<'a>(out: &mut String, next: u64, objects: impl Iterator<Item = &'a Object>) {
    use std::fmt::Write;
    writeln!(out, "kmem next={next:#x}").unwrap();
    for o in objects {
        writeln!(out, "obj {o:?}").unwrap();
    }
}

/// The simulated slab allocator and KASAN access checker.
pub struct Kmem {
    inner: Mutex<Inner>,
}

impl Default for Kmem {
    fn default() -> Self {
        Self::new()
    }
}

impl Kmem {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Kmem {
            inner: Mutex::new(Inner {
                next: HEAP_BASE,
                objects: BTreeMap::new(),
                stats: KmemStats::default(),
                frames: Vec::new(),
            }),
        }
    }

    /// Allocates a zero-filled object of `size` bytes (`kzalloc`). The
    /// caller is responsible for zeroing the backing words in the engine's
    /// memory (fresh addresses read as zero there anyway, since addresses
    /// are never reused).
    ///
    /// Returns the object base address, always 8-byte aligned.
    pub fn kzalloc(&self, size: u64, tag: &'static str) -> u64 {
        let mut inner = self.inner.lock();
        let size = size.max(8);
        let base = inner.next;
        inner.next = base + ((size + REDZONE + 7) & !7);
        let prev = inner.objects.insert(
            base,
            Object {
                base,
                size,
                state: AllocState::Allocated,
                tag,
            },
        );
        inner.journal(base, prev);
        inner.stats.allocs += 1;
        base
    }

    /// Frees an object (`kfree`). Freed objects are quarantined forever;
    /// double frees and frees of non-object addresses fault.
    pub fn kfree(&self, addr: u64, in_fn: &'static str) -> Result<(), Fault> {
        let mut inner = self.inner.lock();
        match inner.objects.get_mut(&addr) {
            Some(obj) if obj.state == AllocState::Allocated => {
                let pre = obj.clone();
                obj.state = AllocState::Freed;
                inner.journal(addr, Some(pre));
                inner.stats.frees += 1;
                Ok(())
            }
            Some(_) => Err(Fault {
                kind: FaultKind::DoubleFree { object: addr },
                addr,
                in_fn,
            }),
            None if addr < NULL_GUARD => {
                // `kfree(NULL)` is a no-op in Linux.
                if addr == 0 {
                    Ok(())
                } else {
                    Err(Fault {
                        kind: FaultKind::NullDeref { write: true },
                        addr,
                        in_fn,
                    })
                }
            }
            None => Err(Fault {
                kind: FaultKind::Wild { write: true },
                addr,
                in_fn,
            }),
        }
    }

    /// KASAN check for an access of `size` bytes at `addr`.
    ///
    /// Fault taxonomy, mirroring the kernel oracles:
    /// - inside the null guard page → NULL pointer dereference;
    /// - inside a live object → OK;
    /// - inside a freed object (or its redzone) → use-after-free;
    /// - inside a live object's redzone or straddling its end → slab
    ///   out-of-bounds;
    /// - anywhere else → general protection fault (wild access).
    pub fn check_access(
        &self,
        addr: u64,
        size: u64,
        write: bool,
        in_fn: &'static str,
    ) -> Result<(), Fault> {
        let mut inner = self.inner.lock();
        inner.stats.checks += 1;
        if addr < NULL_GUARD {
            return Err(Fault {
                kind: FaultKind::NullDeref { write },
                addr,
                in_fn,
            });
        }
        if addr < HEAP_BASE {
            return Err(Fault {
                kind: FaultKind::Wild { write },
                addr,
                in_fn,
            });
        }
        // Find the nearest object at or below `addr`.
        let obj = inner
            .objects
            .range(..=addr)
            .next_back()
            .map(|(_, o)| o.clone());
        let Some(obj) = obj else {
            return Err(Fault {
                kind: FaultKind::Wild { write },
                addr,
                in_fn,
            });
        };
        let end = obj.base + obj.size;
        let guard_end = end + REDZONE;
        if addr + size <= end {
            match obj.state {
                AllocState::Allocated => Ok(()),
                AllocState::Freed => Err(Fault {
                    kind: FaultKind::UseAfterFree {
                        write,
                        object: obj.base,
                    },
                    addr,
                    in_fn,
                }),
            }
        } else if addr < guard_end {
            match obj.state {
                AllocState::Allocated => Err(Fault {
                    kind: FaultKind::OutOfBounds {
                        write,
                        object: obj.base,
                        overflow: addr.saturating_sub(end) + size,
                    },
                    addr,
                    in_fn,
                }),
                AllocState::Freed => Err(Fault {
                    kind: FaultKind::UseAfterFree {
                        write,
                        object: obj.base,
                    },
                    addr,
                    in_fn,
                }),
            }
        } else {
            Err(Fault {
                kind: FaultKind::Wild { write },
                addr,
                in_fn,
            })
        }
    }

    /// Looks up the object containing `addr`, if any.
    pub fn object_at(&self, addr: u64) -> Option<Object> {
        let inner = self.inner.lock();
        inner
            .objects
            .range(..=addr)
            .next_back()
            .map(|(_, o)| o.clone())
            .filter(|o| addr < o.base + o.size + REDZONE)
    }

    /// Captures the allocator's full state and arms an undo frame under the
    /// snapshot's fresh generation id, so a later [`restore`](Kmem::restore)
    /// to it rolls back only the objects touched in between.
    pub fn snapshot(&self) -> KmemSnapshot {
        let mut inner = self.inner.lock();
        let generation = kutil::next_generation();
        if inner.frames.len() == kutil::MAX_FRAMES {
            inner.frames.remove(0);
        }
        inner.frames.push(KmemFrame {
            generation,
            entries: Vec::new(),
        });
        KmemSnapshot {
            next: inner.next,
            objects: inner.objects.clone(),
            stats: inner.stats,
            generation,
        }
    }

    /// Restores a previously captured state. When the snapshot's generation
    /// is armed in the undo journal the object map rolls back incrementally
    /// (pre-images replay backwards); otherwise the full `clone_from` path
    /// runs and the journal is re-armed at the restored generation. The
    /// bump pointer and counters are scalars, restored either way. Returns
    /// `true` when the incremental path was taken.
    pub fn restore(&self, snap: &KmemSnapshot) -> bool {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let armed = inner
            .frames
            .iter()
            .position(|f| f.generation == snap.generation);
        let incremental = match armed {
            Some(k) => {
                while inner.frames.len() > k + 1 {
                    let frame = inner.frames.pop().expect("len > k+1");
                    replay(&mut inner.objects, frame.entries);
                }
                let entries = std::mem::take(&mut inner.frames[k].entries);
                replay(&mut inner.objects, entries);
                true
            }
            None => {
                inner.objects.clone_from(&snap.objects);
                inner.frames.clear();
                // The heap now *is* the snapshot: re-arm at its generation
                // so the next restore to it is incremental.
                inner.frames.push(KmemFrame {
                    generation: snap.generation,
                    entries: Vec::new(),
                });
                false
            }
        };
        inner.next = snap.next;
        inner.stats = snap.stats;
        incremental
    }

    /// Armed undo-frame count (diagnostics).
    pub fn journal_depth(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Live-state digest, byte-identical to [`KmemSnapshot::digest`] of a
    /// snapshot taken at this instant — without cloning the object map.
    pub fn digest_live(&self, out: &mut String) {
        let inner = self.inner.lock();
        digest_state(out, inner.next, inner.objects.values());
    }

    /// Allocator counters.
    pub fn stats(&self) -> KmemStats {
        let inner = self.inner.lock();
        inner.stats
    }

    /// Number of live (non-freed) objects, for leak-style diagnostics.
    pub fn live_objects(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .objects
            .values()
            .filter(|o| o.state == AllocState::Allocated)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let k = Kmem::new();
        let a = k.kzalloc(24, "a");
        let b = k.kzalloc(100, "b");
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 24 + REDZONE);
    }

    #[test]
    fn in_bounds_access_passes() {
        let k = Kmem::new();
        let a = k.kzalloc(32, "obj");
        assert!(k.check_access(a, 8, false, "f").is_ok());
        assert!(k.check_access(a + 24, 8, true, "f").is_ok());
    }

    #[test]
    fn null_guard_faults() {
        let k = Kmem::new();
        let fault = k.check_access(0, 8, false, "pipe_read").unwrap_err();
        assert!(matches!(fault.kind, FaultKind::NullDeref { write: false }));
        let fault = k.check_access(0x40, 8, true, "fput").unwrap_err();
        assert_eq!(
            fault.title(),
            "KASAN: null-ptr-deref Write in fput",
            "matches the paper's Bug #10 title"
        );
    }

    #[test]
    fn oob_detected_in_redzone() {
        let k = Kmem::new();
        let a = k.kzalloc(32, "obj");
        let fault = k
            .check_access(a + 32, 8, false, "rds_loop_xmit")
            .unwrap_err();
        assert!(matches!(fault.kind, FaultKind::OutOfBounds { .. }));
        assert_eq!(
            fault.title(),
            "KASAN: slab-out-of-bounds Read in rds_loop_xmit",
            "matches the paper's Bug #1 title"
        );
    }

    #[test]
    fn straddling_end_is_oob() {
        let k = Kmem::new();
        let a = k.kzalloc(12, "obj");
        // Bytes [8, 16) extend past the 12-byte object.
        assert!(k.check_access(a + 8, 8, false, "f").is_err());
    }

    #[test]
    fn uaf_detected_after_free() {
        let k = Kmem::new();
        let a = k.kzalloc(16, "obj");
        k.kfree(a, "kfree").unwrap();
        let fault = k.check_access(a, 8, false, "reader").unwrap_err();
        assert!(matches!(fault.kind, FaultKind::UseAfterFree { .. }));
    }

    #[test]
    fn double_free_detected() {
        let k = Kmem::new();
        let a = k.kzalloc(16, "obj");
        k.kfree(a, "kfree").unwrap();
        let fault = k.kfree(a, "kfree").unwrap_err();
        assert!(matches!(fault.kind, FaultKind::DoubleFree { .. }));
    }

    #[test]
    fn kfree_null_is_noop() {
        let k = Kmem::new();
        assert!(k.kfree(0, "kfree").is_ok());
    }

    #[test]
    fn wild_access_is_gpf() {
        let k = Kmem::new();
        let fault = k
            .check_access(0xdead_0000, 8, false, "add_wait_queue")
            .unwrap_err();
        assert!(matches!(fault.kind, FaultKind::Wild { .. }));
        assert_eq!(
            fault.title(),
            "general protection fault in add_wait_queue",
            "matches the paper's Bug #3 title"
        );
    }

    #[test]
    fn addresses_never_reused() {
        let k = Kmem::new();
        let a = k.kzalloc(16, "a");
        k.kfree(a, "kfree").unwrap();
        let b = k.kzalloc(16, "b");
        assert_ne!(a, b, "quarantine forbids address reuse");
    }

    fn live_digest(k: &Kmem) -> String {
        let mut out = String::new();
        k.digest_live(&mut out);
        out
    }

    #[test]
    fn incremental_restore_rolls_back_allocs_and_frees() {
        let k = Kmem::new();
        let a = k.kzalloc(16, "kept");
        let snap = k.snapshot();
        let mut before = String::new();
        snap.digest(&mut before);
        assert_eq!(live_digest(&k), before, "live digest matches snapshot");
        let _b = k.kzalloc(32, "rolled-back");
        k.kfree(a, "kfree").unwrap();
        assert!(k.restore(&snap), "incremental path taken");
        assert_eq!(live_digest(&k), before);
        assert_eq!(k.live_objects(), 1);
        // Frame stays armed: restore-after-restore is incremental too.
        let _c = k.kzalloc(8, "again");
        assert!(k.restore(&snap));
        assert_eq!(live_digest(&k), before);
    }

    #[test]
    fn unarmed_generation_falls_back_to_full_then_rearms() {
        let a = Kmem::new();
        a.kzalloc(16, "obj");
        let snap = a.snapshot();
        let b = Kmem::new();
        assert!(!b.restore(&snap), "cross-machine restore is a fallback");
        let mut d = String::new();
        snap.digest(&mut d);
        assert_eq!(live_digest(&b), d);
        // Re-armed at the restored generation.
        b.kzalloc(64, "extra");
        assert!(b.restore(&snap), "re-armed restore is incremental");
        assert_eq!(live_digest(&b), d);
    }

    #[test]
    fn object_lookup_and_stats() {
        let k = Kmem::new();
        let a = k.kzalloc(16, "tls_context");
        let obj = k.object_at(a + 8).expect("found");
        assert_eq!(obj.tag, "tls_context");
        assert_eq!(k.live_objects(), 1);
        k.kfree(a, "kfree").unwrap();
        assert_eq!(k.live_objects(), 0);
        let s = k.stats();
        assert_eq!((s.allocs, s.frees), (1, 1));
    }
}
