//! Faults and crash reports.
//!
//! When an oracle detects a kernel malfunction it produces a [`Fault`]; the
//! runtime turns the fault into a [`CrashReport`] whose title matches the
//! formats the paper's Table 3 lists (`BUG: unable to handle kernel NULL
//! pointer dereference in ...`, `KASAN: slab-out-of-bounds Read in ...`,
//! `general protection fault in ...`), and raises a simulated kernel oops.
//! The [`OracleSink`] is the per-machine collector the fuzzer harvests and
//! deduplicates by title, like Syzkaller's crash triage.

use std::fmt;

use kutil::sync::Mutex;

/// Classification of a detected kernel malfunction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Access inside the null guard page (`addr < NULL_GUARD`).
    NullDeref {
        /// Whether the faulting access was a write.
        write: bool,
    },
    /// An indirect call through a null function pointer — the classic
    /// symptom of reading an unpublished ops table (Figures 1 and 7).
    NullFnCall,
    /// Access within an object's redzone (KASAN slab-out-of-bounds).
    OutOfBounds {
        /// Whether the faulting access was a write.
        write: bool,
        /// Base address of the overflowed object.
        object: u64,
        /// Byte offset past the object end (or negative conceptually for
        /// the front redzone; reported as distance into the redzone).
        overflow: u64,
    },
    /// Access to a freed (quarantined) object (KASAN use-after-free).
    UseAfterFree {
        /// Whether the faulting access was a write.
        write: bool,
        /// Base address of the freed object.
        object: u64,
    },
    /// `kfree` of an already-freed object.
    DoubleFree {
        /// Base address of the object.
        object: u64,
    },
    /// Access to an address backed by no object at all (a general
    /// protection fault in the paper's Table 3 titles).
    Wild {
        /// Whether the faulting access was a write.
        write: bool,
    },
    /// An indirect call to an address that is not a registered function.
    WildFnCall {
        /// The bogus target.
        target: u64,
    },
    /// Lock-order inversion detected by the lockdep oracle.
    LockInversion {
        /// Human-readable cycle description.
        cycle: String,
    },
    /// A kernel `BUG_ON`-style assertion failed.
    AssertFail {
        /// The violated condition.
        what: String,
    },
}

/// A detected malfunction, before report formatting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What went wrong.
    pub kind: FaultKind,
    /// Faulting simulated address (0 when not address-related).
    pub addr: u64,
    /// Kernel function in which the fault occurred (for the report title).
    pub in_fn: &'static str,
}

impl Fault {
    /// Formats the crash title in the paper's Table 3 style.
    pub fn title(&self) -> String {
        let f = self.in_fn;
        match &self.kind {
            FaultKind::NullDeref { write: false } | FaultKind::NullFnCall => {
                format!("BUG: unable to handle kernel NULL pointer dereference in {f}")
            }
            FaultKind::NullDeref { write: true } => {
                format!("KASAN: null-ptr-deref Write in {f}")
            }
            FaultKind::OutOfBounds { write, .. } => {
                let dir = if *write { "Write" } else { "Read" };
                format!("KASAN: slab-out-of-bounds {dir} in {f}")
            }
            FaultKind::UseAfterFree { write, .. } => {
                let dir = if *write { "Write" } else { "Read" };
                format!("KASAN: use-after-free {dir} in {f}")
            }
            FaultKind::DoubleFree { .. } => format!("KASAN: double-free in {f}"),
            FaultKind::Wild { .. } | FaultKind::WildFnCall { .. } => {
                format!("general protection fault in {f}")
            }
            FaultKind::LockInversion { .. } => {
                format!("possible circular locking dependency detected in {f}")
            }
            FaultKind::AssertFail { what } => format!("kernel BUG at {f}: {what}"),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (addr={:#x})", self.title(), self.addr)
    }
}

/// A formatted crash harvested by the fuzzer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashReport {
    /// Dedup key and headline, Table 3 style.
    pub title: String,
    /// The underlying fault.
    pub fault: Fault,
}

impl CrashReport {
    /// Builds a report from a fault.
    pub fn from_fault(fault: Fault) -> Self {
        CrashReport {
            title: fault.title(),
            fault,
        }
    }
}

/// Collector of crash reports for one simulated machine run.
#[derive(Default)]
pub struct OracleSink {
    inner: Mutex<SinkInner>,
}

#[derive(Default)]
struct SinkInner {
    reports: Vec<CrashReport>,
    /// Armed undo frames, oldest first. The report list is append-only
    /// between snapshots except for [`OracleSink::take`], which drains it
    /// wholesale — so a frame records only the list length at its push and
    /// a validity bit that `take` clears for frames with a non-empty
    /// baseline (an empty baseline survives a drain: truncating to zero is
    /// still exact).
    frames: Vec<SinkFrame>,
}

struct SinkFrame {
    generation: u64,
    base_len: usize,
    valid: bool,
}

/// The sink's captured state plus its undo-journal generation id.
#[derive(Clone)]
pub struct SinkSnapshot {
    reports: Vec<CrashReport>,
    generation: u64,
}

impl SinkSnapshot {
    /// The captured reports (machine digest support).
    pub fn reports(&self) -> &[CrashReport] {
        &self.reports
    }
}

impl OracleSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a detected fault.
    pub fn record(&self, fault: Fault) {
        self.inner
            .lock()
            .reports
            .push(CrashReport::from_fault(fault));
    }

    /// Takes all reports recorded so far.
    pub fn take(&self) -> Vec<CrashReport> {
        let mut inner = self.inner.lock();
        // Draining destroys every non-empty baseline a frame might need to
        // truncate back to; empty baselines stay trivially intact.
        for frame in &mut inner.frames {
            if frame.base_len > 0 {
                frame.valid = false;
            }
        }
        std::mem::take(&mut inner.reports)
    }

    /// Copies the reports recorded so far without draining them (machine
    /// snapshot support).
    pub fn snapshot(&self) -> Vec<CrashReport> {
        self.inner.lock().reports.clone()
    }

    /// Captures the sink's state and arms an undo frame under the
    /// snapshot's fresh generation id.
    pub fn capture(&self) -> SinkSnapshot {
        let mut inner = self.inner.lock();
        let generation = kutil::next_generation();
        if inner.frames.len() == kutil::MAX_FRAMES {
            inner.frames.remove(0);
        }
        let base_len = inner.reports.len();
        inner.frames.push(SinkFrame {
            generation,
            base_len,
            valid: true,
        });
        SinkSnapshot {
            reports: inner.reports.clone(),
            generation,
        }
    }

    /// Restores a previously captured state. When the snapshot's generation
    /// is armed and its baseline survived (no intervening [`take`] of a
    /// non-empty list), the list merely truncates back; otherwise it is
    /// rebuilt by `clear` + `extend` and the journal re-arms at the
    /// restored generation. Returns `true` when the truncate path was
    /// taken. Either way is cheap — the sink is almost always empty — so
    /// the fallback is *not* a machine-level full restore.
    ///
    /// [`take`]: OracleSink::take
    pub fn restore_from(&self, snap: &SinkSnapshot) -> bool {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let armed = inner
            .frames
            .iter()
            .position(|f| f.generation == snap.generation);
        match armed {
            Some(k) if inner.frames[k].valid && inner.reports.len() >= inner.frames[k].base_len => {
                debug_assert_eq!(inner.frames[k].base_len, snap.reports.len());
                let base = inner.frames[k].base_len;
                inner.reports.truncate(base);
                inner.frames.truncate(k + 1);
                true
            }
            _ => {
                inner.reports.clear();
                inner.reports.extend_from_slice(&snap.reports);
                inner.frames.clear();
                inner.frames.push(SinkFrame {
                    generation: snap.generation,
                    base_len: snap.reports.len(),
                    valid: true,
                });
                false
            }
        }
    }

    /// Whether any fault was recorded.
    pub fn has_reports(&self) -> bool {
        !self.inner.lock().reports.is_empty()
    }

    /// Number of reports recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().reports.len()
    }

    /// Whether no report was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().reports.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titles_match_table3_formats() {
        let f = |kind| Fault {
            kind,
            addr: 0,
            in_fn: "tls_setsockopt",
        };
        assert_eq!(
            f(FaultKind::NullFnCall).title(),
            "BUG: unable to handle kernel NULL pointer dereference in tls_setsockopt"
        );
        assert_eq!(
            f(FaultKind::NullDeref { write: true }).title(),
            "KASAN: null-ptr-deref Write in tls_setsockopt"
        );
        assert_eq!(
            f(FaultKind::OutOfBounds {
                write: false,
                object: 0,
                overflow: 8
            })
            .title(),
            "KASAN: slab-out-of-bounds Read in tls_setsockopt"
        );
        assert_eq!(
            f(FaultKind::Wild { write: false }).title(),
            "general protection fault in tls_setsockopt"
        );
    }

    fn some_fault() -> Fault {
        Fault {
            kind: FaultKind::DoubleFree { object: 0x100 },
            addr: 0x100,
            in_fn: "kfree",
        }
    }

    #[test]
    fn capture_restore_truncates_when_baseline_intact() {
        let sink = OracleSink::new();
        sink.record(some_fault());
        let snap = sink.capture();
        sink.record(some_fault());
        sink.record(some_fault());
        assert!(sink.restore_from(&snap), "truncate path");
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.snapshot(), snap.reports());
    }

    #[test]
    fn take_invalidates_nonempty_baselines_only() {
        let sink = OracleSink::new();
        let empty = sink.capture();
        sink.record(some_fault());
        let nonempty = sink.capture();
        let _ = sink.take();
        // The non-empty baseline is gone: rebuild path.
        assert!(!sink.restore_from(&nonempty));
        assert_eq!(sink.len(), 1);
        let _ = sink.take();
        // An empty baseline survives a drain: truncate(0) is exact. The
        // restore_from above re-armed only `nonempty`, so restore to the
        // empty snapshot is a (cheap) rebuild too — but restoring to a
        // freshly captured empty one after a take stays valid:
        assert!(!sink.restore_from(&empty));
        assert!(sink.is_empty());
        let empty2 = sink.capture();
        let _ = sink.take();
        assert!(sink.restore_from(&empty2), "empty baseline survives take");
        assert!(sink.is_empty());
    }

    #[test]
    fn sink_collects_and_drains() {
        let sink = OracleSink::new();
        assert!(sink.is_empty());
        sink.record(Fault {
            kind: FaultKind::DoubleFree { object: 0x100 },
            addr: 0x100,
            in_fn: "kfree",
        });
        assert!(sink.has_reports());
        assert_eq!(sink.len(), 1);
        let reports = sink.take();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].title, "KASAN: double-free in kfree");
        assert!(sink.is_empty());
    }
}
