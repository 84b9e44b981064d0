//! The kernel context: one booted simulated machine.
//!
//! [`Kctx`] bundles everything a run of the simulated kernel needs — the
//! OEMU engine, the slab allocator and oracles, the optional custom
//! scheduler, the seeded-bug switches — and exposes the Linux-flavoured
//! access helpers the subsystems are written against (`read`, `write`,
//! `READ_ONCE`, `smp_*`, `kzalloc`, indirect calls). Every helper routes the
//! access through the scheduler gate, the KASAN check, and the emulation
//! engine, in that order; that composition is the in-vivo property of §3 —
//! reordering decisions see the live allocator state, and the oracles see
//! reordered values.
//!
//! A detected fault records a crash report and unwinds the simulated CPU
//! with a panic carrying [`CrashSignal`] — the analog of a kernel oops that
//! kills the offending task. The executor catches it at the syscall
//! boundary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use kmem::{
    Fault, FnRegistry, FnRegistrySnapshot, Kmem, KmemSnapshot, LockId, Lockdep, LockdepSnapshot,
    OracleSink, SinkSnapshot,
};
use ksched::StepScheduler;
use kutil::sync::Mutex;
use oemu::{Engine, EngineSnapshot, Iid, LoadAnn, MemoryModel, RmwOrder, StoreAnn, Tid};

use crate::bugs::{BugId, BugSwitches};
use crate::subsys;

/// Number of simulated CPUs per machine (the paper's VMs have four vCPUs).
pub const MAX_CPUS: usize = 4;

/// Base address of the boot-time resident image (see
/// [`oemu::Engine::install_resident_image`]). Reserved: far above the kmem
/// heap (`0x1_0000_0000`+), the function registry (`0x4000_0000`..), and
/// every subsystem global — no emulated code addresses into it.
pub const RESIDENT_BASE: u64 = 0xba11_0000_0000;

/// Size of the resident image in 8-byte words (128 KiB). Large enough that
/// a full restore's `clone_from` visibly costs machine size — the honest
/// stand-in for reverting a VM snapshot — while keeping boot and the
/// per-pair snapshot clone affordable.
///
/// The image is 16,384 of a booted machine's ~16.4k memory words, so it
/// dominates boot: [`Kctx::new`] takes about 0.75 ms (median of 200 boots,
/// 2-vCPU VM), most of it inserting the image into the word table and
/// cloning it into the boot snapshot.
pub const RESIDENT_IMAGE_WORDS: u64 = 16384;

/// `EBADF`-style error returns used by the syscall layer.
pub const EBADF: i64 = -9;
/// `EINVAL`.
pub const EINVAL: i64 = -22;
/// `EBUSY`.
pub const EBUSY: i64 = -16;
/// `EAGAIN`.
pub const EAGAIN: i64 = -11;
/// Sentinel return of a syscall that died in a simulated oops.
pub const ECRASH: i64 = -1000;

/// Panic payload of a simulated kernel oops. Carried through `panic_any`
/// and caught by the syscall runner.
#[derive(Clone, Debug)]
pub struct CrashSignal {
    /// Table 3-style crash title.
    pub title: String,
}

/// Boot-time global objects of every subsystem (the simulated kernel's
/// static/global data), built once per machine.
pub struct Globals {
    /// watch_queue + pipe globals.
    pub wq: subsys::watch_queue::WqGlobals,
    /// TLS/socket globals.
    pub tls: subsys::tls::TlsGlobals,
    /// RDS connection-path globals.
    pub rds: subsys::rds::RdsGlobals,
    /// XDP/xsk socket globals.
    pub xsk: subsys::xsk::XskGlobals,
    /// BPF sockmap psock globals.
    pub bpf: subsys::bpf_psock::BpfGlobals,
    /// SMC socket globals.
    pub smc: subsys::smc::SmcGlobals,
    /// VMCI queue-pair broker globals.
    pub vmci: subsys::vmci::VmciGlobals,
    /// GSM mux globals.
    pub gsm: subsys::gsm::GsmGlobals,
    /// vlan group globals.
    pub vlan: subsys::vlan::VlanGlobals,
    /// fd-table globals.
    pub fs: subsys::fs_fdtable::FsGlobals,
    /// nbd device globals.
    pub nbd: subsys::nbd::NbdGlobals,
    /// unix-socket globals.
    pub unix: subsys::unix_sock::UnixGlobals,
    /// sbitmap queue globals.
    pub sbitmap: subsys::sbitmap::SbitmapGlobals,
    /// fs/buffer globals (extended corpus).
    pub buffer: subsys::buffer_head::BufferGlobals,
    /// Tracing ring-buffer globals (extended corpus).
    pub ring_buffer: subsys::ring_buffer::RingBufferGlobals,
    /// mm/filemap globals (extended corpus).
    pub filemap: subsys::filemap::FilemapGlobals,
    /// USB core globals (extended corpus).
    pub usb: subsys::usb::UsbGlobals,
}

/// A full copy of one machine's mutable state — the engine, allocator,
/// registries, oracles, per-CPU frames, and mode flags. Subsystem globals
/// are *not* copied: they are plain structs of simulated addresses fixed at
/// boot, and all state behind those addresses lives in the engine's memory
/// and the allocator, which the snapshot covers.
///
/// Captured by [`Kctx::snapshot`], written back by [`Kctx::restore`]. The
/// boot-time snapshot every machine captures at the end of [`Kctx::new`] is
/// what [`Kctx::reset`] rolls back to.
#[derive(Clone)]
pub struct MachineSnapshot {
    engine: EngineSnapshot,
    kmem: KmemSnapshot,
    fns: FnRegistrySnapshot,
    lockdep: LockdepSnapshot,
    sink: SinkSnapshot,
    raw: bool,
    migration_override: bool,
    frames: [Vec<&'static str>; MAX_CPUS],
}

impl MachineSnapshot {
    /// Deterministic rendering of the captured machine state, for
    /// byte-comparing a reset machine against a fresh boot. Purely
    /// observational counters (engine/allocator stats) are excluded — they
    /// never influence execution — and so are the snapshot generation ids,
    /// which name snapshots rather than state.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "machine raw={} migration_override={}",
            self.raw, self.migration_override
        )
        .unwrap();
        for (cpu, frames) in self.frames.iter().enumerate() {
            writeln!(out, "frames cpu={cpu} {frames:?}").unwrap();
        }
        for r in self.sink.reports() {
            writeln!(out, "report {}", r.title).unwrap();
        }
        self.engine.digest(&mut out);
        self.kmem.digest(&mut out);
        self.fns.digest(&mut out);
        self.lockdep.digest(&mut out);
        out
    }
}

/// One booted simulated machine.
pub struct Kctx {
    /// The OEMU emulation engine.
    pub engine: Arc<Engine>,
    /// Slab allocator + KASAN checker.
    pub kmem: Kmem,
    /// Simulated text segment (function pointers).
    pub fns: FnRegistry,
    /// Lock-order oracle.
    pub lockdep: Lockdep,
    /// Crash-report collector.
    pub sink: OracleSink,
    /// The step scheduler installed for a concurrent phase.
    sched: Mutex<Option<Arc<StepScheduler>>>,
    bugs: BugSwitches,
    /// Instrumentation bypass for the Table 5 overhead baseline.
    raw: AtomicBool,
    /// The paper's §6.2 sbitmap experiment: pretend threads were migrated
    /// so every CPU resolves per-CPU variables to CPU 0's copy.
    migration_override: AtomicBool,
    frames: Mutex<[Vec<&'static str>; MAX_CPUS]>,
    globals: OnceLock<Globals>,
    /// State at the end of boot, captured once by `Kctx::new`; what
    /// [`Kctx::reset`] restores.
    boot: OnceLock<MachineSnapshot>,
}

impl Kctx {
    /// Boots a machine with the given seeded-bug switches under the
    /// default TSO memory model.
    pub fn new(bugs: BugSwitches) -> Arc<Kctx> {
        Self::new_with_model(bugs, MemoryModel::Tso)
    }

    /// Boots a machine whose engine emulates the given memory model. Like
    /// the bug switches, the model is machine identity: fixed for the
    /// machine's lifetime and part of the pool key, never snapshot state.
    pub fn new_with_model(bugs: BugSwitches, model: MemoryModel) -> Arc<Kctx> {
        let k = Arc::new(Kctx {
            engine: Arc::new(Engine::new_with_model(MAX_CPUS, model)),
            kmem: Kmem::new(),
            fns: FnRegistry::new(),
            lockdep: Lockdep::new(),
            sink: OracleSink::new(),
            sched: Mutex::new(None),
            bugs,
            raw: AtomicBool::new(false),
            migration_override: AtomicBool::new(false),
            frames: Mutex::new(Default::default()),
            globals: OnceLock::new(),
            boot: OnceLock::new(),
        });
        // The resident image goes in first: the boot-time ballast standing
        // in for the static data, slab pools, and page metadata a real
        // kernel carries. It makes a full machine restore cost what
        // reverting a VM snapshot costs — proportional to machine size —
        // which is the baseline the dirty-set undo journal beats. The
        // content is deterministic and identical on every machine; the
        // range is reserved (no subsystem addresses into it) and excluded
        // from semantic digests.
        let image: Vec<u64> = (0..RESIDENT_IMAGE_WORDS)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xba11)
            .collect();
        k.engine.install_resident_image(RESIDENT_BASE, &image);
        let globals = Globals {
            wq: subsys::watch_queue::boot(&k),
            tls: subsys::tls::boot(&k),
            rds: subsys::rds::boot(&k),
            xsk: subsys::xsk::boot(&k),
            bpf: subsys::bpf_psock::boot(&k),
            smc: subsys::smc::boot(&k),
            vmci: subsys::vmci::boot(&k),
            gsm: subsys::gsm::boot(&k),
            vlan: subsys::vlan::boot(&k),
            fs: subsys::fs_fdtable::boot(&k),
            nbd: subsys::nbd::boot(&k),
            unix: subsys::unix_sock::boot(&k),
            sbitmap: subsys::sbitmap::boot(&k),
            buffer: subsys::buffer_head::boot(&k),
            ring_buffer: subsys::ring_buffer::boot(&k),
            filemap: subsys::filemap::boot(&k),
            usb: subsys::usb::boot(&k),
        };
        k.globals.set(globals).ok().expect("boot happens once");
        k.boot
            .set(k.snapshot())
            .ok()
            .expect("boot snapshot happens once");
        k
    }

    // ------------------------------------------------------------------
    // Snapshot / restore / reset.
    // ------------------------------------------------------------------

    /// Captures the machine's full mutable state. Each subsystem arms an
    /// undo-journal frame under the snapshot, so a later [`Kctx::restore`]
    /// to it rolls back only the state mutated in between.
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            engine: self.engine.snapshot(),
            kmem: self.kmem.snapshot(),
            fns: self.fns.snapshot(),
            lockdep: self.lockdep.snapshot(),
            sink: self.sink.capture(),
            raw: self.raw.load(Ordering::Relaxed),
            migration_override: self.migration_override.load(Ordering::Relaxed),
            frames: self.frames.lock().clone(),
        }
    }

    /// Restores a previously captured state, reusing the machine's existing
    /// allocations. Any installed scheduler is removed — snapshots are only
    /// taken between runs, never mid-concurrent-phase.
    ///
    /// Each subsystem takes its own incremental path when the snapshot's
    /// generation is still armed in its undo journal (the common case: the
    /// campaign loop restores the snapshot it just took) and falls back to
    /// the full `clone_from` otherwise; `engine.stats()` counts both
    /// outcomes for the machine's dominant subsystem.
    pub fn restore(&self, snap: &MachineSnapshot) {
        self.set_step_scheduler(None);
        self.engine.restore(&snap.engine);
        self.kmem.restore(&snap.kmem);
        self.fns.restore(&snap.fns);
        self.lockdep.restore(&snap.lockdep);
        self.sink.restore_from(&snap.sink);
        self.raw.store(snap.raw, Ordering::Relaxed);
        self.migration_override
            .store(snap.migration_override, Ordering::Relaxed);
        self.frames.lock().clone_from(&snap.frames);
    }

    /// Rolls the machine back to its exact end-of-boot state without
    /// reallocating — the reproduction's analog of the paper's long-lived
    /// in-vivo VMs, which run test after test without rebooting.
    pub fn reset(&self) {
        let boot = self.boot.get().expect("machine is booted");
        self.restore(boot);
    }

    /// Deterministic rendering of the machine's current semantic state;
    /// two machines with equal digests behave identically on any future
    /// input. Byte-identical to [`MachineSnapshot::digest`] of a snapshot
    /// taken at this instant, but streams over live state — no map is
    /// cloned, no undo-journal frame is armed (the recorded-run paths call
    /// this after every execution; a snapshot here would push stray frames
    /// mid-campaign).
    ///
    /// Cost: about 90 µs on a fresh boot and 110 µs after a triage replay
    /// (2-vCPU VM), for ~5 KB of text. Most of it is the scan over the word
    /// table. The resident image's words are dropped during that scan, so
    /// only the few dozen live words are copied and sorted.
    pub fn state_digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "machine raw={} migration_override={}",
            self.raw.load(Ordering::Relaxed),
            self.migration_override.load(Ordering::Relaxed)
        )
        .unwrap();
        for (cpu, frames) in self.frames.lock().iter().enumerate() {
            writeln!(out, "frames cpu={cpu} {frames:?}").unwrap();
        }
        for r in self.sink.snapshot() {
            writeln!(out, "report {}", r.title).unwrap();
        }
        self.engine.digest_live(&mut out);
        self.kmem.digest_live(&mut out);
        self.fns.digest_live(&mut out);
        self.lockdep.digest_live(&mut out);
        out
    }

    /// Boot-time globals.
    pub fn globals(&self) -> &Globals {
        self.globals.get().expect("machine is booted")
    }

    /// Whether `bug`'s buggy variant is compiled into this kernel.
    pub fn bug(&self, bug: BugId) -> bool {
        self.bugs.has(bug)
    }

    /// The bug switches this kernel was built with.
    pub fn switches(&self) -> &BugSwitches {
        &self.bugs
    }

    /// Installs (or removes) the step scheduler for the concurrent phase of
    /// a test.
    pub fn set_step_scheduler(&self, sched: Option<Arc<StepScheduler>>) {
        *self.sched.lock() = sched;
    }

    /// The memory model this machine's engine emulates (fixed at boot).
    pub fn memory_model(&self) -> MemoryModel {
        self.engine.memory_model()
    }

    /// Enables raw mode: accesses bypass gates, oracles, and the emulation
    /// engine. The `Linux` (uninstrumented) baseline of Table 5.
    pub fn set_raw(&self, raw: bool) {
        self.raw.store(raw, Ordering::Relaxed);
    }

    /// Whether raw mode is active.
    pub fn is_raw(&self) -> bool {
        self.raw.load(Ordering::Relaxed)
    }

    /// Enables the §6.2 manual per-CPU modification: all CPUs resolve
    /// per-CPU variables to CPU 0's slot, emulating the thread migration the
    /// sbitmap bug needs.
    pub fn set_migration_override(&self, on: bool) {
        self.migration_override.store(on, Ordering::Relaxed);
    }

    /// The CPU a thread's per-CPU accesses resolve to. OZZ pins each thread
    /// to its own CPU (§6.2), so without the override this is the thread id.
    pub fn cpu_of(&self, t: Tid) -> usize {
        if self.migration_override.load(Ordering::Relaxed) {
            0
        } else {
            t.0
        }
    }

    // ------------------------------------------------------------------
    // Function-frame tracking (for oops titles).
    // ------------------------------------------------------------------

    /// Pushes a kernel-function frame; the returned guard pops it. Fault
    /// titles name the innermost frame, like a real oops backtrace tip.
    pub fn enter(&self, t: Tid, name: &'static str) -> FnFrame<'_> {
        self.frames.lock()[t.0].push(name);
        FnFrame { k: self, t }
    }

    /// The innermost kernel function currently executing on `t`.
    pub fn current_fn(&self, t: Tid) -> &'static str {
        self.frames.lock()[t.0].last().copied().unwrap_or("kernel")
    }

    // ------------------------------------------------------------------
    // Oops machinery.
    // ------------------------------------------------------------------

    /// Records the fault and unwinds the simulated CPU (kernel oops).
    pub fn oops(&self, fault: Fault) -> ! {
        // A CrashSignal unwind is the simulated oops mechanism, never an
        // error in the harness itself; every raise site is paired with a
        // catch_unwind in `exec`. Silence the default "thread panicked"
        // stderr noise for it (once, process-wide) so campaign output is
        // the crash reports, not panic backtraces.
        static QUIET_CRASH_SIGNALS: std::sync::Once = std::sync::Once::new();
        QUIET_CRASH_SIGNALS.call_once(|| {
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info.payload().downcast_ref::<CrashSignal>().is_none() {
                    default_hook(info);
                }
            }));
        });
        let title = fault.title();
        self.sink.record(fault);
        std::panic::panic_any(CrashSignal { title });
    }

    /// `BUG_ON`-style assertion oracle.
    pub fn bug_on(&self, t: Tid, cond: bool, what: &'static str) {
        if cond {
            self.oops(Fault {
                kind: kmem::FaultKind::AssertFail {
                    what: what.to_string(),
                },
                addr: 0,
                in_fn: self.current_fn(t),
            });
        }
    }

    fn check(&self, t: Tid, addr: u64, write: bool) {
        if let Err(fault) = self.kmem.check_access(addr, 8, write, self.current_fn(t)) {
            self.oops(fault);
        }
    }

    fn gate_before(&self, t: Tid, iid: Iid) {
        // Clone out of the lock before gating: a firing gate runs the peer
        // leg as a nested call, and holding the sched slot's mutex across
        // it would deadlock the peer CPU's own gate calls.
        let sched = self.sched.lock().clone();
        if let Some(s) = sched {
            s.gate_before(t, iid);
        }
    }

    fn gate_after(&self, t: Tid, iid: Iid) {
        let sched = self.sched.lock().clone();
        if let Some(s) = sched {
            s.gate_after(t, iid);
        }
    }

    // ------------------------------------------------------------------
    // Instrumented accesses (the Figure 2 callbacks).
    // ------------------------------------------------------------------

    fn do_load(&self, t: Tid, iid: Iid, addr: u64, ann: LoadAnn) -> u64 {
        if self.is_raw() {
            return self.engine.raw_load(addr);
        }
        self.gate_before(t, iid);
        self.check(t, addr, false);
        let v = self.engine.load(t, iid, addr, ann);
        self.gate_after(t, iid);
        v
    }

    fn do_store(&self, t: Tid, iid: Iid, addr: u64, val: u64, ann: StoreAnn) {
        if self.is_raw() {
            self.engine.raw_store(addr, val);
            return;
        }
        self.gate_before(t, iid);
        self.check(t, addr, true);
        self.engine.store(t, iid, addr, val, ann);
        self.gate_after(t, iid);
    }

    /// A plain load (`x = *p`).
    pub fn read(&self, t: Tid, iid: Iid, addr: u64) -> u64 {
        self.do_load(t, iid, addr, LoadAnn::Plain)
    }

    /// `READ_ONCE(*p)`.
    pub fn read_once(&self, t: Tid, iid: Iid, addr: u64) -> u64 {
        self.do_load(t, iid, addr, LoadAnn::ReadOnce)
    }

    /// `smp_load_acquire(p)`.
    pub fn load_acquire(&self, t: Tid, iid: Iid, addr: u64) -> u64 {
        self.do_load(t, iid, addr, LoadAnn::Acquire)
    }

    /// A plain store (`*p = v`).
    pub fn write(&self, t: Tid, iid: Iid, addr: u64, val: u64) {
        self.do_store(t, iid, addr, val, StoreAnn::Plain)
    }

    /// `WRITE_ONCE(*p, v)`.
    pub fn write_once(&self, t: Tid, iid: Iid, addr: u64, val: u64) {
        self.do_store(t, iid, addr, val, StoreAnn::WriteOnce)
    }

    /// `smp_store_release(p, v)`.
    pub fn store_release(&self, t: Tid, iid: Iid, addr: u64, val: u64) {
        self.do_store(t, iid, addr, val, StoreAnn::Release)
    }

    /// An instrumented atomic read-modify-write.
    pub fn rmw(
        &self,
        t: Tid,
        iid: Iid,
        addr: u64,
        f: impl FnOnce(u64) -> u64,
        order: RmwOrder,
    ) -> u64 {
        if self.is_raw() {
            let old = self.engine.raw_load(addr);
            self.engine.raw_store(addr, f(old));
            return old;
        }
        self.gate_before(t, iid);
        self.check(t, addr, true);
        let old = self.engine.rmw(t, iid, addr, f, order);
        self.gate_after(t, iid);
        old
    }

    /// `smp_mb()`.
    pub fn smp_mb(&self, t: Tid, iid: Iid) {
        if !self.is_raw() {
            self.engine.smp_mb(t, iid);
        }
    }

    /// `smp_wmb()`.
    pub fn smp_wmb(&self, t: Tid, iid: Iid) {
        if !self.is_raw() {
            self.engine.smp_wmb(t, iid);
        }
    }

    /// `smp_rmb()`.
    pub fn smp_rmb(&self, t: Tid, iid: Iid) {
        if !self.is_raw() {
            self.engine.smp_rmb(t, iid);
        }
    }

    // ------------------------------------------------------------------
    // Memory management and indirect calls.
    // ------------------------------------------------------------------

    /// `kzalloc(size)` — allocates a zeroed object of `size` bytes.
    pub fn kzalloc(&self, size: u64, tag: &'static str) -> u64 {
        self.kmem.kzalloc(size, tag)
    }

    /// `kfree(p)`; double frees and wild frees oops.
    pub fn kfree(&self, t: Tid, addr: u64) {
        if let Err(fault) = self.kmem.kfree(addr, self.current_fn(t)) {
            self.oops(fault);
        }
    }

    /// Resolves an indirect call target; a null or wild pointer oopses —
    /// the `buf->ops->confirm()` crash of Figure 1.
    pub fn call_fn(&self, t: Tid, target: u64) -> &'static str {
        match self.fns.resolve(target, self.current_fn(t)) {
            Ok(name) => name,
            Err(fault) => self.oops(fault),
        }
    }

    /// Lockdep-checked lock acquisition (ordering oracle only; the custom
    /// scheduler already serialises execution, so no blocking is needed).
    pub fn lock(&self, t: Tid, lock: LockId) {
        if let Err(fault) = self.lockdep.acquire(t, lock, self.current_fn(t)) {
            self.oops(fault);
        }
    }

    /// Lockdep-checked lock release.
    pub fn unlock(&self, t: Tid, lock: LockId) {
        self.lockdep.release(t, lock);
    }

    /// Syscall-exit housekeeping: the paper's "interrupt" flush condition —
    /// returning to userspace drains the virtual store buffer.
    pub fn syscall_exit(&self, t: Tid) {
        if !self.is_raw() {
            self.engine.flush_thread(t);
        }
    }
}

/// RAII guard for a kernel-function frame.
pub struct FnFrame<'a> {
    k: &'a Kctx,
    t: Tid,
}

impl Drop for FnFrame<'_> {
    fn drop(&mut self) {
        self.k.frames.lock()[self.t.0].pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oemu::iid;

    #[test]
    fn boot_produces_working_machine() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let obj = k.kzalloc(32, "test");
        k.write(t, iid!(), obj, 7);
        assert_eq!(k.read(t, iid!(), obj), 7);
    }

    #[test]
    fn frames_nest() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        assert_eq!(k.current_fn(t), "kernel");
        {
            let _a = k.enter(t, "outer");
            assert_eq!(k.current_fn(t), "outer");
            {
                let _b = k.enter(t, "inner");
                assert_eq!(k.current_fn(t), "inner");
            }
            assert_eq!(k.current_fn(t), "outer");
        }
        assert_eq!(k.current_fn(t), "kernel");
    }

    #[test]
    fn null_read_oopses_with_frame_name() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _f = k.enter(t, "pipe_read");
            k.read(t, iid!(), 0);
        }));
        let payload = result.expect_err("oops must unwind");
        let sig = payload.downcast_ref::<CrashSignal>().expect("crash signal");
        assert_eq!(
            sig.title,
            "BUG: unable to handle kernel NULL pointer dereference in pipe_read"
        );
        assert!(k.sink.has_reports());
    }

    #[test]
    fn raw_mode_bypasses_engine_and_oracles() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        k.set_raw(true);
        // Null access does not fault in raw mode (no KASAN).
        assert_eq!(k.read(t, iid!(), 0), 0);
        // Stores are direct: no history, no profiling.
        k.write(t, iid!(), 0x9000, 3);
        assert_eq!(k.engine.raw_load(0x9000), 3);
        k.set_raw(false);
    }

    #[test]
    fn cpu_pinning_and_migration_override() {
        let k = Kctx::new(BugSwitches::none());
        assert_eq!(k.cpu_of(Tid(1)), 1);
        k.set_migration_override(true);
        assert_eq!(k.cpu_of(Tid(1)), 0);
    }

    #[test]
    fn call_fn_null_oopses() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let ok = k.fns.register("tls_setsockopt");
        assert_eq!(k.call_fn(t, ok), "tls_setsockopt");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _f = k.enter(t, "tls_setsockopt");
            k.call_fn(t, 0);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn reset_restores_exact_boot_state() {
        let fresh = Kctx::new(BugSwitches::all());
        let k = Kctx::new(BugSwitches::all());
        let boot_digest = fresh.state_digest();
        assert_eq!(
            k.state_digest(),
            boot_digest,
            "boot is deterministic: two fresh machines agree byte-for-byte"
        );

        // Dirty every state dimension reset() must clear: delayed-store and
        // versioned-load controls, memory + store history, lockdep edges,
        // the oracle sink, per-CPU frames, and the mode flags.
        let t = Tid(0);
        let i = iid!();
        k.engine.delay_store_at(t, i);
        k.engine.read_old_value_at(Tid(1), iid!());
        let obj = k.kzalloc(32, "dirty");
        k.write(t, i, obj, 7); // delayed: sits in the store buffer
        k.write(t, iid!(), obj + 8, 9); // commits: memory + history entry
        k.lock(t, LockId(0x11));
        k.lock(t, LockId(0x22)); // learned ordering edge
        k.unlock(t, LockId(0x22));
        k.unlock(t, LockId(0x11));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _f = k.enter(t, "dirty_fn");
            k.read(t, iid!(), 0); // null deref -> sink report
        }));
        k.set_migration_override(true);
        k.set_raw(true);
        assert_ne!(k.state_digest(), boot_digest, "machine is dirty");
        assert!(k.sink.has_reports());
        assert!(k.engine.pending_stores(t) > 0);

        k.reset();
        assert_eq!(
            k.state_digest(),
            boot_digest,
            "reset() restores the exact boot state"
        );
        assert!(!k.sink.has_reports(), "sink cleared");
        assert_eq!(k.engine.pending_stores(t), 0, "controls + buffer cleared");
        // The cleared delay control stays cleared: a store at the formerly
        // delayed iid now commits immediately.
        let obj2 = k.kzalloc(32, "after");
        k.write(t, i, obj2, 5);
        assert_eq!(k.engine.raw_load(obj2), 5);
        // And the reset machine behaves like the fresh one.
        assert_eq!(k.cpu_of(Tid(1)), 1, "migration override cleared");
        assert!(!k.is_raw(), "raw mode cleared");
    }

    #[test]
    fn state_digest_streams_byte_identical_to_snapshot_digest() {
        let k = Kctx::new(BugSwitches::all());
        let t = Tid(0);
        // Dirty several dimensions so the digest is non-trivial.
        let obj = k.kzalloc(32, "digest");
        k.write(t, iid!(), obj, 7);
        k.lock(t, LockId(0x11));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _f = k.enter(t, "digest_fn");
            k.read(t, iid!(), 0);
        }));
        let live = k.state_digest();
        assert_eq!(live, k.snapshot().digest());
        // And streaming must not have armed a journal frame of its own
        // (one boot frame + the snapshot above are expected).
        assert_eq!(k.engine.journal_depth(), 2);
    }

    #[test]
    fn state_digest_skips_the_resident_image_under_every_model() {
        let resident = RESIDENT_BASE..RESIDENT_BASE + 8 * RESIDENT_IMAGE_WORDS;
        for model in MemoryModel::ALL {
            let k = Kctx::new_with_model(BugSwitches::all(), model);
            assert_eq!(
                k.engine.resident_image(),
                Some((resident.start, resident.end))
            );
            let t = Tid(0);
            let i = iid!();
            k.engine.delay_store_at(t, i);
            let obj = k.kzalloc(32, "resident");
            k.write(t, i, obj, 3); // delayed
            k.write(t, iid!(), obj + 8, 4); // committed
            k.write(Tid(1), iid!(), obj + 16, 5);
            let live = k.state_digest();
            let mem_lines: Vec<u64> = live
                .lines()
                .filter_map(|l| l.strip_prefix("mem 0x"))
                .map(|l| u64::from_str_radix(l.split('=').next().unwrap(), 16).unwrap())
                .collect();
            assert!(
                mem_lines.contains(&(obj + 8)),
                "{model:?}: dirty word rendered"
            );
            assert!(
                mem_lines.iter().all(|a| !resident.contains(a)),
                "{model:?}: no resident word in the digest"
            );
            assert!(
                mem_lines.windows(2).all(|w| w[0] < w[1]),
                "{model:?}: words sorted"
            );
            assert_eq!(live, k.snapshot().digest(), "{model:?}");
        }
    }

    #[test]
    fn reset_takes_the_incremental_path_and_counts_it() {
        let k = Kctx::new(BugSwitches::all());
        let boot_digest = k.state_digest();
        let t = Tid(0);
        for round in 0..3u64 {
            let obj = k.kzalloc(32, "round");
            k.write(t, iid!(), obj, round);
            k.lock(t, LockId(0x33));
            k.unlock(t, LockId(0x33));
            k.reset();
            assert_eq!(k.state_digest(), boot_digest);
        }
        let s = k.engine.stats();
        assert_eq!(s.restores_incremental, 3, "every reset was incremental");
        assert_eq!(s.restore_full_fallbacks, 0);
        assert!(s.restore_words_replayed > 0);
    }

    #[test]
    fn cross_machine_restore_falls_back_once_then_rearms() {
        let t = Tid(0);
        let a = Kctx::new(BugSwitches::all());
        let obj = a.kzalloc(32, "donor");
        a.write(t, iid!(), obj, 1);
        a.lock(t, LockId(0x44));
        a.lock(t, LockId(0x55));
        a.unlock(t, LockId(0x55));
        a.unlock(t, LockId(0x44));
        let snap = a.snapshot();
        let want = snap.digest();

        // `b` never armed `a`'s generations: one full fallback lands it on
        // `a`'s state and re-arms every journal at the restored snapshot.
        let b = Kctx::new(BugSwitches::all());
        b.restore(&snap);
        assert_eq!(b.state_digest(), want);
        let s = b.engine.stats();
        assert_eq!((s.restore_full_fallbacks, s.restores_incremental), (1, 0));
        assert_eq!(b.engine.journal_depth(), 1);
        assert_eq!(b.kmem.journal_depth(), 1);

        // Dirty `b` and restore the same snapshot: now incremental.
        let obj = b.kzalloc(16, "recipient");
        b.write(t, iid!(), obj, 2);
        b.lock(t, LockId(0x66));
        b.unlock(t, LockId(0x66));
        b.fns.register("recipient_fn");
        assert_ne!(b.state_digest(), want);
        b.restore(&snap);
        assert_eq!(b.state_digest(), want);
        let s = b.engine.stats();
        assert_eq!((s.restore_full_fallbacks, s.restores_incremental), (1, 1));
    }

    #[test]
    fn syscall_exit_flushes_delayed_stores() {
        let k = Kctx::new(BugSwitches::none());
        let t = Tid(0);
        let obj = k.kzalloc(16, "o");
        let i = iid!();
        k.engine.delay_store_at(t, i);
        k.write(t, i, obj, 5);
        assert_eq!(k.engine.raw_load(obj), 0);
        k.syscall_exit(t);
        assert_eq!(k.engine.raw_load(obj), 5);
    }
}
