//! Fixes glibc's heap thresholds at their initial values.
//!
//! Under glibc's defaults a pooled campaign lands in one of two regimes,
//! depending on heap history alone. Both thresholds start at 128 KiB and
//! glibc raises them the first time it frees a large mapped chunk. In the
//! slow regime the memory a snapshot frees after each pair goes back to
//! the kernel and the next snapshot faults its pages in again: ~17 minor
//! faults per MTI, and over half the CPU time spent in the kernel. In the
//! fast one the memory is reused and almost nothing faults. A regime holds
//! for many campaigns at a time, so two runs of the same seed can differ
//! by 2–3× in MTIs/s.
//!
//! The benchmark sets both thresholds to their initial values with
//! `mallopt`, which also turns their adaptation off. Every run then stays
//! in the state glibc starts in, before its first adaptation: large
//! snapshot buffers are mapped afresh on every snapshot (~37 faults per
//! MTI on every seed), so the cost of cloning memory on every snapshot
//! shows in `mtis_per_s` and `proc.minflt_per_mti` rather than depending
//! on the seed. README.md has a seed sweep with and without the pin.

/// glibc's initial mmap threshold (`DEFAULT_MMAP_THRESHOLD_MIN`).
pub const MMAP_THRESHOLD_BYTES: i32 = 128 << 10;
/// glibc's initial trim threshold (`DEFAULT_TRIM_THRESHOLD`).
pub const TRIM_THRESHOLD_BYTES: i32 = 128 << 10;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    /// `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD` from glibc's `malloc.h`.
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;

    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
    }
}

/// Fixes glibc's mmap and trim thresholds at [`MMAP_THRESHOLD_BYTES`] and
/// [`TRIM_THRESHOLD_BYTES`], turning their adaptation off.
pub fn pin() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use glibc::*;
        for (param, value, name) in [
            (M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES, "M_MMAP_THRESHOLD"),
            (M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES, "M_TRIM_THRESHOLD"),
        ] {
            // SAFETY: mallopt only updates allocator parameters; it runs at
            // startup, on the only thread.
            if unsafe { mallopt(param, value) } != 1 {
                return Err(format!("mallopt({name}) failed"));
            }
        }
        Ok(())
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    Err("the benchmark fixes glibc's heap thresholds and needs glibc".into())
}
