//! Kill/resume equivalence across process boundaries.
//!
//! The campaign checkpoint is specified to capture *everything* the
//! engine needs: corpus, coverage, RNG streams, statistics, crash
//! diagnoses with embedded schedule traces, and the per-shard broadcast
//! protocol state. These tests enforce the strongest form of that claim:
//! a campaign halted mid-budget and resumed **in a fresh process** must
//! render byte-identically to an uninterrupted run — for multiple seeds,
//! and with the resumed process running a different number of workers.
//!
//! The fresh process is this same test binary re-executed with
//! `resume_helper --exact`: the helper is an env-gated test that resumes
//! from `OZZ_RESUME_CHECKPOINT` and writes its rendered report to
//! `OZZ_RESUME_OUT` on `OZZ_RESUME_WORKERS` workers (it passes trivially
//! when the variables are unset).

use std::path::PathBuf;

use ozz::campaign::{CampaignBuilder, CampaignReport};

const SHARDS: usize = 3;
const WORKERS: usize = 2;
const BUDGET: u64 = 600;
const EPOCH_MTIS: u64 = 48;
const HALT_AFTER: u64 = 2;

/// Everything determinism-pinned in a report, rendered to text. Steal
/// counts and batch timings are deliberately absent (observability only);
/// instruction ids round-trip because checkpoint parsing re-registers
/// them by token.
fn render(r: &CampaignReport) -> String {
    let shard_lines: Vec<String> = r
        .shard_stats
        .iter()
        .map(|s| {
            format!(
                "shard {} {:?} epochs {} done {}",
                s.shard, s.fuzz, s.epochs, s.done
            )
        })
        .collect();
    format!(
        "found {:#?}\nstats {:?}\ncoverage {:?}\nrounds {}\nshards {}\ncrashdb:\n{}",
        r.found,
        r.stats,
        r.coverage,
        r.rounds,
        shard_lines.join("\n"),
        r.crashes.to_text()
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ozz-resume-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the uninterrupted reference campaign in-process.
fn full_run(seed: u64) -> CampaignReport {
    CampaignBuilder::new(seed)
        .shards(SHARDS)
        .workers(WORKERS)
        .budget(BUDGET)
        .epoch_mtis(EPOCH_MTIS)
        .run()
}

/// Halts a campaign mid-budget, writing the checkpoint to `ckpt`.
fn halted_run(seed: u64, ckpt: &PathBuf) -> CampaignReport {
    CampaignBuilder::new(seed)
        .shards(SHARDS)
        .workers(WORKERS)
        .budget(BUDGET)
        .epoch_mtis(EPOCH_MTIS)
        .checkpoint_to(ckpt)
        .halt_after_epochs(HALT_AFTER)
        .run()
}

fn assert_resumes_identically_in_fresh_process(seed: u64, resume_workers: usize) {
    let dir = scratch_dir(&format!("{seed}-w{resume_workers}"));
    let ckpt = dir.join("campaign.ckpt");
    let out = dir.join("resumed.txt");

    let reference = render(&full_run(seed));
    let halted = halted_run(seed, &ckpt);
    assert!(
        halted.halted,
        "seed {seed}: the campaign must halt mid-budget"
    );
    assert!(
        ckpt.exists(),
        "seed {seed}: the checkpoint file was written"
    );
    assert_ne!(
        render(&halted),
        reference,
        "seed {seed}: the halted campaign stopped early, so its render must differ"
    );

    // Resume in a *fresh process*: re-exec this test binary against the
    // env-gated helper below. Nothing from this process's memory survives
    // — only the checkpoint file crosses the boundary.
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args(["resume_helper", "--exact", "--nocapture"])
        .env("OZZ_RESUME_CHECKPOINT", &ckpt)
        .env("OZZ_RESUME_OUT", &out)
        .env("OZZ_RESUME_WORKERS", resume_workers.to_string())
        .status()
        .expect("spawn resume helper process");
    assert!(status.success(), "seed {seed}: resume helper failed");

    let resumed = std::fs::read_to_string(&out).expect("helper wrote its render");
    assert_eq!(
        resumed, reference,
        "seed {seed}: fresh-process resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fresh-process half of the tests above. Gated on the env vars the
/// parent sets; a plain `cargo test` run passes straight through it.
#[test]
fn resume_helper() {
    let Ok(ckpt) = std::env::var("OZZ_RESUME_CHECKPOINT") else {
        return;
    };
    let out = std::env::var("OZZ_RESUME_OUT").expect("OZZ_RESUME_OUT set with the checkpoint");
    let workers = std::env::var("OZZ_RESUME_WORKERS")
        .expect("OZZ_RESUME_WORKERS set with the checkpoint")
        .parse()
        .expect("OZZ_RESUME_WORKERS is a count");
    let report = CampaignBuilder::resume_from(&ckpt)
        .expect("checkpoint file parses")
        .workers(workers)
        .run();
    assert!(!report.halted, "the resumed campaign runs to completion");
    std::fs::write(&out, render(&report)).expect("write the resumed render");
}

#[test]
fn fresh_process_resume_is_byte_identical_seed_2024() {
    assert_resumes_identically_in_fresh_process(2024, WORKERS);
}

#[test]
fn fresh_process_resume_is_byte_identical_seed_7() {
    assert_resumes_identically_in_fresh_process(7, WORKERS);
}

#[test]
fn fresh_process_resume_on_one_worker_is_byte_identical() {
    // The checkpoint stores no worker-pool state: a campaign halted on
    // `WORKERS` workers and resumed on one must still match the reference.
    assert_resumes_identically_in_fresh_process(2024, 1);
}
