//! The campaign workloads: `steady`, `patched_pso` and `discover`.
//!
//! Untraced runs go through the public campaign entry points
//! (`Fuzzer::step`, `CampaignBuilder::run`). Traced runs first repeat the
//! untraced run at half length as the reference, then re-run exactly the
//! same steps through [`TracedFuzzer`] and fail unless every deterministic
//! output matches.

use std::time::Instant;

use kernelsim::{BugId, BugSwitches, MemoryModel, RestoreCounters};
use ozz::campaign::CampaignBuilder;
use ozz::fuzzer::{FuzzConfig, Fuzzer, STALL_LIMIT};

use crate::checks;
use crate::procfs::{peak_rss_mb, ProcSample};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, percentile_checked, summary, weighted_percentile};
use crate::traced::{CampaignOutputs, LayerCounts, TracedFuzzer};
use crate::{stream_seed, Args};

/// Campaigns per `steady` / `patched_pso` run, each warmed up and then
/// timed for an equal share of the run. A campaign's MTI cost depends on
/// its seed's corpus (campaign to campaign it varies by ~8%), so a run
/// pools eight.
const LONG_CAMPAIGNS: u64 = 8;
/// Warm-up floor: a campaign is timed only after this many MTIs and after
/// it has found every expected title, so first sightings are over (the
/// all-bugs build finds its titles within a few thousand MTIs).
const WARM_MTIS: u64 = 10_000;
/// A warm-up that has not found every expected title by now has failed.
const WARM_CAP: u64 = 200_000;
/// Untimed `discover` campaigns run before timing starts.
const DISCOVER_WARMUPS: u64 = 30;
/// Timed `discover` campaigns at least, so p90 has ten samples beyond it.
/// `tests_to_find` is the median over exactly these, so it repeats exactly
/// for a seed however many campaigns the time allows.
const DISCOVER_MIN: usize = 100;
/// MTI budget of one `discover` campaign; hitting it means the campaign
/// did not find every expected title.
const DISCOVER_BUDGET: u64 = 200_000;

/// A kernel build and memory model, with the titles a campaign on it is
/// expected to find.
pub struct Build {
    pub bugs: BugSwitches,
    pub model: MemoryModel,
    pub expected: Vec<String>,
}

impl Build {
    /// The all-bugs build under TSO, hunting the paper's new bugs — what
    /// `CampaignBuilder::new` runs.
    pub fn all_bugs_tso() -> Build {
        Build {
            bugs: BugSwitches::all(),
            model: MemoryModel::Tso,
            expected: BugId::NEW
                .iter()
                .map(|b| b.expected_title().to_string())
                .collect(),
        }
    }

    /// The patched build under PSO: nothing to find.
    pub fn patched_pso() -> Build {
        Build {
            bugs: BugSwitches::none(),
            model: MemoryModel::Pso,
            expected: Vec::new(),
        }
    }

    fn config(&self, seed: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            bugs: self.bugs.clone(),
            memory_model: self.model,
            ..FuzzConfig::default()
        }
    }
}

/// One warmed-up, timed campaign of `steady` / `patched_pso`.
struct LongRun {
    cfg: FuzzConfig,
    outputs: CampaignOutputs,
    setup_s: f64,
    warm_steps: u64,
    timed_s: f64,
    timed_mtis: u64,
    timed_steps: u64,
    /// Per timed step that ran MTIs: the wall time since the previous such
    /// step ended, per MTI, and the MTIs it ran.
    mti_ms: Vec<(f64, u64)>,
    proc: ProcSample,
}

/// Runs one campaign: warm-up, then `timed_s` of timed steps, then the
/// checks. The fuzzer is dropped before the next campaign starts.
fn long_run(build: &Build, seed: u64, timed_s: f64, out: &mut Outcome) -> Result<LongRun, String> {
    let cfg = build.config(seed);
    let start = Instant::now();
    let mut f = Fuzzer::new(cfg.clone());
    let found_all = |f: &Fuzzer| build.expected.iter().all(|t| f.found().contains_key(t));
    let mut warm_steps = 0;
    let mut stalled = false;
    while !(found_all(&f) && f.stats().mtis_run >= WARM_MTIS) && f.stats().mtis_run < WARM_CAP {
        f.step();
        warm_steps += 1;
        if f.stats().barren_stis >= STALL_LIMIT {
            stalled = true;
            break;
        }
    }
    let setup_s = start.elapsed().as_secs_f64();
    let warmed = found_all(&f) && f.stats().mtis_run >= WARM_MTIS;
    let warm_mtis = f.stats().mtis_run;
    let (mut timed_steps, mut mti_ms) = (0, Vec::new());
    let before = ProcSample::now()?;
    let timed = Instant::now();
    let mut since = timed;
    while warmed && !stalled && timed.elapsed().as_secs_f64() < timed_s {
        let mtis = f.stats().mtis_run;
        f.step();
        timed_steps += 1;
        let ran = f.stats().mtis_run - mtis;
        if ran > 0 {
            mti_ms.push((since.elapsed().as_secs_f64() * 1e3 / ran as f64, ran));
            since = Instant::now();
        }
        stalled = f.stats().barren_stis >= STALL_LIMIT;
    }
    let timed_s = timed.elapsed().as_secs_f64();
    let proc = ProcSample::now()?.since(&before);
    check_long(build, seed, &f, warmed, stalled, out);
    Ok(LongRun {
        cfg,
        outputs: CampaignOutputs::of_fuzzer(&f),
        timed_mtis: f.stats().mtis_run - warm_mtis,
        setup_s,
        warm_steps,
        timed_s,
        timed_steps,
        mti_ms,
        proc,
    })
}

/// `steady` (all bugs, TSO) and `patched_pso` (no bugs, PSO):
/// [`LONG_CAMPAIGNS`] campaigns on the first seeds of the workload seed's
/// stream, one after another.
pub fn run_long(args: &Args, build: &Build) -> Result<Outcome, String> {
    let slice_s = args.untraced_seconds() / LONG_CAMPAIGNS as f64;
    let mut out = Outcome::default();
    let mut runs = Vec::new();
    for k in 0..LONG_CAMPAIGNS {
        let run = long_run(build, stream_seed(args.seed, k), slice_s, &mut out)?;
        println!(
            "campaign seed {:>20}: warm-up {} steps in {:.3} s; timed {} MTIs in {:.3} s, \
             {:.2} minflt/MTI, sys share {:.3}",
            run.cfg.seed,
            run.warm_steps,
            run.setup_s,
            run.timed_mtis,
            run.timed_s,
            run.proc.minflt as f64 / run.timed_mtis.max(1) as f64,
            run.proc.sys_share()
        );
        runs.push(run);
    }

    let mti_ms: Vec<(f64, u64)> = runs.iter().flat_map(|r| r.mti_ms.clone()).collect();
    let mtis: u64 = runs.iter().map(|r| r.timed_mtis).sum();
    let [p50, p90] = [0.5, 0.9].map(|p| weighted_percentile(&mti_ms, p));
    let (p50, p90) = p50
        .zip(p90)
        .ok_or_else(|| format!("the timed spans ran {mtis} MTIs, too few for p90"))?;
    println!("MTI ms: n {mtis} median {p50:.4} p90 {p90:.4}");
    let timed_s: f64 = runs.iter().map(|r| r.timed_s).sum();
    out.set("setup_s", runs.iter().map(|r| r.setup_s).sum());
    out.set("mtis_per_s", mtis as f64 / timed_s);
    out.set("op_ms_p50", p50);
    out.set("op_ms_p90", p90);
    out.set("peak_rss_mb", peak_rss_mb()?);
    if build.expected.is_empty() {
        out.set("ozz.campaign.tests_to_find", 0.0);
    } else {
        let ttf: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.outputs.tests_to_find(&build.expected))
            .map(|t| t as f64)
            .collect();
        if !ttf.is_empty() {
            out.set("ozz.campaign.tests_to_find", median(&ttf));
        }
    }
    if args.trace {
        trace_long(&runs, &mut out);
    }
    Ok(out)
}

/// The `steady` / `patched_pso` correctness checks on one campaign.
fn check_long(
    build: &Build,
    seed: u64,
    f: &Fuzzer,
    warmed: bool,
    stalled: bool,
    out: &mut Outcome,
) {
    out.attempted += f.stats().mtis_run;
    if !warmed {
        out.fail(format!(
            "seed {seed}: warm-up found {:?} of {:?} in {} MTIs",
            f.found().keys().collect::<Vec<_>>(),
            build.expected,
            f.stats().mtis_run
        ));
    }
    if stalled {
        out.fail(format!("seed {seed}: campaign stalled"));
    }
    if build.bugs == BugSwitches::none() {
        if let Err(why) = checks::no_crash_reports(&CampaignOutputs::of_fuzzer(f)) {
            out.fail_n(f.stats().crashes_total, format!("seed {seed}: {why}"));
        }
        return;
    }
    let expected = checks::expected_titles(&build.bugs);
    for title in checks::unexpected_titles(f.found().keys().map(String::as_str), &expected) {
        let n = f.crash_counts().get(title).copied().unwrap_or(1);
        out.fail_n(n, format!("seed {seed}: unexpected crash title '{title}'"));
    }
}

/// Traced pass over the campaigns the untraced pass ran.
fn trace_long(runs: &[LongRun], out: &mut Outcome) {
    let mut tr = Tracer::default();
    let mut layers = CampaignLayers::default();
    for run in runs {
        let mut d = TracedFuzzer::new(&run.cfg);
        let (mut warm, mut warm_counts) = (Tracer::default(), LayerCounts::default());
        for _ in 0..run.warm_steps {
            d.step(&mut warm, &mut warm_counts);
        }
        let restores = d.restore_counters();
        let boots = d.boots();
        let start = Instant::now();
        for _ in 0..run.timed_steps {
            d.step(&mut tr, &mut layers.counts);
        }
        layers.traced_s += start.elapsed().as_secs_f64();
        layers.untraced_s += run.timed_s;
        layers.add(&d, restores, boots);
        layers.ops += run.timed_steps;
        layers.proc = layers.proc.plus(&run.proc);
        if d.outputs() != run.outputs {
            out.problems.push(format!(
                "fidelity: traced fuzzer diverged from the fuzzer on seed {}: {:?} != {:?}",
                run.cfg.seed,
                d.outputs(),
                run.outputs
            ));
        }
    }
    layers.report(&tr, out);
}

/// `discover`: fresh campaigns back to back until every expected title.
pub fn run_discover(args: &Args) -> Result<Outcome, String> {
    let build = Build::all_bugs_tso();
    let mut out = Outcome::default();
    let start = Instant::now();
    for k in 0..DISCOVER_WARMUPS {
        campaign(stream_seed(args.seed, k));
    }
    let setup_s = start.elapsed().as_secs_f64();
    let run_s = args.untraced_seconds();
    let mut seeds = Vec::new();
    let mut wall_ms = Vec::new();
    let mut outputs = Vec::new();
    let mut proc = ProcSample::default();
    let start = Instant::now();
    while wall_ms.len() < DISCOVER_MIN || start.elapsed().as_secs_f64() < run_s {
        let seed = stream_seed(args.seed, DISCOVER_WARMUPS + seeds.len() as u64);
        let before = ProcSample::now()?;
        let t = Instant::now();
        let o = campaign(seed);
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        proc = proc.plus(&ProcSample::now()?.since(&before));
        out.attempted += 1;
        let missing = checks::missing_titles(&o, &build.expected);
        if !missing.is_empty() {
            out.fail(format!("campaign seed {seed}: {missing:?} not found"));
        }
        seeds.push(seed);
        outputs.push(o);
    }
    let mtis: u64 = outputs.iter().map(|o| o.mtis_run).sum();
    let total_s: f64 = wall_ms.iter().sum::<f64>() / 1e3;
    let ttf: Vec<f64> = outputs[..DISCOVER_MIN]
        .iter()
        .filter_map(|o| o.tests_to_find(&build.expected))
        .map(|t| t as f64)
        .collect();
    println!(
        "{} campaigns, {mtis} MTIs, {:.2} minflt/MTI, sys share {:.3}",
        wall_ms.len(),
        proc.minflt as f64 / mtis as f64,
        proc.sys_share()
    );
    println!("campaign ms: {}", summary(&wall_ms));
    out.set("setup_s", setup_s);
    out.set("mtis_per_s", mtis as f64 / total_s);
    out.set("op_ms_p50", median(&wall_ms));
    let p90 = percentile_checked(&wall_ms, 0.9).expect("DISCOVER_MIN campaigns support p90");
    out.set("op_ms_p90", p90);
    out.set("peak_rss_mb", peak_rss_mb()?);
    if !ttf.is_empty() {
        out.set("ozz.campaign.tests_to_find", median(&ttf));
    }
    if args.trace {
        let mut tr = Tracer::default();
        let mut layers = CampaignLayers {
            untraced_s: total_s,
            proc,
            ops: seeds.len() as u64,
            ..CampaignLayers::default()
        };
        for (&seed, want) in seeds.iter().zip(&outputs) {
            let start = Instant::now();
            let mut d = TracedFuzzer::new(&build.config(seed));
            while d.mtis_run() < DISCOVER_BUDGET {
                d.step(&mut tr, &mut layers.counts);
                if d.found_all(&build.expected) || d.barren_stis >= STALL_LIMIT {
                    break;
                }
            }
            layers.traced_s += start.elapsed().as_secs_f64();
            layers.add(&d, RestoreCounters::default(), 0);
            if &d.outputs() != want {
                out.problems.push(format!(
                    "fidelity: traced fuzzer diverged from the campaign on seed {seed}: {:?} != {want:?}",
                    d.outputs()
                ));
            }
        }
        layers.report(&tr, &mut out);
    }
    Ok(out)
}

/// One `discover` campaign: `CampaignBuilder::new` with one shard and one
/// worker, hunting the default `BugId::NEW` titles.
fn campaign(seed: u64) -> CampaignOutputs {
    let report = CampaignBuilder::new(seed)
        .shards(1)
        .workers(1)
        .budget(DISCOVER_BUDGET)
        .run();
    CampaignOutputs::of_report(&report)
}

/// What a traced campaign pass accumulates for the per-layer metrics.
#[derive(Default)]
struct CampaignLayers {
    counts: LayerCounts,
    restores: RestoreCounters,
    boots: u64,
    /// Operations: steps on `steady` / `patched_pso`, campaigns on
    /// `discover`.
    ops: u64,
    /// Process counters over the untraced timed spans.
    proc: ProcSample,
    untraced_s: f64,
    traced_s: f64,
}

impl CampaignLayers {
    /// Adds a traced fuzzer's restores and boots since `restores` / `boots` were
    /// read.
    fn add(&mut self, d: &TracedFuzzer, restores: RestoreCounters, boots: u64) {
        let now = d.restore_counters();
        self.restores.incremental += now.incremental - restores.incremental;
        self.restores.words_replayed += now.words_replayed - restores.words_replayed;
        self.restores.full_fallbacks += now.full_fallbacks - restores.full_fallbacks;
        self.boots += d.boots() - boots;
    }

    fn report(&self, tr: &Tracer, out: &mut Outcome) {
        let c = &self.counts;
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let us = |name: &str, d: u64| tr.get(name).us_per(d);
        out.set(
            "kernelsim.snapshot.us_per_pair",
            us("kernelsim.snapshot", c.pairs),
        );
        out.set("proc.minflt_per_mti", per(self.proc.minflt, c.mtis));
        out.set("proc.sys_share", self.proc.sys_share());
        let restore = tr.get("kernelsim.restore");
        out.set(
            "kernelsim.restore.us_per_call",
            restore.us_per(restore.calls),
        );
        let restores = self.restores.incremental + self.restores.full_fallbacks;
        out.set(
            "kernelsim.restore.words_per_restore",
            per(self.restores.words_replayed, restores),
        );
        out.set(
            "kernelsim.restore.full_fallbacks",
            self.restores.full_fallbacks as f64,
        );
        out.set(
            "kernelsim.reset.us_per_pair",
            us("kernelsim.reset", c.pairs),
        );
        out.set("ozz.mti.setup.us_per_pair", us("ozz.mti.setup", c.pairs));
        out.set("ozz.mti.setup.calls_per_pair", per(c.setup_calls, c.pairs));
        out.set("ozz.mti.pair.us_per_mti", us("ozz.mti.pair", c.mtis));
        out.set("ozz.mti.pair.crash_share", per(c.crash_mtis, c.mtis));
        out.set("ozz.profile.us_per_sti", us("ozz.profile", c.stis));
        out.set("ozz.profile.events_per_sti", per(c.profile_events, c.stis));
        out.set("ozz.hints.us_per_sti", us("ozz.hints", c.stis));
        out.set("ozz.hints.mtis_per_sti", per(c.mtis, c.stis));
        out.set("ozz.hints.crash_yield", per(c.crash_mtis, c.hints));
        out.set("ozz.sti.us_per_sti", us("ozz.sti", c.stis));
        out.set("kernelsim.pool.boots", per(self.boots, self.ops));
        let checkout = tr.get("kernelsim.pool.checkout");
        out.set(
            "kernelsim.pool.checkout_us",
            checkout.us_per(checkout.calls),
        );
        let checkin = tr.get("kernelsim.pool.checkin");
        out.set("kernelsim.pool.checkin_us", checkin.us_per(checkin.calls));
        out.set(
            "ozz.fuzzer.record.us_per_call",
            us("ozz.fuzzer.record", c.records),
        );
        out.set("ozz.fuzzer.record.calls", per(c.records, self.ops));
        out.set(
            "kernelsim.digest.us_per_call",
            us("kernelsim.digest", c.records),
        );
        out.set("kernelsim.digest.bytes", per(c.digest_bytes, c.records));
        out.set("trace.coverage", tr.covered_s() / self.traced_s);
        out.set("trace.overhead", self.traced_s / self.untraced_s);
        print_breakdown(tr, self.traced_s);
    }
}

/// Self time per span name, largest first, as a share of traced wall time.
pub fn print_breakdown(tr: &Tracer, wall_s: f64) {
    for (name, self_s) in tr.self_breakdown() {
        println!(
            "  {name:<32} self {:>8.3} s  {:>5.1}% of traced wall",
            self_s,
            100.0 * self_s / wall_s
        );
    }
}
