//! Crash-consistency bench: the two-phase commit under the exhaustive
//! crash-point sweep, plus retry/backoff weather, as a regression gate.
//!
//! ```text
//! cargo run --release -p drms-bench --bin chaos -- [--fault-seed N] \
//!     [--json DIR] [--baseline PATH] [--tolerance 0.05] [--bless]
//! ```
//!
//! Three campaigns over the iterative checkpoointing job:
//!
//! 1. **Clean** — no faults: the reference checksum and commit count.
//! 2. **Weather** — message drops/duplicates/latency and transient PIOFS
//!    errors, all retried under the backoff policy: the job must complete
//!    in one incarnation, bitwise-exact, and the retry counters land in
//!    the result.
//! 3. **Sweep** — every enumerated [`CrashPoint`], one armed crash each:
//!    the job must recover bitwise, never restart from a `.tmp` staging
//!    prefix, and the table below reports per point which checkpoint (and
//!    how many bytes of it) recovery replayed.
//!
//! Every campaign runs twice and must be bit-identical (the determinism
//! contract of the stateless fault hashing). With `--json DIR` the
//! headline numbers land in `BENCH_chaos.json`; `--baseline PATH`
//! compares against a committed baseline within `--tolerance` (relative);
//! `--bless` rewrites the baseline. The fault seed follows the repo-wide
//! `FAULT_SEED` convention (flag wins over environment).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use drms_bench::gate::{baseline_gate, run_gated};
use drms_bench::json::BenchResult;
use drms_chaos::{ChaosCtl, CrashPoint, FaultPlan, MsgFaults, PiofsFaults};
use drms_core::segment::DataSegment;
use drms_core::{find_checkpoints, Drms, DrmsConfig};
use drms_darray::{DistArray, Distribution};
use drms_msg::CostModel;
use drms_obs::{names, TraceRecorder};
use drms_piofs::{Piofs, PiofsConfig};
use drms_rtenv::{
    EventLog, JobOutcome, JobSpec, Jsa, JsaPolicy, ProcessorState, ResourceCoordinator, RunSummary,
};
use drms_slices::{Order, Slice};
use parking_lot::Mutex;

const NITER: i64 = 12;
const CKPT_EVERY: i64 = 3;
const NPROCS: usize = 8;
const APP: &str = "chaosbench";
const DEFAULT_SEED: u64 = 42;

struct Opts {
    seed: u64,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    tolerance: f64,
    bless: bool,
}

fn parse_args() -> Opts {
    let env_seed = drms_bench::seed::fault_seed_or(DEFAULT_SEED);
    let mut opts =
        Opts { seed: env_seed, json: None, baseline: None, tolerance: 0.05, bless: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |flag: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--fault-seed" => {
                let v = value("--fault-seed");
                opts.seed = v.parse().unwrap_or_else(|_| usage(&format!("bad seed {v:?}")));
            }
            "--json" => opts.json = Some(PathBuf::from(value("--json"))),
            "--baseline" => opts.baseline = Some(PathBuf::from(value("--baseline"))),
            "--tolerance" => {
                let v = value("--tolerance");
                opts.tolerance = v
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad tolerance {v:?}")));
            }
            "--bless" => opts.bless = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    opts
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: chaos [--fault-seed N] [--json DIR]\n\
         \x20            [--baseline PATH] [--tolerance REL] [--bless]"
    );
    std::process::exit(2);
}

fn repro(opts: &Opts) -> String {
    drms_bench::seed::bin_repro("chaos", opts.seed)
}

fn domain() -> Slice {
    Slice::boxed(&[(1, 18), (1, 14)])
}

/// Checksum of the final state of an uninterrupted run.
fn reference() -> f64 {
    let mut s = 0.0;
    domain().points(Order::ColumnMajor).for_each(|p| {
        s += (p[0] * 13 + p[1] * 3) as f64 + NITER as f64 * 1.5;
    });
    s
}

/// One campaign run's observables, all deterministic per plan.
struct Run {
    checksum: f64,
    summary: RunSummary,
    fs: Arc<Piofs>,
    ctl: Arc<ChaosCtl>,
    rec: Arc<TraceRecorder>,
}

/// Runs the iterative checkpointing job under a fault plan through the
/// JSA (the same harness as `tests/chaos_campaign.rs`), with every
/// counter mirrored into a [`TraceRecorder`].
fn run_campaign(plan: FaultPlan) -> Run {
    let rec = Arc::new(TraceRecorder::default());
    let log = EventLog::with_recorder(rec.clone());
    let rc = Arc::new(ResourceCoordinator::new(NPROCS, log.clone()));
    let fs = Piofs::new(PiofsConfig::test_tiny(NPROCS), plan.seed);
    let cfg = DrmsConfig::new(APP);
    Drms::install_binary(&fs, &cfg);
    let ctl = ChaosCtl::new(plan);
    let jsa = Jsa::new(
        Arc::clone(&rc),
        Arc::clone(&fs),
        log,
        CostModel::default(),
        JsaPolicy { repair_when_starved: true, ..Default::default() },
    )
    .with_chaos(Arc::clone(&ctl));

    let out = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let injected = Arc::new(AtomicUsize::new(0));
    let injected2 = Arc::clone(&injected);
    let rc2 = Arc::clone(&rc);
    // Restart-side crash points only have a window once something
    // restarts organically; arm one processor failure for those plans.
    let restart_side = matches!(
        ctl.plan().crash,
        Some((
            CrashPoint::RestartAfterInit
                | CrashPoint::RestartAfterSegment
                | CrashPoint::RestartAfterArrays,
            _
        ))
    );

    let job = JobSpec::new(APP, (1, NPROCS), move |ctx, env| {
        let dist = Distribution::block_auto(&domain(), ctx.ntasks(), 1).unwrap();
        let mut u = DistArray::<f64>::new("u", Order::ColumnMajor, dist, ctx.rank());
        let (mut drms, restart) = match env.resume(ctx, DrmsConfig::new(APP), &mut [&mut u]) {
            Ok(v) => v,
            Err(outcome) => return outcome,
        };
        let mut seg = DataSegment::new();
        let mut start_iter = 1i64;
        match restart {
            None => u.fill_assigned(|p| (p[0] * 13 + p[1] * 3) as f64),
            Some(info) => {
                seg = info.segment;
                start_iter = seg.control("iter").unwrap() + 1;
            }
        }
        for iter in start_iter..=NITER {
            if env.sop_killed(ctx) {
                return JobOutcome::Killed;
            }
            let region = u.assigned().clone();
            region.points(Order::ColumnMajor).for_each(|p| {
                let v = u.get(p).unwrap();
                u.set(p, v + 1.5).unwrap();
            });
            seg.set_control("iter", iter);
            if iter % CKPT_EVERY == 0 {
                let prefix = format!("ck/cb/{iter}");
                if let Err(e) = drms.reconfig_checkpoint(ctx, &env.fs, &prefix, &seg, &[&u]) {
                    return JobOutcome::from_err(e);
                }
            }
            if restart_side
                && ctx.rank() == 0
                && iter >= 4
                && injected2.swap(1, Ordering::SeqCst) == 0
                && rc2.state_of(2) != ProcessorState::Failed
            {
                rc2.fail_processor(2);
            }
        }
        if env.sop_killed(ctx) {
            return JobOutcome::Killed;
        }
        out2.lock().push(u.fold_assigned(0.0, |acc, _, v| acc + v));
        JobOutcome::Completed
    });

    let summary = jsa.run_job(&job);
    let checksum: f64 = out.lock().iter().sum();
    Run { checksum, summary, fs, ctl, rec }
}

/// Asserts bitwise recovery and the staging invariants shared by every
/// campaign: no incarnation restarts from `.tmp`, no staged prefix is
/// discoverable as a checkpoint.
fn assert_consistent(r: &Run, what: &str) {
    assert!(r.summary.completed, "{what}: job did not complete: {:?}", r.summary);
    assert_eq!(r.checksum, reference(), "{what}: recovered state diverged");
    for inc in &r.summary.incarnations {
        if let Some(from) = &inc.restart_from {
            assert!(!from.contains(".tmp"), "{what}: restarted from staging prefix {from:?}");
        }
    }
    for (prefix, _) in find_checkpoints(&r.fs, Some(APP)) {
        assert!(!prefix.contains(".tmp"), "{what}: staged prefix {prefix:?} discoverable");
    }
}

fn main() {
    let opts = parse_args();
    let repro_line = repro(&opts);
    run_gated("chaos", &repro_line, || {
        println!(
            "Crash-consistency bench: two-phase commit under the exhaustive \
             crash-point sweep (seed {}, {} iterations, {} PEs)\n",
            opts.seed, NITER, NPROCS
        );
        let mut result = BenchResult::new("chaos");
        result.param("seed", opts.seed);
        result.param("niter", NITER);
        result.param("nprocs", NPROCS);
        result.stamp_header(opts.seed, NPROCS);

        // Campaign 1 — clean reference.
        let clean = run_campaign(FaultPlan::seeded(opts.seed));
        assert_consistent(&clean, "clean");
        assert_eq!(clean.summary.incarnations.len(), 1, "clean run reincarnated");
        let commits = clean.rec.metrics().counter_total(names::COMMITS);
        assert_eq!(commits as i64, NITER / CKPT_EVERY, "unexpected commit count");
        println!("clean: checksum {:.1}, {} commits", clean.checksum, commits);
        result.metric("clean.commits", commits as f64);

        // Campaign 2 — transient weather; must complete in one incarnation
        // with real retry traffic, twice identically.
        let weather_plan = FaultPlan {
            msg: MsgFaults { drop_prob: 0.25, dup_prob: 0.1, max_extra_latency: 1e-4 },
            piofs: PiofsFaults { transient_prob: 0.25, torn: None },
            ..FaultPlan::seeded(opts.seed)
        };
        let weather = run_campaign(weather_plan.clone());
        assert_consistent(&weather, "weather");
        assert!(weather.ctl.retries() > 0, "weather plan injected no faults");
        let again = run_campaign(weather_plan);
        assert_eq!(again.checksum, weather.checksum, "weather run is nondeterministic");
        assert_eq!(again.ctl.retries(), weather.ctl.retries(), "retry traffic drifted");
        println!(
            "weather: {} retries, {} giveups, {} incarnation(s)",
            weather.ctl.retries(),
            weather.ctl.giveups(),
            weather.summary.incarnations.len()
        );
        result.metric("weather.retries", weather.ctl.retries() as f64);
        result.metric("weather.giveups", weather.ctl.giveups() as f64);
        result.metric(
            "weather.msg_retries",
            weather.rec.metrics().counter_total(names::MSG_RETRIES) as f64,
        );
        result.metric(
            "weather.io_retries",
            weather.rec.metrics().counter_total(names::IO_RETRIES) as f64,
        );
        result.metric("weather.incarnations", weather.summary.incarnations.len() as f64);

        // Campaign 3 — the exhaustive crash-point sweep.
        println!("\ncrash-point sweep (every enumerated point, one armed crash each):");
        println!(
            "  {:<22} {:>6} {:>14} {:>16} {:>13}",
            "crash point", "incs", "recovered from", "bytes replayed", "resumed iter"
        );
        for point in CrashPoint::ALL {
            // The `Flush*` family fires only inside the asynchronous
            // pipeline's background flush — a blocking checkpoint never
            // consults those points, so arming one here would never fire.
            // They get their own exhaustive sweep in `tests/async_campaign.rs`.
            // The `Recover*` family likewise fires only inside a localized
            // recovery; it gets its own sweep in `tests/recover_campaign.rs`.
            if point.is_flush_side() || point.is_recover_side() {
                continue;
            }
            let r =
                run_campaign(FaultPlan { crash: Some((point, 1)), ..FaultPlan::seeded(opts.seed) });
            let what = format!("sweep {point}");
            assert!(r.ctl.crash_fired(), "{what}: armed crash never fired");
            assert!(r.summary.incarnations.len() >= 2, "{what}: no reincarnation");
            assert_consistent(&r, &what);

            // Recovery source: what the incarnation after the first kill
            // restarted from. Bytes replayed = the committed checkpoint
            // bytes read back (0 for a fresh-start recovery, which replays
            // the whole computation instead).
            let killed = r
                .summary
                .incarnations
                .iter()
                .position(|i| i.outcome == JobOutcome::Killed)
                .unwrap_or_else(|| panic!("{what}: crash killed no incarnation"));
            let rec_inc = &r.summary.incarnations[killed + 1];
            let source = rec_inc.restart_from.as_deref().unwrap_or("(fresh)");
            let bytes = rec_inc
                .restart_from
                .as_deref()
                .map(|p| r.fs.total_bytes(&format!("{p}/")))
                .unwrap_or(0);
            let resumed = rec_inc
                .restart_from
                .as_deref()
                .and_then(|p| p.rsplit('/').next())
                .and_then(|s| s.parse::<i64>().ok())
                .map(|it| it + 1)
                .unwrap_or(1);
            println!(
                "  {:<22} {:>6} {:>14} {:>16} {:>13}",
                point.as_str(),
                r.summary.incarnations.len(),
                source,
                bytes,
                resumed
            );
            let key = |m: &str| format!("sweep.{point}.{m}");
            result.metric(&key("incarnations"), r.summary.incarnations.len() as f64);
            result.metric(&key("bytes_replayed"), bytes as f64);
            result.metric(&key("resumed_iter"), resumed as f64);
            result.metric(
                &key("crashes"),
                r.rec.metrics().counter_total(names::CRASHES_INJECTED) as f64,
            );
        }

        if let Some(dir) = &opts.json {
            let path = result.write_to(dir).expect("write BENCH_chaos.json");
            println!("\nwrote {}", path.display());
        }
        if let Some(baseline) = &opts.baseline {
            baseline_gate(&result, baseline, opts.tolerance, opts.bless, &repro_line);
        }
        println!(
            "\nEvery crash point recovered bitwise from its last committed \
             checkpoint; no restart ever read a `.tmp` staging prefix."
        );
    });
}
