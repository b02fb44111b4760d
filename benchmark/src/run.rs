//! One measured run of one workload, and the `--all` driver over them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use drms_apps::AppVariant;

use crate::json::{parse, Json};
use crate::spec::{Metric, Spec};
use crate::stats::{highest_supported, median};
use crate::trace::Tracer;
use crate::workload::{op_is_traced, Outcome, Plan, Shape, Workload};
use crate::{host, probes, RunOpts};

/// Set-ups whose median is `setup_s`: all but the last build everything,
/// warm both ops up and throw it all away. A timed run makes at least
/// [`MIN_SETUPS`], and keeps going while they have taken less than
/// [`SETUP_BUDGET_S`] in all, so that a 0.1 s set-up is not judged on three
/// samples; at most [`MAX_SETUPS`].
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;

/// The values that must be bit-identical between a timed and a traced run
/// of one seed: virtual time, stored bytes and the product's own counts.
pub const EXACT: [&str; 6] = [
    "stored_ratio",
    "sim_ckpt_s",
    "sim_restore_s",
    "delta.dirty_ratio",
    "delta.dedup_hits",
    "delta.pack_bytes",
];

/// A metric value with the number of samples behind it (0: not sampled).
pub type Sampled = (f64, usize);

pub struct Record {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Logical bytes one op of the workload checkpoints or restores.
    pub state_bytes: u64,
    pub errors: Vec<String>,
    /// Lines for people: where a traced run's ops went, by layer.
    pub notes: Vec<String>,
    /// Every end-to-end metric of the spec, in its order.
    pub end_to_end: Vec<(Metric, Sampled)>,
    /// Every per-layer metric of the spec, in its order; a traced run fills
    /// all the layers the workload touches, a timed run only the counts.
    pub per_layer: Vec<(Metric, Sampled)>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn metrics_json(list: &[(Metric, Sampled)], with_n: bool) -> Json {
        Json::Obj(
            list.iter()
                .map(|(m, (v, n))| {
                    let mut kv = vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ];
                    if with_n {
                        kv.push(("n".into(), Json::Num(*n as f64)));
                    }
                    (m.name.clone(), Json::Obj(kv))
                })
                .collect(),
        )
    }

    /// The result line of the run protocol: exactly four keys.
    pub fn result_line(&self) -> String {
        let shown = if self.trace { &self.per_layer } else { &self.end_to_end };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Record::metrics_json(shown, false)),
        ])
        .render()
    }

    /// The full record `--out` appends: both metric sets, whichever run.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds as f64)),
            ("trace".into(), Json::Num(f64::from(u8::from(self.trace)))),
            ("quick".into(), Json::Bool(self.quick)),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("state_bytes".into(), Json::Num(self.state_bytes as f64)),
            ("end_to_end".into(), Record::metrics_json(&self.end_to_end, true)),
            ("per_layer".into(), Record::metrics_json(&self.per_layer, true)),
        ])
    }

    fn print_table(&self) {
        let plan = self.workload.plan(self.seed, self.seconds, self.quick);
        println!(
            "{}  seed {}  {} s  {}  ({} ckpt ops, {} restore ops planned, {:.1} MB state)",
            self.workload.name(),
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "timed" },
            plan.ckpt_ops,
            plan.restore_ops,
            self.state_bytes as f64 / 1e6
        );
        let rows = self.end_to_end.iter().chain(if self.trace { &self.per_layer[..] } else { &[] });
        for (m, (v, n)) in rows {
            let n = if *n > 0 { format!("n={n}") } else { String::new() };
            println!("  {:<28} {:>16.6} {:<6} {n}", m.name, v, m.unit);
        }
        println!("  ops attempted {}  failed {}", self.attempted, self.failed);
        for note in &self.notes {
            println!("  {note}");
        }
        for e in &self.errors {
            println!("  ERROR {e}");
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms_p50(tracer: &Tracer, span: &str, in_op: bool) -> Sampled {
    let d = tracer.durations(span, in_op);
    (median(&d) * 1e3, d.len())
}

/// The per-layer numbers that come from spans around calls the workload
/// makes anyway.
fn in_situ(shape: &Shape, out: &Outcome, tracer: &Tracer) -> Vec<(&'static str, Sampled)> {
    let mut v: Vec<(&'static str, Sampled)> = vec![
        ("host.wall_s", (out.usage.wall_s, 0)),
        ("host.cpu_user_s", (out.usage.cpu_user_s, 0)),
        ("host.cpu_sys_s", (out.usage.cpu_sys_s, 0)),
        ("host.minor_faults", (out.usage.minor_faults, 0)),
        ("apps.start_ms", ms_p50(tracer, "apps.start", false)),
        ("apps.step_ms", ms_p50(tracer, "apps.step", false)),
        ("core.retain_ms_p50", ms_p50(tracer, "core.retain", true)),
        ("core.sweep_ms_p50", ms_p50(tracer, "core.sweep", true)),
        ("core.init_restart_ms_p50", ms_p50(tracer, "core.init", true)),
        ("delta.ckpt_ms_p50", ms_p50(tracer, "delta.ckpt", true)),
        ("delta.full_rewrite_ms_p50", ms_p50(tracer, "delta.full", true)),
        ("delta.restore_ms_p50", ms_p50(tracer, "delta.restore", true)),
        ("async.stall_ms_p50", ms_p50(tracer, "async.ckpt", true)),
        ("async.drain_ms", ms_p50(tracer, "async.drain", false)),
        ("memtier.store_ms_p50", ms_p50(tracer, "memtier.store", false)),
        ("recover.retain_ms_p50", ms_p50(tracer, "recover.retain", true)),
        ("recover.localized_ms_p50", ms_p50(tracer, "recover.localized", true)),
        ("recover.resize_ms_p50", ms_p50(tracer, "recover.resize", true)),
    ];
    for (kind, p50, hi, n) in [
        ("ckpt", "core.ckpt_ms_p50", "core.ckpt_ms_hi", "core.ckpt_n"),
        ("restore", "core.restart_ms_p50", "core.restart_ms_hi", "core.restart_n"),
    ] {
        let d = tracer.durations(kind, true);
        let top = highest_supported(&d).map_or(median(&d), |(_, value)| value);
        v.extend([
            (p50, (median(&d) * 1e3, d.len())),
            (hi, (top * 1e3, d.len())),
            (n, (d.len() as f64, 0)),
        ]);
    }
    if shape.variant == AppVariant::Spmd {
        v.push(("core.spmd_ckpt_ms_p50", ms_p50(tracer, "ckpt", true)));
    }
    // Every third ckpt op ran with recording paused.
    let (on, off): (Vec<_>, Vec<_>) =
        out.ckpt.host.iter().enumerate().partition(|(i, _)| op_is_traced(*i));
    let side =
        |ops: Vec<(usize, &f64)>| median(&ops.into_iter().map(|(_, &h)| h).collect::<Vec<_>>());
    let (on, off) = (side(on), side(off));
    v.push(("host.trace_overhead_pct", (100.0 * ratio(on - off, off), out.ckpt.host.len())));
    v
}

/// Where one checkpoint and one restart of a DRMS-variant mini-application
/// go, by layer, from spans and probes alone: each layer's probed rate
/// applied to the bytes it handles in one op — a layer's own share being
/// what is left after the layers it calls — against the op's median.
fn attribution(out: &Outcome, layer: &BTreeMap<&'static str, Sampled>) -> Vec<String> {
    let get = |name: &str| layer.get(name).map_or(0.0, |s| s.0);
    let (seg, all) = (out.segment_bytes as f64 / 1e6, out.state_bytes as f64 / 1e6);
    let arrays = all - seg;
    let ms = |mb: f64, rate: &str| 1e3 * ratio(mb, get(rate));
    let exchange = ms(arrays, "msg.alltoallv_mbps");

    let write = ms(arrays, "piofs.cwrite_mbps");
    let ckpt = [
        (
            "core",
            ms(seg, "core.segment_encode_mbps")
                + ms(all, "core.integrity_mbps")
                + get("core.publish_ms"),
        ),
        ("darray", (ms(arrays, "darray.stream_write_mbps") - write - exchange).max(0.0)),
        ("piofs", ms(seg, "piofs.write_at_mbps") + write),
        ("msg", exchange),
    ];
    let read = ms(arrays, "piofs.cread_mbps");
    let restart = [
        ("core", get("core.init_restart_ms_p50")),
        ("darray", (get("core.restore_arrays_ms_p50") - read - exchange).max(0.0)),
        ("piofs", read),
        ("msg", exchange + get("msg.spawn_join_ms")),
    ];
    [("checkpoint", "core.ckpt_ms_p50", ckpt), ("restart", "core.restart_ms_p50", restart)]
        .into_iter()
        .map(|(kind, op, mut parts)| {
            let op = get(op);
            parts.sort_by(|a, b| b.1.total_cmp(&a.1));
            let listed: Vec<String> = parts
                .iter()
                .map(|(name, t)| format!("{name} {t:.1} ms ({:.0}%)", 100.0 * ratio(*t, op)))
                .collect();
            let rest = op - parts.iter().map(|p| p.1).sum::<f64>();
            format!(
                "one {kind} op, {op:.1} ms: {}, apps and unexplained {rest:.1} ms; largest self time: {}",
                listed.join(", "),
                parts[0].0
            )
        })
        .collect()
}

/// Runs the workload as `opts` says and gathers every metric of the spec.
pub fn measure(opts: &RunOpts, spec: &Spec) -> Record {
    let w = opts.workload.expect("a single workload");
    let shape = w.shape(opts.quick);
    let plan = w.plan(opts.seed, opts.seconds, opts.quick);
    let tracer = Tracer::new(opts.trace);
    let root = tracer.begin("run");

    let mut errors = Vec::new();
    let mut setups = Vec::new();
    // A traced run spends its spare time on probes instead.
    while !opts.trace
        && setups.len() + 1 < MAX_SETUPS
        && (setups.len() + 1 < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let o = w.run(&shape, &Plan { ckpt_ops: 0, restore_ops: 0, ..plan }, &tracer);
        setups.push(o.setup_s);
        errors.extend(o.errors);
    }
    let mut out = w.run(&shape, &plan, &tracer);
    setups.push(out.setup_s);
    errors.append(&mut out.errors);

    let mut layer: BTreeMap<&'static str, Sampled> = BTreeMap::new();
    layer.extend(out.counts.iter().map(|&(name, v)| (name, (v, 0))));
    if opts.trace {
        layer.extend(in_situ(&shape, &out, &tracer));
        layer.extend(probes::run(w, &shape, &plan, &out, &tracer, &mut errors));
    }
    tracer.end(root);
    let mut notes = Vec::new();
    if opts.trace {
        if let Err(e) = write_trace(w, &tracer) {
            errors.push(format!("trace file: {e}"));
        }
        if out.segment_bytes > 0 && shape.variant == AppVariant::Drms {
            notes = attribution(&out, &layer);
        }
    }

    let attempted = out.attempted;
    let state_mb = out.state_bytes as f64 / 1e6;
    let e2e: BTreeMap<&str, Sampled> = BTreeMap::from([
        ("setup_s", (median(&setups), setups.len())),
        ("ckpt_mbps", (ratio(state_mb, median(&out.ckpt.host)), out.ckpt.host.len())),
        ("restore_mbps", (ratio(state_mb, median(&out.restore.host)), out.restore.host.len())),
        ("peak_rss_mb", (host::peak_rss_mb(), 0)),
        (
            "stored_ratio",
            (ratio(out.stored_bytes as f64, (out.state_bytes * out.retained) as f64), 0),
        ),
        ("sim_ckpt_s", (median(&out.ckpt.sim), out.ckpt.sim.len())),
        ("sim_restore_s", (median(&out.restore.sim), out.restore.sim.len())),
        ("ok_share", (ratio(out.succeeded as f64, attempted as f64), 0)),
    ]);

    for name in e2e.keys().copied().chain(layer.keys().copied()) {
        if spec.metric(name).is_none() {
            errors.push(format!("metric {name:?} is not in BENCHMARK.json"));
        }
    }
    let fill = |list: &[Metric], from: &BTreeMap<&str, Sampled>| {
        list.iter()
            .map(|m| (m.clone(), from.get(m.name.as_str()).copied().unwrap_or((0.0, 0))))
            .collect()
    };
    for m in &spec.end_to_end {
        if !e2e.contains_key(m.name.as_str()) {
            errors.push(format!("end-to-end metric {:?} was not measured", m.name));
        }
    }
    Record {
        workload: w,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        quick: opts.quick,
        attempted,
        failed: attempted - out.succeeded.min(attempted),
        state_bytes: out.state_bytes,
        errors,
        notes,
        end_to_end: fill(&spec.end_to_end, &e2e),
        per_layer: fill(&spec.per_layer, &layer),
    }
}

/// `out/` in the package: `cargo run` exports where that is; a binary
/// started by hand falls back to where it was built.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn write_trace(w: Workload, tracer: &Tracer) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(format!("{}.trace.json", w.name())), tracer.to_chrome_trace())
}

fn append(path: &Path, record: &Record) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", record.to_json().render())
}

/// `run --workload W`: the table for people, then the result line.
pub fn one(opts: &RunOpts) -> ExitCode {
    let record = measure(opts, &Spec::load());
    record.print_table();
    if let Some(path) = &opts.out {
        if let Err(e) = append(path, &record) {
            eprintln!("error: cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", record.result_line());
    if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run --all`: one child process per workload and per kind of run, so
/// `peak_rss_mb` belongs to one workload; then the determinism check
/// between each timed run and its traced twin.
pub fn all(opts: &RunOpts) -> ExitCode {
    let out = opts.out.clone().unwrap_or_else(|| out_dir().join("runs.jsonl"));
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut twins = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name(), "--trace", trace, "--out"]).arg(&out);
            cmd.args(["--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()]);
            if opts.quick {
                cmd.arg("--quick");
            }
            match cmd.status() {
                Ok(status) if status.success() => twins.push(last_record(&out)),
                Ok(status) => {
                    eprintln!("error: {} --trace {trace} exited with {status}", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("error: cannot start {} --trace {trace}: {e}", w.name());
                    ok = false;
                }
            }
            println!();
        }
        if let [Some(timed), Some(traced)] = &twins[..] {
            let ops = |r: &Json| r.get("attempted").and_then(Json::as_f64);
            if ops(timed) != ops(traced) {
                println!(
                    "{}: a slow host cut one run short ({:?} against {:?} ops); exact values not compared",
                    w.name(),
                    ops(timed),
                    ops(traced)
                );
                continue;
            }
            for name in EXACT {
                let (a, b) = (lookup(timed, name), lookup(traced, name));
                if a != b {
                    eprintln!("error: {} {name}: timed run {a:?}, traced run {b:?}", w.name());
                    ok = false;
                }
            }
        }
    }
    println!(
        "{} (records appended to {})",
        if ok {
            "all workloads correct; timed and traced runs agree exactly on virtual time, stored bytes and counts"
        } else {
            "FAILED"
        },
        out.display()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn last_record(path: &Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    parse(text.lines().last()?).ok()
}

fn lookup(record: &Json, metric: &str) -> Option<f64> {
    ["end_to_end", "per_layer"]
        .iter()
        .find_map(|set| record.get(set)?.get(metric)?.get("value")?.as_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Record {
        fn value(&self, name: &str) -> Option<f64> {
            let all = self.end_to_end.iter().chain(&self.per_layer);
            all.filter(|(m, _)| m.name == name).map(|(_, (v, _))| *v).next()
        }
    }

    /// The smoke run a later change can wire into CI: class T, three ops
    /// of each kind, every workload timed and traced.
    #[test]
    fn quick_mode_runs_every_workload_correctly_and_emits_every_metric() {
        let started = std::time::Instant::now();
        let spec = Spec::load();
        let mut emitted = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            let opts = |trace| RunOpts {
                workload: Some(w),
                seed: 7,
                seconds: spec.run_seconds,
                trace,
                quick: true,
                out: None,
            };
            let (timed, traced) = (measure(&opts(false), &spec), measure(&opts(true), &spec));
            for r in [&timed, &traced] {
                assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
                assert_eq!((r.attempted, r.failed), (6, 0), "{}", w.name());
                for (m, (v, _)) in &r.end_to_end {
                    assert!(*v > 0.0 && v.is_finite(), "{} {} = {v}", w.name(), m.name);
                }
                assert_eq!(r.value("ok_share"), Some(1.0));
            }
            // The traced run doubles as the determinism check.
            for name in EXACT {
                assert_eq!(timed.value(name), traced.value(name), "{} {name}", w.name());
            }
            let line = parse(&traced.result_line()).unwrap();
            let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("metrics").unwrap().as_obj().len(), spec.per_layer.len());
            let line = parse(&timed.result_line()).unwrap();
            assert_eq!(line.get("metrics").unwrap().as_obj().len(), spec.end_to_end.len());

            emitted.extend(
                traced
                    .per_layer
                    .iter()
                    .filter(|(_, (v, _))| *v != 0.0)
                    .map(|(m, _)| m.name.clone()),
            );

            let file = out_dir().join(format!("{}.trace.json", w.name()));
            let doc = parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
            let names: Vec<&str> = doc
                .get("traceEvents")
                .unwrap()
                .as_arr()
                .iter()
                .filter_map(|e| e.get("name")?.as_str())
                .collect();
            for span in ["run", "setup", "ckpt", "restore", "verify", "probe.core"] {
                assert!(
                    names.contains(&span),
                    "{}: no {span:?} span in {}",
                    w.name(),
                    file.display()
                );
            }
        }
        // A layer metric no workload ever fills would be a dead listing. Two
        // honestly read zero here: class T has no duplicate chunks, and
        // three links never reach the chain's eighth, the full rewrite.
        let zero_when_quick = ["delta.dedup_hits", "delta.full_rewrite_ms_p50"];
        for m in &spec.per_layer {
            assert!(
                emitted.contains(&m.name) || zero_when_quick.contains(&m.name.as_str()),
                "{} is listed but no workload measured it",
                m.name
            );
        }
        assert!(started.elapsed().as_secs() < 20, "quick mode took {:?}", started.elapsed());
    }
}
