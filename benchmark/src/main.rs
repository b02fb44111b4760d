//! Host-time benchmark of the DRMS reproduction. See `README.md`.
//!
//! ```text
//! drms-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! drms-benchmark run --all        [--seed N] [--seconds S]               [--quick] [--out FILE]
//! drms-benchmark compare A.jsonl B.jsonl
//! ```

mod compare;
mod digest;
mod host;
mod json;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

pub struct RunOpts {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<PathBuf>,
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: drms-benchmark run (--workload W | --all) [--seed N] [--seconds S]\n\
         \x20                         [--trace 0|1] [--quick] [--out FILE]\n\
         \x20      drms-benchmark compare A.jsonl B.jsonl\n\
         workloads: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: None,
        seed: 42,
        seconds: spec::Spec::load().run_seconds,
        trace: false,
        quick: false,
        out: None,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                opts.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--all" => all = true,
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().ok().filter(|&s| s >= 1).ok_or("bad --seconds")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if all == opts.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(opts) if opts.workload.is_some() => run::one(&opts),
            Ok(opts) => run::all(&opts),
            Err(e) => usage(&e),
        },
        Some((cmd, rest)) if cmd == "compare" => match rest {
            [a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => usage("compare takes two files"),
        },
        _ => usage(""),
    }
}
