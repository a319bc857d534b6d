//! Command line of the benchmark. `run.sh` builds this binary and
//! forwards its arguments.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last stdout line is the result.
//! * no `--workload` — every workload, each in its own child process
//!   (so `rss_peak_mb` is per workload), metrics printed by name;
//!   `--traced` adds the per-layer run. Exits 1 if a check fails.
//! * `--agree` — two sets of runs compared against the bounds of
//!   `BENCHMARK.json` (`--spec`). Exits 1 if they disagree.

use bingo_benchmark::agree::{self, ResultLine, RunSet, Spec};
use bingo_benchmark::{run_timed, run_traced, sys, Settings, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    traced: bool,
    quick: bool,
    agree: bool,
    runs: u64,
    out_dir: PathBuf,
    spec: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2003,
        seconds: None,
        trace: false,
        traced: false,
        quick: false,
        agree: false,
        runs: 10,
        out_dir: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => args.trace = value()? == "1",
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--spec" => args.spec = PathBuf::from(value()?),
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--agree" => args.agree = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where and how this run was made, as one JSON line.
fn context_line(args: &Args, workload: &str) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"context\": {{\"workload\": \"{workload}\", \"seed\": {}, \"nproc\": {}, \"threads\": {}, \"quick\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}}}",
        args.seed,
        sys::nproc(),
        sys::nproc(),
        args.quick,
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
    )
}

/// Run one workload in a child process of this same binary and parse
/// its result line. The child's stderr passes through.
fn run_child(
    args: &Args,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ResultLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    ResultLine::parse(last)
}

fn print_result(workload: Workload, kind: &str, result: &ResultLine) {
    println!(
        "## {} ({kind}): correct={} attempted={} failed={}",
        workload.name(),
        result.correct,
        result.attempted,
        result.failed
    );
    for (name, value, unit) in &result.metrics {
        println!("{:<32} {:>16.6} {}", name, value, unit);
    }
}

/// Every workload once (twice with `--traced`), each in its own process.
fn run_all(args: &Args, seconds: f64) -> Result<bool, String> {
    println!("{}", context_line(args, "all"));
    let mut ok = true;
    for workload in Workload::ALL {
        let mut kinds = vec![(false, "end to end")];
        if args.traced {
            kinds.push((true, "per layer"));
        }
        for (trace, kind) in kinds {
            let result = run_child(args, workload, args.seed, seconds, trace)?;
            print_result(workload, kind, &result);
            ok &= result.correct && result.failed == 0;
        }
    }
    Ok(ok)
}

/// Two sets of `runs` timed runs per workload on consecutive seeds,
/// judged against the contract's bounds.
fn run_agree(args: &Args, spec: &Spec, seconds: f64) -> Result<bool, String> {
    let mut sets = [RunSet::new(), RunSet::new()];
    let mut ok = true;
    for (label, set) in ["A", "B"].iter().zip(&mut sets) {
        for workload in Workload::ALL {
            for run in 0..args.runs {
                let result = run_child(args, workload, args.seed + run, seconds, false)?;
                eprintln!(
                    "set {label} {} seed {}: correct={}",
                    workload.name(),
                    args.seed + run,
                    result.correct
                );
                ok &= result.correct && result.failed == 0;
                agree::record(set, workload.name(), &result);
            }
        }
    }
    let verdicts = agree::compare(spec, &sets[0], &sets[1]);
    print!("{}", agree::table(&verdicts));
    Ok(ok && verdicts.iter().all(|v| v.ok))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bingo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // The contract file fixes the run length; reading it here keeps the
    // human modes on the same length the driver uses.
    let spec = std::fs::read_to_string(&args.spec)
        .map_err(|e| format!("{}: {e}", args.spec.display()))
        .and_then(|text| Spec::parse(&text));
    let seconds = args
        .seconds
        .or_else(|| spec.as_ref().ok().map(|s| s.run_seconds as f64))
        .unwrap_or(15.0);

    if let Some(workload) = args.workload {
        let settings = Settings {
            seed: args.seed,
            seconds,
            quick: args.quick,
            out_dir: args.out_dir.clone(),
        };
        let report = if args.trace {
            run_traced(workload, &settings)
        } else {
            run_timed(workload, &settings)
        };
        println!("{}", context_line(&args, workload.name()));
        println!("{}", report.to_json_line());
        return ExitCode::SUCCESS;
    }

    let outcome = if args.agree {
        spec.and_then(|spec| run_agree(&args, &spec, seconds))
    } else {
        run_all(&args, seconds)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bingo-benchmark: a check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("bingo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
