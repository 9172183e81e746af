//! Command line of the repository benchmark. See `README.md`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ldc_benchmark::json::Json;
use ldc_benchmark::round::{run_round, RoundConfig};
use ldc_benchmark::run::{
    driver_line, print_report, result_json, run_workload, RunArgs, Until, WorkloadReport,
};
use ldc_benchmark::spec::{self, Workload, WORKLOADS};
use ldc_benchmark::{compare, machine};

const USAGE: &str = "\
usage:
  ldc-benchmark run [--workload NAME] [--seed N] [--scale F] [--seconds S | --reps N]
                    [--trace 0|1] [--load-threads T] [--out DIR]
      Without --trace: every workload (or NAME) with tracing off, then once traced;
      prints every metric and writes DIR/result.json (DIR defaults to benchmark/out).
      With --trace (needs --workload): the driver's form, one JSON line last on stdout:
      end-to-end metrics for --trace 0, per-layer metrics for --trace 1.
  ldc-benchmark compare OLD.json NEW.json [--contract BENCHMARK.json]
      One row per workload and metric; exits non-zero if any row is worse.
  ldc-benchmark contract
      Prints BENCHMARK.json as the harness defines it.";

/// `--flag value` pairs and positional arguments.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if known.contains(&name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value.clone());
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad value {v:?}")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        self.flags
            .get("workload")
            .map(|name| {
                spec::workload(name).ok_or(format!(
                    "unknown workload {name:?}; one of {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))
            })
            .transpose()
    }

    fn switch(&self, name: &str) -> Result<Option<bool>, String> {
        match self.flags.get(name).map(String::as_str) {
            None => Ok(None),
            Some("0") => Ok(Some(false)),
            Some("1") => Ok(Some(true)),
            Some(v) => Err(format!("--{name}: expected 0 or 1, got {v:?}")),
        }
    }
}

fn cmd_run(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &[
            "workload",
            "seed",
            "scale",
            "seconds",
            "reps",
            "trace",
            "load-threads",
            "out",
        ],
    )?;
    let nproc = machine::nproc();
    let load_threads = args.get("load-threads")?.unwrap_or(nproc);
    if load_threads > nproc {
        return Err(format!(
            "{load_threads} load threads on {nproc} hardware threads would measure the scheduler"
        ));
    }
    let scale: f64 = args.get("scale")?.unwrap_or(1.0);
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!("--scale: {scale} is not a positive number"));
    }
    let until = match (args.get("seconds")?, args.get("reps")?) {
        (Some(_), Some(_)) => return Err("--seconds and --reps exclude each other".to_string()),
        (Some(s), None) => Until::Seconds(s),
        (None, Some(n)) => Until::Rounds(n),
        (None, None) => Until::Rounds(3),
    };
    let run = RunArgs {
        seed: args.get("seed")?.unwrap_or(24301),
        scale,
        load_threads,
        out_dir: PathBuf::from(
            args.get::<String>("out")?
                .unwrap_or("benchmark/out".to_string()),
        ),
    };
    let selected = args.workload()?;

    if let Some(traced) = args.switch("trace")? {
        // The driver's form: one workload, one kind of metric.
        let workload = selected.ok_or("--trace needs --workload")?;
        let report = if traced {
            // Half the measured time plain, half traced: the per-layer
            // metrics that need no tracing come from the plain rounds, and
            // the two together give the tracing overhead.
            let half = match until {
                Until::Seconds(s) => Until::Seconds(s / 2.0),
                rounds => rounds,
            };
            run_workload(workload, &run, half, Some(half))?
        } else {
            run_workload(workload, &run, until, None)?
        };
        for problem in &report.problems {
            eprintln!("{}: {problem}", workload.name);
        }
        println!("{}", driver_line(&report, traced)?.encode());
        return Ok(if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    let workloads: Vec<&'static Workload> = match selected {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let machine = machine::record();
    println!(
        "seed {} scale {} load_threads {} machine {}",
        run.seed,
        run.scale,
        run.load_threads,
        machine.encode()
    );
    let mut reports: Vec<WorkloadReport> = Vec::new();
    for workload in workloads {
        let report = run_workload(workload, &run, until, Some(Until::Rounds(1)))?;
        print_report(&report);
        reports.push(report);
    }
    std::fs::create_dir_all(&run.out_dir)
        .map_err(|e| format!("create {}: {e}", run.out_dir.display()))?;
    let path = run.out_dir.join("result.json");
    std::fs::write(&path, result_json(&run, machine, &reports).encode_pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    let incorrect: Vec<&str> = reports
        .iter()
        .filter(|r| !r.correct())
        .map(|r| r.workload.name)
        .collect();
    if incorrect.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("incorrect: {}", incorrect.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

/// One round in this process; the parent `run` reads the last line.
fn cmd_round(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &[
            "workload",
            "seed",
            "scale",
            "traced",
            "load-threads",
            "trace-out",
        ],
    )?;
    let missing = |name: &str| format!("round: --{name} is required");
    let cfg = RoundConfig {
        workload: args.workload()?.ok_or(missing("workload"))?,
        seed: args.get("seed")?.ok_or(missing("seed"))?,
        scale: args.get("scale")?.ok_or(missing("scale"))?,
        traced: args.switch("traced")?.ok_or(missing("traced"))?,
        load_threads: args.get("load-threads")?.ok_or(missing("load-threads"))?,
    };
    let output = run_round(&cfg)?;
    if let (Some(trace), Some(path)) = (&output.trace, args.get::<String>("trace-out")?) {
        let header = Json::obj([
            ("workload", Json::Str(cfg.workload.name.into())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("scale", Json::Num(cfg.scale)),
            (
                "times",
                Json::Str(
                    "host ns since the round started; virt_ns on the device's virtual clock".into(),
                ),
            ),
        ]);
        std::fs::write(&path, trace.to_jsonl(header)).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{}", output.result.to_json().encode());
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw, &["contract"])?;
    let [old, new] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let contract = args
        .get::<String>("contract")?
        .unwrap_or("BENCHMARK.json".to_string());
    let worse = compare::compare(&read(&contract)?, &read(old)?, &read(new)?)?;
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "round" => cmd_round(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "contract" => {
            print!("{}", spec::contract().encode_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
