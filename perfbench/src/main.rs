//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! perfbench compare RECORD_A RECORD_B
//! ```
//!
//! Untraced runs (`--trace 0`) time the public entry points and print the
//! end-to-end metrics; traced runs (`--trace 1`) time the benchmark's own
//! calls into each layer and print the per-layer metrics. Either way the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A fuller record (host stamp,
//! samples, failures) goes to `DIR/<workload>-seed<N>-trace<T>.json`, and
//! a traced run's spans to `DIR/<workload>-seed<N>.spans.jsonl`.

mod catalog;
mod gate;
mod host;
mod run;
mod spans;
#[cfg(test)]
mod tests;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use congest_sim::trace::json::Json;

use crate::host::HostStamp;
use crate::spans::Spans;
use crate::workload::Workload;

const DEFAULT_OUT: &str = ".bench_build/perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from(DEFAULT_OUT);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare(Path::new(a), Path::new(b)),
            _ => {
                eprintln!("usage: perfbench compare RECORD_A RECORD_B");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Deletes the run's work directory (checkpoint images) on every exit
/// path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let host = HostStamp::measure();
    let jiffies_before = host::cpu_jiffies();
    let workload = args.workload;
    let pin = gate::pinned(workload.name, args.seed);
    fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let work = WorkDir(args.out.join(format!("work-{}", std::process::id())));
    fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    let run_id = args.seed ^ (u64::from(std::process::id()) << 32);
    let mut spans = Spans::new(args.trace, run_id);
    let outcome = run::execute(&workload, args.seed, pin, args.seconds, &mut spans, &work.0)?;
    drop(work);
    // Share of the machine's CPU time stolen by the hypervisor during the
    // run: a high figure says the timings measured the host.
    let steal_frac = match (jiffies_before, host::cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };

    let names = if args.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = *outcome
            .values
            .get(*name)
            .ok_or(format!("metric {name} was not measured"))?;
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    let gate = &outcome.gate;
    for failure in &gate.failures {
        eprintln!("perfbench: FAILED {failure}");
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(gate.failures.is_empty())),
        ("attempted".into(), Json::Int(gate.attempted as i64)),
        ("failed".into(), Json::Int(gate.failed() as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);

    let stem = format!("{}-seed{}", workload.name, args.seed);
    let mut record = vec![
        ("workload".into(), Json::Str(workload.name.to_string())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Float(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), host.to_json()),
        ("steal_frac".into(), Json::Float(steal_frac)),
        ("result".into(), result.clone()),
        (
            "failures".into(),
            Json::Arr(gate.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "samples".into(),
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), summarize(v)))
                    .collect(),
            ),
        ),
    ];
    if args.trace {
        let path = args.out.join(format!("{stem}.spans.jsonl"));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        record.push(("spans".into(), Json::Str(path.display().to_string())));
    }
    let record_path = args
        .out
        .join(format!("{stem}-trace{}.json", u8::from(args.trace)));
    fs::write(&record_path, Json::Obj(record).to_json())
        .map_err(|e| format!("{}: {e}", record_path.display()))?;

    eprintln!(
        "perfbench: host nproc={} cpu={:?} calibration={:.1} ms steal={:.1}%; record {}",
        host.nproc,
        host.cpu_model,
        host.calibration_ms,
        steal_frac * 100.0,
        record_path.display()
    );
    println!("{}", result.to_json());
    Ok(())
}

/// Sample count, median and extremes of one sample set, for the record.
fn summarize(samples: &[f64]) -> Json {
    let fold = |init, pick: fn(f64, f64) -> f64| samples.iter().copied().fold(init, pick);
    Json::Obj(vec![
        ("count".into(), Json::Int(samples.len() as i64)),
        ("median".into(), Json::Float(median(samples))),
        ("min".into(), Json::Float(fold(f64::INFINITY, f64::min))),
        ("max".into(), Json::Float(fold(f64::NEG_INFINITY, f64::max))),
    ])
}

/// Prints the metrics of two run records side by side. Records whose
/// host stamps differ are flagged and the exit code is 3: their wall
/// clocks measure different machines.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = |doc: &Json| doc.get("host").and_then(HostStamp::from_json);
    let mismatch = match (stamp(&a), stamp(&b)) {
        (Some(x), Some(y)) => x.mismatch(&y),
        _ => Some("a record has no host stamp".to_string()),
    };
    if let Some(why) = &mismatch {
        println!("FLAG host stamps differ ({why}): wall-clock deltas compare different hosts");
    }
    let metrics = |doc: &Json| doc.get("result").and_then(|r| r.get("metrics")).cloned();
    if let (Some(Json::Obj(ma)), Some(mb)) = (metrics(&a), metrics(&b)) {
        println!("{:<32} {:>16} {:>16} {:>9}", "metric", "A", "B", "B/A-1");
        for (name, va) in &ma {
            let value = |m: &Json| m.get("value").and_then(json_f64);
            if let (Some(x), Some(y)) = (value(va), mb.get(name).and_then(value)) {
                let delta = if x == 0.0 { 0.0 } else { y / x - 1.0 };
                println!("{name:<32} {x:>16.6} {y:>16.6} {:>8.2}%", delta * 100.0);
            }
        }
    }
    if mismatch.is_some() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

pub(crate) fn json_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Median of `xs`; 0 for an empty slice.
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]`; 0 for an empty slice.
pub(crate) fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
