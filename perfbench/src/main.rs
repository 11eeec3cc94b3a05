//! The MERLIN benchmark: one workload per process, end-to-end metrics with
//! tracing off, per-layer metrics with tracing on. See README.md.
//!
//! ```text
//! perfbench --workload critical_net|batch_ladder|daemon_closed --seed N
//!           --seconds S --trace 0|1 [--data-dir DIR] [--golden FILE]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1 when
//! any output check failed.

mod batch;
mod common;
mod critical;
mod daemon;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use common::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals and daemon data; same path (and so
    /// the same filesystem) on every run.
    pub data_dir: PathBuf,
    pub golden: PathBuf,
    /// When the process started, for `setup_s`.
    pub started: Instant,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from(".bench_run"),
        golden: PathBuf::from("perfbench/golden.txt"),
        started,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--data-dir" => args.data_dir = PathBuf::from(value),
            "--golden" => args.golden = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// The golden canary digest of `workload` from `path` (`workload digest`
/// lines, `#` comments).
fn golden_digest(path: &Path, workload: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim().to_owned())
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .sheet
        .0
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir = args
        .data_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let golden = golden_digest(&args.golden, &args.workload);
    let result = match args.workload.as_str() {
        "critical_net" => critical::run(&args, golden.as_deref(), &run_dir),
        "batch_ladder" => batch::run(&args, golden.as_deref(), &run_dir),
        "daemon_closed" => daemon::run(&args, golden.as_deref(), &run_dir),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    for problem in &out.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    if args.trace {
        let spans_path = args
            .data_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::write(&spans_path, out.spans.jsonl()) {
            Ok(()) => eprintln!("perfbench: spans written to {}", spans_path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", spans_path.display()),
        }
        eprintln!("perfbench: self time by layer (bench-side spans)");
        for (name, ns) in out.spans.self_ns() {
            eprintln!("  {name:<28} {:>12.3} ms", ns as f64 / 1e6);
        }
    }
    println!("{}", render(&out));
    if out.failed > 0 || out.attempted == 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{Sheet, PER_LAYER};
    use merlin_server::json::{self, Json};

    /// (name, unit) pairs of one `BENCHMARK.json` metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(list) else {
            panic!("{list} is a list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn reported(sheet: &Sheet) -> Vec<(String, String)> {
        sheet
            .0
            .iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let mut out = Outcome::default();
        out.end_to_end(1.0, 1.0, 1.0, &[(1.0, 1)], 1, 1);
        assert_eq!(reported(&out.sheet), declared("end_to_end"));
        assert_eq!(reported(&Sheet::per_layer()), declared("per_layer"));
        assert_eq!(PER_LAYER.len(), declared("per_layer").len());
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let mut out = Outcome::default();
        out.check(Ok(()));
        out.check(Err("bad".to_owned()));
        out.sheet.put("x_ms", f64::NAN, "ms");
        let doc = json::parse(&render(&out)).expect("result parses");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        let value = doc
            .get("metrics")
            .and_then(|m| m.get("x_ms"))
            .and_then(|m| m.get("unit"));
        assert_eq!(value.and_then(Json::as_str), Some("ms"));
    }
}
