//! `flowbench` — the repository benchmark of the HLPower flow.
//!
//! ```text
//! flowbench --workload NAME --seed N --seconds S --trace 0|1
//! flowbench repeat [--k K]
//! ```
//!
//! A run prints, as the last line of standard output, one JSON object:
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced). See README.md for
//! the workloads, the metrics and what each layer should move.

mod flow;
mod json;
mod layers;
mod repeat;
mod serve;
mod stats;
mod sys;
mod table3;
mod trace;

use std::process::ExitCode;

/// The workloads a run accepts.
pub const WORKLOADS: [&str; 3] = ["table3_cold", "table3_exact_cold", "serve_warm"];

/// Named metrics in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!(
                    "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                    json::quote(name),
                    json::quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one run found.
pub struct Outcome {
    /// Failed correctness checks; empty when the outputs are correct.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// SplitMix64: the benchmark's own seeded stream (input data for the
/// function checks, the order of the daemon mix).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// `bench binder`, e.g. `steam HLPower(a=0.5)`, for diagnostics.
pub fn class_name(req: &hlpower::api::JobRequest) -> String {
    match &req.source {
        hlpower::api::JobSource::Suite(name) => format!("{name} {}", req.binder.label()),
        hlpower::api::JobSource::CdfgText(_) => format!("inline {}", req.binder.label()),
    }
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let (mut seed, mut seconds) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        let bad = |v: &str| format!("invalid value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // No defaults: a run of another length than `run_seconds` in
    // BENCHMARK.json would not be comparable with its bounds.
    a.seed = seed.ok_or("--seed is required")?;
    a.seconds = seconds.ok_or("--seconds is required")?;
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            WORKLOADS.join(", "),
            a.workload
        ));
    }
    Ok(a)
}

/// The cold workloads' parameters.
fn cold_spec(workload: &str) -> Option<table3::Spec> {
    match workload {
        "table3_cold" => Some(table3::Spec {
            lanes: 64,
            store: true,
        }),
        "table3_exact_cold" => Some(table3::Spec {
            lanes: 1,
            store: false,
        }),
        _ => None,
    }
}

fn run(a: &RunArgs) -> std::io::Result<Outcome> {
    match cold_spec(&a.workload) {
        Some(spec) => table3::run(&spec, a.seed, a.seconds, a.trace),
        None => serve::run(a.seed, a.seconds, a.trace),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve-daemon") => {
            let (Some(socket), Some(store)) = (argv.get(1), argv.get(2)) else {
                eprintln!("usage: flowbench serve-daemon SOCKET STORE_DIR");
                return ExitCode::from(2);
            };
            return match serve::daemon_main(socket, store) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("flowbench serve-daemon: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("repeat") => return repeat::main(&argv[1..]),
        _ => {}
    }
    let args = match parse_run_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            eprintln!(
                "usage: flowbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                 flowbench repeat [--k K]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("flowbench: check failed: {p}");
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.problems.is_empty(),
                out.attempted,
                out.failed,
                out.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flowbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
