//! `flowbench repeat`: runs every workload `k` times on seeds 1..=k at
//! `run_seconds` and prints each end-to-end metric's median, quartiles
//! and quartile spread next to its bound, all from `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

struct Bound {
    name: String,
    bound: f64,
}

fn read_benchmark_json() -> Result<(Vec<String>, Vec<Bound>, u64), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let v = json::parse(&text)?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let bounds = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end metrics")?
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect();
    let seconds = v
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: no run_seconds")? as u64;
    Ok((workloads, bounds, seconds))
}

pub fn main(argv: &[String]) -> ExitCode {
    let (workloads, bounds, seconds) = match read_benchmark_json() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("flowbench repeat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let k = match argv {
        [] => 10,
        [flag, value] if flag == "--k" => match value.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => return usage(),
        },
        _ => return usage(),
    };
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("flowbench repeat: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for w in &workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut fail_shares = Vec::new();
        for seed in 1..=k {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", "0"])
                .stderr(Stdio::inherit())
                .output();
            let line = out
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().last().map(str::to_string));
            let Some(result) = line.and_then(|l| json::parse(&l).ok()) else {
                eprintln!("flowbench repeat: {w} seed {seed}: run failed");
                all_ok = false;
                continue;
            };
            if result.get("correct") != Some(&Value::Bool(true)) {
                eprintln!("flowbench repeat: {w} seed {seed}: correct is not true");
                all_ok = false;
            }
            let num = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            fail_shares.push(num("failed") / num("attempted").max(1.0));
            if let Some(Value::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        values.entry(name.clone()).or_default().push(v);
                    }
                }
            }
            eprintln!("flowbench repeat: {w} seed {seed} done");
        }
        println!("\n{w}: {k} runs of {seconds} s, failed share per run {fail_shares:?}");
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for b in &bounds {
            let Some(v) = values.get(&b.name) else {
                println!("{:<18} missing", b.name);
                all_ok = false;
                continue;
            };
            let q = stats::quartiles(v).unwrap_or([0.0; 3]);
            let med = stats::median0(v);
            let spread = stats::quartile_spread(v).unwrap_or(f64::INFINITY);
            // Set-up time carries no spread bound, only a bound on how
            // far its median may move.
            let verdict = if b.name == "setup_s" {
                "median-only"
            } else if spread <= b.bound / 3.0 {
                "ok"
            } else if spread <= b.bound {
                "within bound, above a third"
            } else {
                all_ok = false;
                "OVER BOUND"
            };
            println!(
                "{:<18} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6.3}  {verdict}",
                b.name, med, q[0], q[2], spread, b.bound
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
            println!("{:<18} runs: {}", "", runs.join(" "));
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: flowbench repeat [--k K]");
    ExitCode::from(2)
}
