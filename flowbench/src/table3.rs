//! The cold Table 3 workloads: the 7 × {LOPASS, HLPower α=0.5} matrix
//! through `Service::execute`, one job at a time, from a cold start.

use crate::flow::{self, BINDERS};
use crate::layers::{self, Counts};
use crate::sys::{self, WorkDir};
use crate::trace::Tracer;
use crate::{stats, Metrics, Outcome};
use cdfg::{Cdfg, ResourceConstraint};
use hlpower::api::JobRequest;
use hlpower::satable::SharedSaTable;
use hlpower::{ArtifactStore, FlowConfig, FlowResult, Service};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of the two cold workloads.
pub struct Spec {
    pub lanes: usize,
    /// Attach a fresh local artifact store to every pass.
    pub store: bool,
}

/// Everything a pass starts from.
struct Setup {
    suite: Vec<(Cdfg, ResourceConstraint)>,
    requests: Vec<JobRequest>,
    service: Service,
    store_dir: Option<PathBuf>,
}

fn setup(spec: &Spec, cfg: &FlowConfig, wd: &mut WorkDir) -> std::io::Result<Setup> {
    let suite = flow::suite();
    let requests = flow::matrix(&suite, cfg);
    let mut service = Service::new();
    let mut store_dir = None;
    if spec.store {
        let dir = wd.fresh("store");
        service = service.with_store(Arc::new(ArtifactStore::open(&dir)?));
        store_dir = Some(dir);
    }
    Ok(Setup {
        suite,
        requests,
        service,
        store_dir,
    })
}

fn teardown(s: Setup) {
    if let Some(dir) = s.store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

struct Pass {
    rows: Vec<FlowResult>,
    latencies: Vec<f64>,
    cpu: f64,
    failed: u64,
}

/// Runs the matrix one job at a time. Before each job one more set-up
/// is timed and thrown away (its teardown untimed): set-up is a fraction
/// of a millisecond and the host's speed drifts over seconds, so samples
/// spread over the whole run give a steadier median than a burst of
/// them. Wall and CPU time count the jobs only.
fn untraced_pass(
    s: &Setup,
    spec: &Spec,
    cfg: &FlowConfig,
    wd: &mut WorkDir,
    setup_samples: &mut Vec<f64>,
) -> std::io::Result<Pass> {
    let mut rows = Vec::with_capacity(s.requests.len());
    let mut latencies = Vec::with_capacity(s.requests.len());
    let mut cpu = 0.0;
    let mut failed = 0;
    for req in &s.requests {
        let t = Instant::now();
        let spare = setup(spec, cfg, wd)?;
        setup_samples.push(t.elapsed().as_secs_f64());
        teardown(spare);
        let cpu0 = sys::cpu_seconds(None);
        let t = Instant::now();
        match s.service.execute(req) {
            Ok(report) => rows.push(report.result),
            Err(e) => {
                failed += 1;
                eprintln!("flowbench: {}: job failed: {e}", crate::class_name(req));
            }
        }
        latencies.push(t.elapsed().as_secs_f64());
        cpu += sys::cpu_seconds(None) - cpu0;
    }
    Ok(Pass {
        rows,
        latencies,
        cpu,
        failed,
    })
}

/// The same matrix with every layer called in turn under the tracer,
/// against a fresh store when the workload has one.
fn traced_pass(
    s: &Setup,
    cfg: &FlowConfig,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Vec<FlowResult> {
    let store = s.service.store().map(Arc::as_ref);
    tr.span("pass", 0, |tr| {
        let sa = SharedSaTable::new(cfg.sa_width, cfg.k).with_mode(cfg.sa_mode);
        // A pipeline loads its SA shards (glitch-aware and zero-delay)
        // when it is created.
        if let Some(st) = store {
            for mode in [cfg.sa_mode, hlpower::SaMode::ZeroDelayAblation] {
                if let Some(t) = flow::store_op(tr, "store.get", 0, st, |st| {
                    st.load_sa_table(mode, cfg.sa_width, cfg.k)
                }) {
                    if mode == cfg.sa_mode {
                        sa.absorb(&t)
                            .expect("shard matches the table it was saved from");
                    }
                }
            }
        }
        let mut flushed = sa.len();
        let mut rows = Vec::new();
        let mut req = 0u64;
        for pair in s.requests.chunks_exact(BINDERS.len()) {
            let mut front = None;
            for request in pair {
                req += 1;
                let row = tr.span("job", req, |tr| {
                    let (g, rc) = tr.span("api", req, |_| {
                        request.resolve().expect("suite request resolves")
                    });
                    let front = front
                        .get_or_insert_with(|| flow::front_layered(tr, req, &g, &rc, cfg, store));
                    let row = flow::job_layered(
                        tr,
                        req,
                        &g,
                        &rc,
                        front,
                        request.binder,
                        cfg,
                        &sa,
                        store,
                        counts,
                    );
                    // Service::execute flushes the SA cache to the store
                    // after each job that taught it something.
                    if let Some(st) = store {
                        if sa.len() != flushed {
                            flushed = sa.len();
                            flow::store_op(tr, "store.put", req, st, |st| {
                                st.merge_sa_table(&sa.snapshot())
                            });
                        }
                    }
                    row
                });
                rows.push(row);
            }
        }
        (counts.sa_queries, counts.sa_misses) = sa.counters();
        rows
    })
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> std::io::Result<Outcome> {
    let cfg = flow::flow_config(spec.lanes, seed);
    let mut wd = WorkDir::create()?;
    let mut problems = Vec::new();
    let mut setup_samples = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut last = None;
    loop {
        let t = Instant::now();
        let s = setup(spec, &cfg, &mut wd)?;
        setup_samples.push(t.elapsed().as_secs_f64());
        passes.push(untraced_pass(&s, spec, &cfg, &mut wd, &mut setup_samples)?);
        if let Some(prev) = last.replace(s) {
            teardown(prev);
        }
        if trace || started.elapsed() >= budget {
            break;
        }
    }
    let s = last.expect("at least one pass ran");
    let peak_rss = sys::peak_rss_mb(None);
    let rows = passes[0].rows.clone();
    let attempted = (passes.len() * s.requests.len()) as u64;
    let failed: u64 = passes.iter().map(|p| p.failed).sum();

    // Correctness, outside every timed region. The checks need the whole
    // matrix, so a failed job leaves them unrun and the run incorrect.
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} jobs failed; the matrix checks did not run"
        ));
    } else {
        let first: Vec<String> = rows.iter().map(flow::row_key).collect();
        if passes
            .iter()
            .any(|p| p.rows.iter().map(flow::row_key).ne(first.iter().cloned()))
        {
            problems.push("passes of one run disagree".to_string());
        }
        flow::check_row_pairs(&rows, &mut problems);
        flow::check_recomputed(&s.suite, &cfg, &rows, seed, &mut problems);
    }

    for (i, req) in s.requests.iter().enumerate() {
        let times: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.latencies.get(i).copied())
            .collect();
        eprintln!(
            "flowbench: {}: median {:.1} ms",
            crate::class_name(req),
            stats::median0(&times) * 1e3
        );
    }
    let mut m = Metrics::default();
    if !trace {
        let walls: Vec<f64> = passes.iter().map(|p| p.latencies.iter().sum()).collect();
        let cpus: Vec<f64> = passes.iter().map(|p| p.cpu).collect();
        // The matrix is one submission: a job's latency runs from the
        // start of its pass to its result, so job `i` waits for the `i`
        // jobs before it (set-up samples excluded).
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.latencies.iter().scan(0.0, |done, t| {
                    *done += t;
                    Some(*done)
                })
            })
            .collect();
        m.put("setup_s", stats::median0(&setup_samples), "s");
        m.put("wall_s", stats::median0(&walls), "s");
        m.put("cpu_s", stats::median0(&cpus), "s");
        m.put(
            "jobs_per_s",
            attempted as f64 / walls.iter().sum::<f64>(),
            "1/s",
        );
        m.put("peak_rss_mb", peak_rss, "MiB");
        // Fourteen jobs per pass leave no ten samples beyond p90: on
        // these workloads p90 is the 13th completion of a pass, not a
        // tail estimate.
        m.put("latency_p50_ms", stats::median0(&latencies) * 1e3, "ms");
        m.put(
            "latency_p90_ms",
            stats::tail_percentile(&latencies, 0.9, 0).unwrap_or(0.0) * 1e3,
            "ms",
        );
        if failed == 0 {
            let [power, luts, mux] = flow::quality_ratios(&rows);
            m.put("power_vs_lopass", power, "ratio");
            m.put("luts_vs_lopass", luts, "ratio");
            m.put("muxlen_vs_lopass", mux, "ratio");
        }
    } else {
        // A fresh store for the traced pass, so it starts as cold as the
        // untraced one did.
        teardown(s);
        let s = setup(spec, &cfg, &mut wd)?;
        let mut tr = Tracer::default();
        let mut counts = Counts::default();
        let store_before = s
            .service
            .store()
            .map(|st| st.counters())
            .unwrap_or_default();
        let traced_rows = traced_pass(&s, &cfg, &mut tr, &mut counts);
        let store_delta = s
            .service
            .store()
            .map(|st| st.counters().since(&store_before))
            .unwrap_or_default();
        counts.store_hits = store_delta.hits();
        counts.store_misses = store_delta.misses();
        if failed == 0
            && traced_rows
                .iter()
                .map(flow::row_key)
                .ne(rows.iter().map(flow::row_key))
        {
            problems.push("traced rows differ from untraced rows".to_string());
        }
        let overhead = tr.root_seconds() - passes[0].latencies.iter().sum::<f64>();
        layers::report(
            &mut m,
            &tr,
            &["pass", "job"],
            overhead,
            &counts,
            &Default::default(),
            &mut problems,
        );
        layers::write_trace(&tr, &format!("table3-lanes{}-seed{seed}", spec.lanes));
        teardown(s);
    }
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: m,
    })
}
