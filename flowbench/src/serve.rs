//! The warm daemon workload: a `Server` in its own process over a
//! store warmed during set-up, driven by one closed-loop client.

use crate::flow::{self, BINDERS};
use crate::layers::{self, Counts, Wire};
use crate::sys::{self, WorkDir};
use crate::trace::Tracer;
use crate::{stats, Metrics, Outcome, SplitMix};
use hlpower::api::{self, Endpoint, JobReport, JobRequest};
use hlpower::satable::SharedSaTable;
use hlpower::{ArtifactStore, Binder, FlowConfig, FlowResult, ServeOptions, Server, Service};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon process this benchmark starts: the same `Server` and
/// options `hlp serve --socket PATH --store DIR` runs.
pub fn daemon_main(socket: &str, store: &str) -> io::Result<()> {
    let service = Service::new().with_store(Arc::new(ArtifactStore::open(store)?));
    let server = Server::bind(&Endpoint::Unix(PathBuf::from(socket)))?;
    server.serve_with(
        Arc::new(service),
        ServeOptions {
            log: true,
            handle_signals: true,
            ..ServeOptions::default()
        },
    )
}

/// A running daemon child; killed and reaped if dropped before
/// [`Daemon::stop`].
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    fn start(socket: &Path, store: &Path) -> io::Result<Daemon> {
        let child = Command::new(std::env::current_exe()?)
            .arg("serve-daemon")
            .arg(socket)
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut d = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while UnixStream::connect(socket).is_err() {
            if let Some(status) = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()) {
                return Err(io::Error::other(format!(
                    "daemon exited during start-up: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not start listening"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(d)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Graceful `control stop`, then waits for the process to end.
    fn stop(mut self) -> io::Result<()> {
        api::stop_daemon(&Endpoint::Unix(self.socket.clone())).map_err(io::Error::other)?;
        let mut child = self.child.take().expect("running daemon");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                child.wait()?;
                return Err(io::Error::other("daemon did not stop in time"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request line sent on a fresh connection; returns the reply
/// block's bytes as received (through its `end` line), skipping `busy`
/// admission lines.
fn exchange(socket: &Path, line: &str) -> io::Result<String> {
    let mut conn = UnixStream::connect(socket)?;
    // A daemon that never answers fails the request instead of hanging
    // the run.
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    conn.write_all(format!("{line}\n").as_bytes())?;
    let mut reader = BufReader::new(conn);
    let mut reply = String::new();
    loop {
        let mut l = String::new();
        if reader.read_line(&mut l)? == 0 {
            return Err(io::Error::other("connection closed before `end`"));
        }
        if reply.is_empty() && l.starts_with("busy") {
            continue;
        }
        if reply.is_empty() && l.starts_with("error") {
            return Err(io::Error::other(l.trim_end().to_string()));
        }
        reply.push_str(&l);
        if l == "end\n" {
            return Ok(reply);
        }
    }
}

/// A closed loop of whole rounds, each round every class once in a
/// seeded order.
struct Loop {
    /// `(class, seconds)` per request answered in full.
    samples: Vec<(usize, f64)>,
    round_walls: Vec<f64>,
    wall: f64,
    failed: u64,
}

/// Sends class `c` once and files its reply and, when the reply is
/// whole, its latency: a fast error must not read as a fast request.
fn send(
    socket: &Path,
    lines: &[String],
    c: usize,
    replies: &mut [Option<String>],
    l: &mut Loop,
    problems: &mut Vec<String>,
) {
    let t = Instant::now();
    let reply = exchange(socket, &lines[c]);
    let elapsed = t.elapsed().as_secs_f64();
    match reply {
        Ok(bytes) => {
            l.samples.push((c, elapsed));
            match &replies[c] {
                Some(first) if *first != bytes => {
                    problems.push(format!("class {c}: replies differ between requests"))
                }
                Some(_) => {}
                None => replies[c] = Some(bytes),
            }
        }
        Err(e) => {
            l.failed += 1;
            eprintln!("flowbench: class {c}: request failed: {e}");
        }
    }
}

/// Runs whole rounds until `rounds` are done, or (when `None`) until
/// `budget` has passed and p90 has ten samples beyond it.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    socket: &Path,
    lines: &[String],
    replies: &mut [Option<String>],
    rng: &mut SplitMix,
    rounds: Option<usize>,
    budget: Duration,
    mut tr: Option<&mut Tracer>,
    problems: &mut Vec<String>,
) -> Loop {
    let need = stats::samples_needed(0.9, 10);
    let start = Instant::now();
    let mut l = Loop {
        samples: Vec::new(),
        round_walls: Vec::new(),
        wall: 0.0,
        failed: 0,
    };
    loop {
        let order = rng.permutation(lines.len());
        let round = l.round_walls.len() as u64;
        let t = Instant::now();
        match tr.as_deref_mut() {
            Some(tr) => tr.span("round", round, |tr| {
                for &c in &order {
                    let id = round * lines.len() as u64 + c as u64;
                    tr.span("wire", id, |_| {
                        send(socket, lines, c, replies, &mut l, problems)
                    });
                }
            }),
            None => {
                for &c in &order {
                    send(socket, lines, c, replies, &mut l, problems);
                }
            }
        }
        l.round_walls.push(t.elapsed().as_secs_f64());
        let done = match rounds {
            Some(n) => l.round_walls.len() >= n,
            // Failures end the loop too: a daemon that stops answering
            // must not keep the run going past its time.
            None => start.elapsed() >= budget && (l.samples.len() >= need || l.failed > 0),
        };
        if done {
            break;
        }
    }
    l.wall = start.elapsed().as_secs_f64();
    l
}

fn class_medians(samples: &[(usize, f64)], classes: usize) -> Vec<f64> {
    (0..classes)
        .map(|c| {
            let v: Vec<f64> = samples.iter().filter(|s| s.0 == c).map(|s| s.1).collect();
            stats::median0(&v)
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> io::Result<Outcome> {
    let cfg = flow::flow_config(1, seed);
    // The mix: each suite benchmark's `hlp suite --requests` line
    // (HLPower α = 0.5 at its Table 2 constraint, one lane) and its
    // LOPASS twin.
    let classes = flow::matrix(&flow::suite(), &cfg);
    let lines: Vec<String> = classes.iter().map(JobRequest::to_line).collect();
    let mut wd = WorkDir::create()?;
    let socket = wd.path().join("d.sock");
    let daemon_store = wd.fresh("daemon-store");
    let mut problems = Vec::new();
    let mut rng = SplitMix(seed);

    // Set-up: start the daemon and warm its store with one pass of the mix.
    let t = Instant::now();
    let daemon = Daemon::start(&socket, &daemon_store)?;
    for line in &lines {
        exchange(&socket, line)?;
    }
    let setup_s = t.elapsed().as_secs_f64();
    let pid = daemon.pid();

    let mut replies: Vec<Option<String>> = vec![None; lines.len()];
    let budget = Duration::from_secs(seconds);
    let (cpu_d, cpu_c) = (sys::cpu_seconds(pid), sys::cpu_seconds(None));
    let timed = closed_loop(
        &socket,
        &lines,
        &mut replies,
        &mut rng,
        None,
        budget,
        None,
        &mut problems,
    );
    let cpu = sys::cpu_seconds(pid) - cpu_d + sys::cpu_seconds(None) - cpu_c;
    let peak_rss = sys::peak_rss_mb(pid) + sys::peak_rss_mb(None);
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let traced = trace.then(|| {
        let rounds = Some(timed.round_walls.len());
        closed_loop(
            &socket,
            &lines,
            &mut replies,
            &mut rng,
            rounds,
            budget,
            Some(&mut tr),
            &mut problems,
        )
    });
    if trace {
        match api::fetch_stats(&Endpoint::Unix(socket.clone())) {
            Ok(s) => (counts.parked, counts.shed) = (s.busy, s.shed),
            Err(e) => problems.push(format!("control stats: {e}")),
        }
    }
    daemon.stop()?;
    let failed = timed.failed + traced.as_ref().map_or(0, |l| l.failed);
    let answered = timed.samples.len() + traced.as_ref().map_or(0, |l| l.samples.len());
    let attempted = answered as u64 + failed;

    // Correctness, outside the timed region: every reply equals the
    // in-process execution of its request on a separately warmed store,
    // and that execution recomputed nothing.
    let reference =
        Service::new().with_store(Arc::new(ArtifactStore::open(wd.fresh("ref-store"))?));
    // Warming is outside every timed region: use both cores.
    for warm in reference.execute_all(&classes, 2) {
        warm.map_err(io::Error::other)?;
    }
    let mut rows = Vec::new();
    for (c, req) in classes.iter().enumerate() {
        let report: JobReport = reference.execute(req).map_err(io::Error::other)?;
        let st = report.stats.stages;
        if st.schedules + st.mappings + st.simulations != 0 {
            problems.push(format!(
                "class {c}: warm in-process execution recomputed stages ({st})"
            ));
        }
        match &replies[c] {
            Some(bytes) if *bytes == report.to_text() => {}
            Some(_) => problems.push(format!(
                "class {c}: daemon reply differs from in-process execution"
            )),
            None => problems.push(format!("class {c}: no reply to compare")),
        }
        rows.push(report.result);
    }
    flow::check_row_pairs(&rows, &mut problems);

    let mut m = Metrics::default();
    let latencies: Vec<f64> = timed.samples.iter().map(|s| s.1).collect();
    for (req, ms) in classes
        .iter()
        .zip(class_medians(&timed.samples, classes.len()))
    {
        eprintln!(
            "flowbench: {}: median {:.3} ms",
            crate::class_name(req),
            ms * 1e3
        );
    }
    match traced {
        None => {
            let rounds = timed.round_walls.len() as f64;
            m.put("setup_s", setup_s, "s");
            m.put("wall_s", stats::median0(&timed.round_walls), "s");
            m.put("cpu_s", cpu / rounds, "s");
            m.put("jobs_per_s", timed.samples.len() as f64 / timed.wall, "1/s");
            m.put("peak_rss_mb", peak_rss, "MiB");
            m.put("latency_p50_ms", stats::median0(&latencies) * 1e3, "ms");
            match stats::tail_percentile(&latencies, 0.9, 10) {
                Some(p90) => m.put("latency_p90_ms", p90 * 1e3, "ms"),
                None => problems.push(format!(
                    "{} answered requests leave no ten samples beyond p90",
                    latencies.len()
                )),
            }
            let [power, luts, mux] = flow::quality_ratios(&rows);
            m.put("power_vs_lopass", power, "ratio");
            m.put("luts_vs_lopass", luts, "ratio");
            m.put("muxlen_vs_lopass", mux, "ratio");
        }
        Some(traced) => {
            // The wire's share of a request: remote minus in-process
            // latency of the LOPASS classes, whose in-process time is
            // about a millisecond (an HLPower class's binding noise would
            // swamp it).
            let remote = class_medians(&timed.samples, classes.len());
            let shares: Vec<f64> = classes
                .iter()
                .enumerate()
                .filter(|(_, req)| req.binder == Binder::Lopass)
                .map(|(c, req)| {
                    let local: Vec<f64> = (0..21)
                        .map(|_| {
                            let t = Instant::now();
                            let _ = reference.execute(req);
                            t.elapsed().as_secs_f64()
                        })
                        .collect();
                    remote[c] - stats::median0(&local)
                })
                .collect();
            let overhead_ms = stats::median0(&shares) * 1e3;
            let replay_rows = replay(
                &classes,
                &cfg,
                reference.store().expect("reference store"),
                &mut tr,
                &mut counts,
            );
            if replay_rows
                .iter()
                .map(flow::row_key)
                .ne(rows.iter().map(flow::row_key))
            {
                problems.push("layered replay rows differ from the service's".to_string());
            }
            let wire = Wire {
                rtt_ms: stats::median0(&tr.durations("wire")) * 1e3,
                overhead_ms,
            };
            let overhead = stats::median0(&traced.round_walls) - stats::median0(&timed.round_walls);
            layers::report(
                &mut m,
                &tr,
                &["round", "replay", "request"],
                overhead,
                &counts,
                &wire,
                &mut problems,
            );
            layers::write_trace(&tr, &format!("serve_warm-seed{seed}"));
        }
    }
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics: m,
    })
}

/// One round of the mix replayed in-process on the warm reference
/// store, layer by layer: what a warm daemon worker does per request.
fn replay(
    classes: &[JobRequest],
    cfg: &FlowConfig,
    store: &ArtifactStore,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Vec<FlowResult> {
    let suite = flow::suite();
    // The warm daemon holds the front ends and the SA table in memory
    // already; load them outside the spans.
    let mut scratch = Tracer::default();
    let fronts: Vec<flow::Front> = suite
        .iter()
        .map(|(g, rc)| flow::front_layered(&mut scratch, 0, g, rc, cfg, Some(store)))
        .collect();
    let sa = SharedSaTable::new(cfg.sa_width, cfg.k).with_mode(cfg.sa_mode);
    if let Some(t) = store.load_sa_table(cfg.sa_mode, cfg.sa_width, cfg.k) {
        sa.absorb(&t)
            .expect("shard matches the table it was saved from");
    }
    let before = store.counters();
    let rows = tr.span("replay", 0, |tr| {
        classes
            .iter()
            .enumerate()
            .map(|(c, req)| {
                let id = c as u64;
                tr.span("request", id, |tr| {
                    let (g, rc) = tr.span("api", id, |_| {
                        req.resolve().expect("suite request resolves")
                    });
                    let front = &fronts[c / BINDERS.len()];
                    flow::job_layered(
                        tr,
                        id,
                        &g,
                        &rc,
                        front,
                        req.binder,
                        cfg,
                        &sa,
                        Some(store),
                        counts,
                    )
                })
            })
            .collect()
    });
    let d = store.counters().since(&before);
    (counts.store_hits, counts.store_misses) = (d.hits(), d.misses());
    let (q, mi) = sa.counters();
    (counts.sa_queries, counts.sa_misses) = (q, mi);
    rows
}
