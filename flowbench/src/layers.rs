//! Per-layer metrics of a traced run: self times per layer, the counts
//! recorded at the same boundaries, and the reconciliation of self
//! times against the traced wall time.

use crate::trace::Tracer;
use crate::Metrics;

/// Largest share of the traced wall time that may fall outside every
/// layer span (the benchmark's own loop, fingerprints, row assembly).
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Counts taken at layer boundaries during the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub transitions: u64,
    pub luts: u64,
    pub gates: u64,
    pub sa_queries: u64,
    pub sa_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub parked: u64,
    pub shed: u64,
}

/// Wire timings of the serve workload (zero elsewhere).
#[derive(Clone, Copy, Debug, Default)]
pub struct Wire {
    pub rtt_ms: f64,
    pub overhead_ms: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Puts every per-layer metric into `m`. Busy times are self seconds
/// over the traced unit of work (one pass of the matrix, or one round
/// of the mix replayed in process). `glue` names the spans that only group layers; their self
/// time is the unattributed part of the traced wall time. `overhead_s`
/// is traced minus untraced wall time for the same unit of work.
pub fn report(
    m: &mut Metrics,
    tr: &Tracer,
    glue: &[&str],
    overhead_s: f64,
    counts: &Counts,
    wire: &Wire,
    problems: &mut Vec<String>,
) {
    let selfs = tr.self_by_name();
    let busy = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    m.put("gatesim.busy_s", busy("gatesim"), "s");
    m.put("gatesim.transitions", counts.transitions as f64, "count");
    let gatesim = busy("gatesim");
    let rate = if gatesim > 0.0 {
        counts.transitions as f64 / gatesim
    } else {
        0.0
    };
    m.put("gatesim.transitions_per_s", rate, "1/s");
    m.put("mapper.busy_s", busy("mapper"), "s");
    m.put("mapper.luts", counts.luts as f64, "count");
    m.put("fubind.busy_s", busy("fubind"), "s");
    m.put("lopass.busy_s", busy("lopass"), "s");
    m.put("satable.busy_s", busy("satable"), "s");
    m.put("satable.queries", counts.sa_queries as f64, "count");
    m.put("satable.misses", counts.sa_misses as f64, "count");
    m.put(
        "satable.hit_ratio",
        ratio(
            counts.sa_queries - counts.sa_misses.min(counts.sa_queries),
            counts.sa_queries,
        ),
        "ratio",
    );
    m.put("api.busy_s", busy("api"), "s");
    m.put("sched.busy_s", busy("sched"), "s");
    m.put("regbind.busy_s", busy("regbind"), "s");
    m.put("mux.busy_s", busy("mux"), "s");
    m.put("datapath.busy_s", busy("datapath"), "s");
    m.put("datapath.gates", counts.gates as f64, "count");
    m.put("store.get_s", busy("store.get"), "s");
    m.put("store.put_s", busy("store.put"), "s");
    m.put("store.hits", counts.store_hits as f64, "count");
    m.put("store.misses", counts.store_misses as f64, "count");
    m.put(
        "store.hit_ratio",
        ratio(counts.store_hits, counts.store_hits + counts.store_misses),
        "ratio",
    );
    m.put("codec.encode_s", busy("codec.encode"), "s");
    m.put("codec.decode_s", busy("codec.decode"), "s");
    m.put("wire.rtt_ms", wire.rtt_ms, "ms");
    m.put("wire.overhead_ms", wire.overhead_ms, "ms");
    m.put("server.parked", counts.parked as f64, "count");
    m.put("server.shed", counts.shed as f64, "count");

    // Reconciliation: self times partition each root span exactly, and
    // all but a small share must land on a named layer.
    let wall = tr.root_seconds();
    let total: f64 = selfs.values().sum();
    if (total - wall).abs() > 1e-6 * wall.max(1.0) {
        problems.push(format!(
            "layer self times sum to {total:.6} s, traced wall is {wall:.6} s"
        ));
    }
    let unattributed: f64 = glue.iter().map(|g| busy(g)).sum();
    let share = if wall > 0.0 { unattributed / wall } else { 0.0 };
    if share > UNATTRIBUTED_TOLERANCE {
        problems.push(format!(
            "{:.1} % of the traced wall time is outside every layer span (tolerance {:.0} %)",
            share * 100.0,
            UNATTRIBUTED_TOLERANCE * 100.0
        ));
    }
    m.put("trace.wall_s", wall, "s");
    m.put("trace.unattributed_share", share, "ratio");
    m.put("trace.overhead_s", overhead_s, "s");
}

/// Writes the trace as Chrome trace-event JSON under
/// `.flowbench_work/traces/` and names the file on stderr.
pub fn write_trace(tr: &Tracer, stem: &str) {
    let dir = std::path::Path::new(".flowbench_work").join("traces");
    let path = dir.join(format!("{stem}.json"));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => eprintln!(
            "flowbench: {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("flowbench: cannot write {}: {e}", path.display()),
    }
}
