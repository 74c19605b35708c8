//! What the workloads share: the suite and its requests, the flow run
//! layer by layer under the tracer, and the correctness checks.

use crate::trace::Tracer;
use cdfg::{Cdfg, FuType, LifetimeOptions, ResourceConstraint, Schedule};
use hlpower::api::JobRequest;
use hlpower::datapath::{elaborate, execute, Datapath, DatapathConfig};
use hlpower::fingerprint::{self, Fingerprint};
use hlpower::flow::{self, BindOutcome};
use hlpower::satable::{SaSource, SharedSaRef, SharedSaTable};
use hlpower::{
    bind_registers, mux_report, paper_constraint, ArtifactStore, Binder, FlowConfig, FlowResult,
    MappedArtifact, MuxReport, RegBindConfig, RegisterBinding,
};
use std::time::{Duration, Instant};

/// The simulation seed of `--seed 0` (the experiment binaries' default).
pub const SIM_SEED: u64 = 42;
/// The register-port seed of `--seed 0` (the experiment binaries' default).
pub const PORT_SEED: u64 = 1;

/// The Table 3 binder pair: baseline first, HLPower α = 0.5 second.
pub const BINDERS: [Binder; 2] = [Binder::Lopass, Binder::HlPower { alpha: 0.5 }];

/// The paper configuration (width 16, SA width 8, 1000 cycles) at
/// `lanes`, with both stochastic seeds offset by the workload seed.
pub fn flow_config(lanes: usize, seed: u64) -> FlowConfig {
    FlowConfig {
        lanes,
        sim_seed: SIM_SEED.wrapping_add(seed),
        port_seed: PORT_SEED.wrapping_add(seed),
        ..FlowConfig::default()
    }
}

/// The seven suite CDFGs with their Table 2 constraints.
pub fn suite() -> Vec<(Cdfg, ResourceConstraint)> {
    cdfg::PROFILES
        .iter()
        .map(|p| {
            let rc = paper_constraint(p.name).expect("every suite benchmark has a constraint");
            (cdfg::generate(p, p.seed), rc)
        })
        .collect()
}

/// The request for one benchmark × binder under `cfg`. Every knob a
/// request does not set keeps its paper default.
pub fn request(
    name: &str,
    rc: &ResourceConstraint,
    binder: Binder,
    cfg: &FlowConfig,
) -> JobRequest {
    let mut req = JobRequest::suite(name)
        .constraint(rc.addsub, rc.mul)
        .binder(binder)
        .lanes(cfg.lanes);
    req.sim_seed = cfg.sim_seed;
    req.port_seed = cfg.port_seed;
    req
}

/// The Table 3 matrix in row-major order: benchmark, then binder.
pub fn matrix(suite: &[(Cdfg, ResourceConstraint)], cfg: &FlowConfig) -> Vec<JobRequest> {
    suite
        .iter()
        .flat_map(|(g, rc)| BINDERS.iter().map(|&b| request(g.name(), rc, b, cfg)))
        .collect()
}

/// Every deterministic field of a result row (`bind_time` is wall
/// clock and left out), floats bit-exact.
pub fn row_key(r: &FlowResult) -> String {
    let p = &r.power;
    format!(
        "{} {} steps={} regs={} fus={}/{} meets={} luts={} depth={} est={:016x} mux={:?} \
         pow={:016x} clk={:016x} tog={:016x} tr={} glitch={:016x} saq={}",
        r.name,
        r.binder,
        r.schedule_steps,
        r.registers,
        r.fus_addsub,
        r.fus_mul,
        r.meets_constraint,
        r.luts,
        r.depth,
        r.estimated_sa.to_bits(),
        r.mux,
        p.dynamic_power_mw.to_bits(),
        p.clock_period_ns.to_bits(),
        p.avg_toggle_rate_mhz.to_bits(),
        p.total_transitions,
        p.glitch_fraction.to_bits(),
        r.sa_queries,
    )
}

/// `(power, LUTs, mux length)` as mean HLPower/LOPASS ratios over the
/// benchmarks of `rows` (row-major LOPASS, HLPower pairs).
pub fn quality_ratios(rows: &[FlowResult]) -> [f64; 3] {
    let pairs = |f: &dyn Fn(&FlowResult) -> f64| -> Vec<(f64, f64)> {
        rows.chunks_exact(2).map(|p| (f(&p[0]), f(&p[1]))).collect()
    };
    [
        crate::stats::mean_ratio(&pairs(&|r| r.power.dynamic_power_mw)),
        crate::stats::mean_ratio(&pairs(&|r| r.luts as f64)),
        crate::stats::mean_ratio(&pairs(&|r| r.mux.length as f64)),
    ]
}

// ---- the flow, one layer at a time -------------------------------------

/// An SA source that times every lookup it forwards.
struct TimedSa<'a> {
    inner: SharedSaRef<'a>,
    spent: Duration,
    calls: u64,
}

impl SaSource for TimedSa<'_> {
    fn sa(&mut self, fu: FuType, mux_a: usize, mux_b: usize) -> f64 {
        let start = Instant::now();
        let v = self.inner.sa(fu, mux_a, mux_b);
        self.spent += start.elapsed();
        self.calls += 1;
        v
    }
}

/// A store call under a `store.get` / `store.put` span, with the codec
/// time the store's own counters saw inside it split off as a
/// `codec.decode` / `codec.encode` child.
pub fn store_op<T>(
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    store: &ArtifactStore,
    f: impl FnOnce(&ArtifactStore) -> T,
) -> T {
    tr.span(name, req, |tr| {
        let before = store.codec();
        let value = f(store);
        let d = store.codec().since(&before);
        let decode =
            d.prepared_decode_ns + d.netlist_decode_ns + d.sim_decode_ns + d.satable_decode_ns;
        let encode =
            d.prepared_encode_ns + d.netlist_encode_ns + d.sim_encode_ns + d.satable_encode_ns;
        if decode > 0 {
            tr.aggregate("codec.decode", req, Duration::from_nanos(decode), 1);
        }
        if encode > 0 {
            tr.aggregate("codec.encode", req, Duration::from_nanos(encode), 1);
        }
        value
    })
}

/// Schedule plus register binding of one benchmark.
pub struct Front {
    pub fingerprint: Fingerprint,
    pub sched: Schedule,
    pub rb: RegisterBinding,
}

/// The front end as the pipeline runs it: a store lookup first (when a
/// store is attached), else `list_schedule` and `bind_registers`, saved
/// back to the store.
pub fn front_layered(
    tr: &mut Tracer,
    req: u64,
    g: &Cdfg,
    rc: &ResourceConstraint,
    cfg: &FlowConfig,
    store: Option<&ArtifactStore>,
) -> Front {
    let fp = fingerprint::prepared_fingerprint(g, rc, cfg);
    if let Some(st) = store {
        if let Some((sched, rb)) = store_op(tr, "store.get", req, st, |s| {
            s.load_prepared(fp, |_, _| true)
        }) {
            return Front {
                fingerprint: fp,
                sched,
                rb,
            };
        }
    }
    let sched = tr.span("sched", req, |_| cdfg::list_schedule(g, &cfg.library, rc));
    let rb = tr.span("regbind", req, |_| {
        bind_registers(
            g,
            &sched,
            &RegBindConfig {
                lifetime: LifetimeOptions {
                    latch_inputs: false,
                },
                seed: cfg.port_seed,
            },
        )
    });
    if let Some(st) = store {
        store_op(tr, "store.put", req, st, |s| {
            s.save_prepared(fp, &sched, &rb)
        });
    }
    Front {
        fingerprint: fp,
        sched,
        rb,
    }
}

/// One job — bind, mux analysis, then the backend through the store
/// (when attached) exactly as the pipeline orders it — with each
/// layer's public function under its own span. Returns the result row,
/// assembled here from the layer outputs.
#[allow(clippy::too_many_arguments)]
pub fn job_layered(
    tr: &mut Tracer,
    req: u64,
    g: &Cdfg,
    rc: &ResourceConstraint,
    front: &Front,
    binder: Binder,
    cfg: &FlowConfig,
    sa: &SharedSaTable,
    store: Option<&ArtifactStore>,
    counts: &mut crate::layers::Counts,
) -> FlowResult {
    let layer = if binder == Binder::Lopass {
        "lopass"
    } else {
        "fubind"
    };
    let outcome: BindOutcome = tr.span(layer, req, |tr| {
        let mut src = TimedSa {
            inner: sa.handle(),
            spent: Duration::ZERO,
            calls: 0,
        };
        let o = flow::bind(g, &front.sched, &front.rb, rc, binder, &mut src);
        if src.calls > 0 {
            tr.aggregate("satable", req, src.spent, src.calls);
        }
        o
    });
    let mux: MuxReport = tr.span("mux", req, |_| mux_report(g, &front.rb, &outcome.fb));
    let elaborate_span = |tr: &mut Tracer| {
        tr.span("datapath", req, |_| {
            elaborate(
                g,
                &front.sched,
                &front.rb,
                &outcome.fb,
                &DatapathConfig {
                    width: cfg.width,
                    control: cfg.control,
                },
            )
        })
    };
    let net_fp = fingerprint::netlist_fingerprint(front.fingerprint, &outcome.fb, cfg);
    let cached = store.and_then(|st| store_op(tr, "store.get", req, st, |s| s.load_mapped(net_fp)));
    let (backend, mut dp): (MappedArtifact, Option<Datapath>) = match cached {
        Some(artifact) => (artifact, None),
        None => {
            let dp = elaborate_span(tr);
            counts.gates += dp.netlist.num_logic() as u64;
            let mapped = tr.span("mapper", req, |_| {
                mapper::map(
                    &dp.netlist,
                    &mapper::MapConfig::new(cfg.k, cfg.map_objective),
                )
            });
            let artifact = MappedArtifact::from_mapped(mapped, dp.registers);
            counts.luts += artifact.luts as u64;
            if let Some(st) = store {
                store_op(tr, "store.put", req, st, |s| {
                    s.save_mapped(net_fp, &artifact)
                });
            }
            (artifact, Some(dp))
        }
    };
    let sim_fp = fingerprint::sim_fingerprint(net_fp, cfg);
    let cached = store.and_then(|st| store_op(tr, "store.get", req, st, |s| s.load_sim(sim_fp)));
    let stats = match cached {
        Some(stats) => stats,
        None => {
            let dp = dp.get_or_insert_with(|| elaborate_span(tr));
            let stats = tr.span("gatesim", req, |_| {
                flow::simulate(dp, &backend.netlist, cfg)
            });
            counts.transitions += stats.total_transitions;
            if let Some(st) = store {
                store_op(tr, "store.put", req, st, |s| s.save_sim(sim_fp, &stats));
            }
            stats
        }
    };
    let fb = &outcome.fb;
    let nets = flow::num_nets(backend.luts, &backend.netlist);
    FlowResult {
        name: g.name().to_string(),
        binder: binder.label(),
        schedule_steps: front.sched.num_steps,
        registers: backend.registers,
        fus_addsub: fb.count(FuType::AddSub),
        fus_mul: fb.count(FuType::Mul),
        meets_constraint: fb.meets(rc),
        luts: backend.luts,
        depth: backend.depth,
        estimated_sa: backend.estimated_sa,
        mux,
        power: cfg.power.evaluate(&stats, backend.depth, nets),
        bind_time: outcome.bind_time,
        sa_queries: outcome.sa_queries,
    }
}

// ---- correctness checks --------------------------------------------------

/// Properties of the method the rows must have: each benchmark's two
/// rows share the schedule and the registers (one front end serves both
/// binders), and both bindings meet the constraint. FU counts may
/// differ: HLPower merges only until the constraint is met, while the
/// first-fit baseline opens as few units as the schedule allows.
pub fn check_row_pairs(rows: &[FlowResult], problems: &mut Vec<String>) {
    for pair in rows.chunks_exact(2) {
        let (lop, hlp) = (&pair[0], &pair[1]);
        if (lop.schedule_steps, lop.registers) != (hlp.schedule_steps, hlp.registers) {
            problems.push(format!(
                "{}: LOPASS and HLPower rows differ in schedule steps or registers",
                lop.name
            ));
        }
        for r in pair {
            if !r.meets_constraint {
                problems.push(format!("{} {}: constraint not met", r.name, r.binder));
            }
        }
    }
}

/// Recomputes every job through the uncached flow functions and checks
/// the binding, the mapped netlist's structure and function, and the
/// rows' binding-derived fields; then checks that lane 0 of a 64-lane
/// simulation of one job replays the scalar simulator.
pub fn check_recomputed(
    suite: &[(Cdfg, ResourceConstraint)],
    cfg: &FlowConfig,
    rows: &[FlowResult],
    seed: u64,
    problems: &mut Vec<String>,
) {
    let mut rng = crate::SplitMix(seed ^ 0xC0FFEE);
    let mask = if cfg.width == 64 {
        u64::MAX
    } else {
        (1u64 << cfg.width) - 1
    };
    let mut replay: Option<(Datapath, netlist::Netlist)> = None;
    let mut rows = rows.iter();
    for (g, rc) in suite {
        let (sched, rb) = flow::prepare(g, rc, cfg);
        for binder in BINDERS {
            let row = rows.next().expect("one row per job");
            let what = format!("{} {}", g.name(), binder.label());
            let mut table = flow::sa_table_for(cfg, binder);
            let outcome = flow::bind(g, &sched, &rb, rc, binder, &mut table);
            let fb = &outcome.fb;
            if let Err(e) = fb.validate(g, &sched) {
                problems.push(format!("{what}: invalid binding: {e}"));
            }
            if !fb.meets(rc) {
                problems.push(format!("{what}: binding exceeds the constraint"));
            }
            if mux_report(g, &rb, fb) != row.mux || outcome.sa_queries != row.sa_queries {
                problems.push(format!(
                    "{what}: row's mux report or SA queries differ from a fresh binding"
                ));
            }
            let (dp, mapped) = flow::elaborate_map(g, &sched, &rb, fb, cfg);
            let report = netlist::check_netlist(&mapped.netlist);
            if !report.is_clean() {
                problems.push(format!(
                    "{what}: mapped netlist has {} check errors",
                    report.errors()
                ));
            }
            if (mapped.stats.luts, mapped.stats.depth) != (row.luts, row.depth) {
                problems.push(format!(
                    "{what}: row's LUTs/depth differ from a fresh mapping"
                ));
            }
            for _ in 0..3 {
                let data: Vec<u64> = g.inputs().iter().map(|_| rng.next_u64() & mask).collect();
                if execute(&dp, &mapped.netlist, &data) != g.evaluate(&data, cfg.width) {
                    problems.push(format!(
                        "{what}: mapped datapath computes a different function"
                    ));
                    break;
                }
            }
            if g.name() == "wang" && binder == Binder::Lopass {
                replay = Some((dp, mapped.netlist));
            }
        }
    }
    let (dp, nl) = replay.expect("the suite contains wang");
    if let Err(e) = lane0_replays_scalar(&dp, &nl, cfg, 200) {
        problems.push(format!("wang LOPASS: {e}"));
    }
}

/// Drives a 64-lane word simulation and the scalar simulator side by
/// side — per-lane streams packed as the flow packs them, the scalar
/// side fed the lane-0 stream — and compares every node's lane-0 value
/// after every cycle.
fn lane0_replays_scalar(
    dp: &Datapath,
    nl: &netlist::Netlist,
    cfg: &FlowConfig,
    cycles: u64,
) -> Result<(), String> {
    const LANES: usize = 64;
    let pack = |bits: &[bool]| -> u64 {
        bits.iter()
            .enumerate()
            .fold(0, |acc, (i, &b)| acc | (u64::from(b) << i))
    };
    let mut word = gatesim::WordSim::new(nl, LANES);
    let mut scalar = gatesim::CycleSim::new(nl);
    let mut word_src = gatesim::WordVectorSource::new(cfg.sim_seed, LANES);
    let mut scalar_src = gatesim::VectorSource::new(cfg.sim_seed);
    let mut data = vec![0u64; dp.data_ports.len()];
    let mut bits = vec![false; cfg.width];
    let mut pi = vec![false; nl.inputs().len()];
    let mut words = vec![0u64; nl.inputs().len()];
    for c in 0..cycles {
        let step = (c % u64::from(dp.num_steps)) as u32;
        words.fill(0);
        for lane in 0..LANES {
            for d in &mut data {
                word_src.lane(lane).fill(&mut bits);
                *d = pack(&bits);
            }
            dp.fill_input_vector(step, &data, &mut pi);
            for (w, &b) in words.iter_mut().zip(&pi) {
                *w |= u64::from(b) << lane;
            }
        }
        word.step(&words);
        for d in &mut data {
            *d = pack(&scalar_src.next_vector(cfg.width));
        }
        scalar.step(&dp.input_vector(step, &data));
        if let Some((id, _)) = nl
            .nodes()
            .find(|(id, _)| word.value(*id, 0) != scalar.value(*id))
        {
            return Err(format!(
                "lane 0 diverges from the scalar simulator at node {id:?}, cycle {c}"
            ));
        }
    }
    Ok(())
}
