//! Pieces shared by the workloads: seeded inputs, output checks, the
//! metric sheet and the per-layer probes.

use std::path::Path;
use std::time::Instant;

use merlin::BubbleConstruct;
use merlin_curves::{Curve, CurvePoint, ProvId};
use merlin_flows::{audit, FlowsConfig};
use merlin_geom::Point;
use merlin_netlist::bench_nets::random_net;
use merlin_netlist::{Net, Sink};
use merlin_order::tsp::tsp_order;
use merlin_resilience::journal::{JournalRecord, RecordStatus};
use merlin_resilience::ServingTier;
use merlin_server::IntakeWriter;
use merlin_supervisor::JournalWriter;
use merlin_tech::{BufferedTree, Evaluation, Technology};

use crate::spans::Spans;
use crate::stats::{mean, ratio};

/// SplitMix64: the benchmark's only source of randomness besides the
/// program's own `random_net`, so a seed fixes every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One net per entry of `sizes`, in that order, each placed by
/// `random_net` from a seed drawn from `rng`.
pub fn population(prefix: &str, sizes: &[usize], rng: &mut Rng, tech: &Technology) -> Vec<Net> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| random_net(&format!("{prefix}{i}"), n, rng.next_u64(), tech))
        .collect()
}

/// `net` moved rigidly by `(dx, dy)`.
pub fn translated(net: &Net, dx: i64, dy: i64) -> Net {
    let shift = |p: Point| Point::new(p.x + dx, p.y + dy);
    let sinks = net
        .sinks
        .iter()
        .map(|s| Sink::new(shift(s.pos), s.load, s.req_ps))
        .collect();
    Net::new(
        net.name.clone(),
        shift(net.source),
        net.driver.clone(),
        sinks,
    )
}

/// The benchmark's own check of a served tree: structure against the net
/// and the technology, then the routed embedding.
pub fn check_tree(net: &Net, tree: &BufferedTree, tech: &Technology) -> Result<(), String> {
    tree.validate(net.num_sinks(), tech)
        .map_err(|e| format!("{}: invalid tree: {e}", net.name))?;
    audit::check_tree(tree, &net.name).map_err(|e| format!("{}: route audit: {e}", net.name))
}

/// The bits of an evaluation that the digest covers.
pub fn eval_bits(eval: &Evaluation) -> [u64; 4] {
    [
        eval.delay_ps.to_bits(),
        eval.buffer_area,
        eval.wirelength,
        eval.num_buffers as u64,
    ]
}

/// Metric name of a serving tier's count.
pub fn tier_metric(tier: ServingTier) -> &'static str {
    match tier {
        ServingTier::Merlin => "resilience.tier.merlin",
        ServingTier::SinglePass => "resilience.tier.single-pass",
        ServingTier::PtreeVanGinneken => "resilience.tier.ptree_vg",
        ServingTier::LttreePtree => "resilience.tier.lttree_ptree",
        ServingTier::DirectRoute => "resilience.tier.direct",
    }
}

/// Named metric values with units, in report order.
#[derive(Debug, Default)]
pub struct Sheet(pub Vec<(&'static str, f64, &'static str)>);

impl Sheet {
    /// Appends one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by the output checks, one line each.
    pub problems: Vec<String>,
    pub sheet: Sheet,
    pub spans: Spans,
}

impl Outcome {
    /// Records one checked output.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    /// Compares the canary digest against the golden one; a mismatch is
    /// a failed output.
    pub fn check_digest(&mut self, workload: &str, actual: &str, golden: Option<&str>) {
        eprintln!("perfbench: {workload} canary digest {actual}");
        let result = match golden {
            Some(g) if g == actual => Ok(()),
            Some(g) => Err(format!("{workload}: digest {actual} != golden {g}")),
            None => Err(format!("{workload}: no golden digest")),
        };
        self.check(result);
    }

    /// The end-to-end metrics every workload reports with tracing off.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        nets_per_s: f64,
        latency_p50_ms: f64,
        qor: &[(f64, u64)],
        merlin_served: usize,
        served: usize,
    ) {
        let delays: Vec<f64> = qor.iter().map(|q| q.0).collect();
        let areas: Vec<f64> = qor.iter().map(|q| q.1 as f64).collect();
        let s = &mut self.sheet;
        s.put("setup_s", setup_s, "s");
        s.put("nets_per_s", nets_per_s, "1/s");
        s.put("latency_p50_ms", latency_p50_ms, "ms");
        s.put("qor_delay_ps", mean(&delays), "ps");
        s.put("qor_area", mean(&areas), "lambda2");
        s.put(
            "merlin_tier_share",
            ratio(merlin_served as f64, served as f64),
            "ratio",
        );
        s.put(
            "peak_rss_mb",
            crate::stats::peak_rss_mb().unwrap_or(0.0),
            "MiB",
        );
    }
}

/// How many times a run with tracing off sets up, for a steady `setup_s`.
const SETUPS: usize = 3;

/// Runs `setup` [`SETUPS`] times (once when tracing) and returns the last
/// result with the median set-up time; the first set-up is timed from
/// process start, so it includes process and input start-up. Earlier
/// results go to `discard`.
pub fn repeated_setup<T>(
    args: &crate::Args,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    let runs = if args.trace { 1 } else { SETUPS };
    for k in 0..runs {
        if let Some(previous) = last.take() {
            discard(previous)?;
        }
        let t0 = if k == 0 { args.started } else { Instant::now() };
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, crate::stats::median(&times)))
}

/// Every per-layer metric, zero until a workload measures it. A zero that
/// survives means the layer is not on that workload's path (README.md has
/// the map).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("curves.prune.calls", "count"),
    ("curves.prune.in", "count"),
    ("curves.arena.steps", "count"),
    ("curves.prune.kill_ratio", "ratio"),
    ("curves.prune_ns_per_point", "ns"),
    ("core.construct_ms", "ms"),
    ("core.merlin.iterations", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.gamma.points", "count"),
    ("order.tsp_us", "us"),
    ("geom.candidates_us", "us"),
    ("tech.evaluate_us", "us"),
    ("tech.svg_us", "us"),
    ("resilience.tier.merlin", "count"),
    ("resilience.tier.single-pass", "count"),
    ("resilience.tier.ptree_vg", "count"),
    ("resilience.tier.lttree_ptree", "count"),
    ("resilience.tier.direct", "count"),
    ("resilience.vet_us", "us"),
    ("flows.fallback_ms", "ms"),
    ("supervisor.attempt_ms", "ms"),
    ("supervisor.journal_append_us", "us"),
    ("supervisor.attempts", "count"),
    ("supervisor.pool_busy_ratio", "ratio"),
    ("server.rtt_ms", "ms"),
    ("server.intake_append_us", "us"),
    ("server.resubmit_p50_ms", "ms"),
    ("server.service_ms_p50", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.latency_p90_ms", "ms"),
    ("server.latency_samples", "count"),
    ("trace.overhead_ratio", "ratio"),
];

impl Sheet {
    /// A sheet holding every per-layer metric at zero.
    pub fn per_layer() -> Sheet {
        let mut sheet = Sheet::default();
        for (name, unit) in PER_LAYER {
            sheet.0.push((name, 0.0, unit));
        }
        sheet
    }

    /// Sets a per-layer metric, keeping its declared unit.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.1 = value;
    }

    /// The value of a metric, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
    }

    /// Copies the program's own deterministic counters into the sheet.
    pub fn counters(&mut self, lookup: impl Fn(&str) -> u64) {
        let c = |name: &str| lookup(name) as f64;
        self.set("curves.prune.calls", c("curves.prune.calls"));
        self.set("curves.prune.in", c("curves.prune.in"));
        self.set("curves.arena.steps", c("curves.arena.steps"));
        self.set(
            "curves.prune.kill_ratio",
            ratio(c("curves.pruned"), c("curves.prune.in")),
        );
        self.set("core.merlin.iterations", c("core.merlin.iterations"));
        self.set(
            "core.cache.hit_ratio",
            ratio(
                c("core.cache.hit"),
                c("core.cache.hit") + c("core.cache.miss"),
            ),
        );
        self.set("core.gamma.points", c("core.gamma.points"));
        self.set("supervisor.attempts", c("supervisor.attempts"));
    }
}

/// Mean wall time of `f` in `unit_ns` units over `reps` calls, each call
/// recorded as a span under `parent`.
fn timed_mean(
    spans: &mut Spans,
    name: &'static str,
    parent: usize,
    req: u64,
    reps: usize,
    unit_ns: f64,
    mut f: impl FnMut(),
) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        spans.time(name, Some(parent), req, &mut f);
    }
    t0.elapsed().as_nanos() as f64 / reps as f64 / unit_ns
}

/// A deterministic unpruned curve of `n` points.
fn synthetic_curve(n: u32, seed: u64) -> Curve {
    let mut rng = Rng::new(seed);
    let mut curve = Curve::new();
    for i in 0..n {
        curve.push(CurvePoint::new(
            (rng.below(4000)) as u32,
            rng.below(100_000) as f64 / 10.0,
            rng.below(40_000),
            ProvId::new(i),
        ));
    }
    curve
}

/// The probes every traced run takes on a sample of its nets and their
/// served trees: each times one crate's public entry point.
pub fn probe_layers(
    out: &mut Outcome,
    sample: &[(Net, BufferedTree)],
    tech: &Technology,
    scratch: &Path,
) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.sheet.set("host.nproc", nproc as f64);
    if nproc < 2 {
        eprintln!("perfbench: WARNING host has {nproc} core(s); jobs = 2 oversubscribes it");
    }
    let spans = &mut out.spans;
    let root = spans.open("probe", None, 0);
    let (mut tsp, mut cand, mut eval, mut svg, mut vet, mut construct) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for (i, (net, tree)) in sample.iter().enumerate() {
        let req = i as u64;
        let sinks = net.sink_positions();
        let (loads, reqs) = (net.sink_loads(), net.sink_reqs());
        let cfg = FlowsConfig::for_net_size(net.num_sinks());
        tsp.push(timed_mean(
            spans,
            "order.tsp_order",
            root,
            req,
            200,
            1e3,
            || {
                std::hint::black_box(tsp_order(net.source, &sinks));
            },
        ));
        cand.push(timed_mean(
            spans,
            "geom.candidates",
            root,
            req,
            200,
            1e3,
            || {
                std::hint::black_box(cfg.merlin.candidates.generate(net.source, &sinks));
            },
        ));
        eval.push(timed_mean(
            spans,
            "tech.evaluate",
            root,
            req,
            200,
            1e3,
            || {
                std::hint::black_box(tree.evaluate(tech, &net.driver, &loads, &reqs));
            },
        ));
        svg.push(timed_mean(spans, "tech.svg", root, req, 50, 1e3, || {
            std::hint::black_box(merlin_tech::svg::render(tree));
        }));
        vet.push(timed_mean(
            spans,
            "resilience.vet",
            root,
            req,
            200,
            1e3,
            || {
                std::hint::black_box(check_tree(net, tree, tech).is_ok());
            },
        ));
        let order = tsp_order(net.source, &sinks);
        construct.push(timed_mean(
            spans,
            "core.construct",
            root,
            req,
            1,
            1e6,
            || {
                let result = BubbleConstruct::new(net, tech, cfg.merlin).run(&order);
                std::hint::black_box(result.curve.len());
            },
        ));
    }
    let s = &mut out.sheet;
    s.set("order.tsp_us", mean(&tsp));
    s.set("geom.candidates_us", mean(&cand));
    s.set("tech.evaluate_us", mean(&eval));
    s.set("tech.svg_us", mean(&svg));
    s.set("resilience.vet_us", mean(&vet));
    s.set("core.construct_ms", mean(&construct));

    // Prune on synthetic curves sized like the traced run's prune calls.
    let points_per_call = ratio(s.get("curves.prune.in"), s.get("curves.prune.calls"));
    let size = points_per_call.round().max(2.0) as u32;
    let curves: Vec<Curve> = (0..64).map(|k| synthetic_curve(size, k)).collect();
    let rounds = (400_000 / size as usize).max(64);
    let mut prune_ns = 0u128;
    let span = spans.open("curves.prune", Some(root), 0);
    for r in 0..rounds {
        let mut curve = curves[r % curves.len()].clone();
        let t0 = Instant::now();
        curve.prune();
        prune_ns += t0.elapsed().as_nanos();
        std::hint::black_box(curve.len());
    }
    spans.close(span);
    out.sheet.set(
        "curves.prune_ns_per_point",
        prune_ns as f64 / (rounds as f64 * f64::from(size)),
    );

    // Durable appends: one fsync each, on the run's data directory.
    let record = JournalRecord {
        idx: 0,
        net: "probe".to_owned(),
        tier: ServingTier::Merlin,
        attempts: 1,
        timeouts: 0,
        status: RecordStatus::Served,
        hash: 1,
    };
    let mut journal = JournalWriter::create(&scratch.join("probe.journal"))?;
    let appends = 20;
    let t0 = Instant::now();
    for idx in 0..appends {
        let rec = JournalRecord {
            idx,
            ..record.clone()
        };
        spans.time("supervisor.journal_append", Some(root), idx, || {
            journal.append(&rec)
        })?;
    }
    let journal_us = t0.elapsed().as_nanos() as f64 / appends as f64 / 1e3;
    let mut intake = IntakeWriter::create(&scratch.join("probe.intake"))?;
    let t0 = Instant::now();
    for idx in 0..appends {
        let net = &sample[idx as usize % sample.len()].0;
        spans.time("server.intake_append", Some(root), idx, || {
            intake.append(idx, net)
        })?;
    }
    let intake_us = t0.elapsed().as_nanos() as f64 / appends as f64 / 1e3;
    spans.close(root);
    out.sheet.set("supervisor.journal_append_us", journal_us);
    out.sheet.set("server.intake_append_us", intake_us);
    Ok(())
}
