//! `batch_ladder`: `run_batch` in thread mode (`jobs = 2`) over a mixed
//! 3–7-sink population under one fixed DP work limit, so the degradation
//! ladder decides the tier by net size: 3–4 sinks finish flow III, 5 sinks
//! finish it or stop early with the best tree so far, 6–7 sinks fall back
//! to P-Tree + van Ginneken.

use std::path::Path;
use std::time::Instant;

use merlin_flows::{flow2, FlowsConfig};
use merlin_netlist::bench_nets::random_net;
use merlin_netlist::Net;
use merlin_resilience::journal::{JournalRecord, RecordStatus};
use merlin_resilience::ServingTier;
use merlin_supervisor::{run_batch, solve_to_record, BatchConfig, BatchReport, ExecOptions};
use merlin_tech::{BufferedTree, Evaluation, Technology};

use crate::common::{
    check_tree, population, probe_layers, repeated_setup, tier_metric, Outcome, Rng, Sheet,
};
use crate::stats::{mean, median, ratio, Digest};
use crate::Args;

/// DP work units per net. 120 k splits the sizes into the tiers described
/// above (measured on 16 nets per size; 60 k sends 5-sink nets to the
/// fallback too, 250 k lets 6-sink nets finish flow III).
const WORK_LIMIT: u64 = 120_000;
/// Nets of each sink count in the population.
const PER_SIZE: usize = 16;

/// The supervisor configuration of both `batch_ladder` and the daemon:
/// two workers, the sequential DP engine, no failure artifacts.
pub fn batch_config(work_limit: Option<u64>) -> BatchConfig {
    BatchConfig {
        jobs: 2,
        threads: 1,
        work_limit,
        artifacts_dir: None,
        ..BatchConfig::default()
    }
}

/// One net solved serially through the supervisor's attempt loop: the
/// reference the batch's records must match.
pub struct Reference {
    pub record: JournalRecord,
    pub tree: BufferedTree,
    pub eval: Evaluation,
    /// Wall time of the `solve_to_record` call in milliseconds.
    pub ms: f64,
}

/// Solves `nets` with `solve_to_record` on two threads; each thread's
/// drained trace is appended to `traces` when tracing is on.
pub fn reference_solve(
    nets: &[Net],
    tech: &Technology,
    cfg: &BatchConfig,
    traced: bool,
    traces: &mut Vec<merlin_trace::Trace>,
) -> Vec<Reference> {
    let per_thread: Vec<(Vec<(usize, Reference)>, merlin_trace::Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    if traced {
                        merlin_trace::enable();
                    }
                    let mut done = Vec::new();
                    for (i, net) in nets.iter().enumerate().skip(t).step_by(2) {
                        let t0 = Instant::now();
                        let out = solve_to_record(
                            net,
                            tech,
                            cfg,
                            i as u64,
                            &ExecOptions::default(),
                            &mut |_| {},
                        );
                        done.push((
                            i,
                            Reference {
                                record: out.record,
                                tree: out.result.tree,
                                eval: out.result.eval,
                                ms: t0.elapsed().as_secs_f64() * 1e3,
                            },
                        ));
                    }
                    let trace = merlin_trace::drain();
                    merlin_trace::disable();
                    (done, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread does not panic"))
            .collect()
    });
    let mut all: Vec<(usize, Reference)> = Vec::new();
    for (done, trace) in per_thread {
        all.extend(done);
        traces.push(trace);
    }
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Checks every reference tree and records the outcome.
pub fn check_references(out: &mut Outcome, nets: &[Net], refs: &[Reference], tech: &Technology) {
    for (net, r) in nets.iter().zip(refs) {
        let served = match r.record.status {
            RecordStatus::Served => Ok(()),
            other => Err(format!("{}: reference solve {other}", net.name)),
        };
        out.check(served.and_then(|()| check_tree(net, &r.tree, tech)));
    }
}

fn fresh_batch(
    nets: &[Net],
    tech: &Technology,
    cfg: &BatchConfig,
    journal: &Path,
) -> Result<(BatchReport, f64), String> {
    let _ = std::fs::remove_file(journal);
    let t0 = Instant::now();
    let report = run_batch(nets.to_vec(), tech, cfg, journal).map_err(|e| e.to_string())?;
    Ok((report, t0.elapsed().as_secs_f64() * 1e3))
}

/// Every record of `report` must equal the reference solve of its net.
fn check_report(out: &mut Outcome, report: &BatchReport, refs: &[Reference]) {
    for (idx, r) in refs.iter().enumerate() {
        let row = report.rows.iter().find(|row| row.idx == idx as u64);
        out.check(match row {
            Some(row) if *row == r.record => Ok(()),
            Some(row) => Err(format!(
                "{}: batch record {row:?} != reference {:?}",
                r.record.net, r.record
            )),
            None => Err(format!("{}: lost by the batch", r.record.net)),
        });
    }
}

pub fn run(args: &Args, golden: Option<&str>, scratch: &Path) -> Result<Outcome, String> {
    let cfg = batch_config(Some(WORK_LIMIT));
    let journal = scratch.join("batch.journal");
    // Set-up: technology, population, and a warm-up batch over a fixed
    // canary population whose outputs are checked against the golden
    // digest.
    let setup = || -> Result<(Technology, Vec<Net>, BatchReport), String> {
        let tech = Technology::synthetic_035();
        let mut rng = Rng::new(args.seed);
        let mut sizes: Vec<usize> = (3..=7).flat_map(|n| [n; PER_SIZE]).collect();
        rng.shuffle(&mut sizes);
        let nets = population("b", &sizes, &mut rng, &tech);
        let canary: Vec<Net> = (3..=7)
            .map(|n| random_net(&format!("canary{n}"), n, 900 + n as u64, &tech))
            .collect();
        let (report, _) = fresh_batch(&canary, &tech, &cfg, &journal)?;
        Ok((tech, nets, report))
    };
    let ((tech, nets, canary), setup_s) = repeated_setup(args, setup, |_| Ok(()))?;
    let tech = &tech;
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    for row in &canary.rows {
        out.check(match row.status {
            RecordStatus::Served => Ok(()),
            other => Err(format!("{}: canary {other}", row.net)),
        });
        digest.add(&row.net, row.tier.label(), &[row.hash]);
    }
    out.check_digest("batch_ladder", &digest.hex(), golden);

    if args.trace {
        let (untraced, untraced_ms) = fresh_batch(&nets, tech, &cfg, &journal)?;
        let traced_cfg = BatchConfig {
            capture_trace: true,
            ..cfg.clone()
        };
        let span = out.spans.open("supervisor.run_batch", None, 0);
        let (report, traced_ms) = fresh_batch(&nets, tech, &traced_cfg, &journal)?;
        out.spans.close(span);
        let refs = reference_solve(&nets, tech, &cfg, false, &mut Vec::new());
        check_references(&mut out, &nets, &refs, tech);
        check_report(&mut out, &untraced, &refs);
        check_report(&mut out, &report, &refs);
        let mut sheet = Sheet::per_layer();
        if let Some(set) = &report.trace {
            sheet.counters(|name| set.counter(name));
        }
        for tier in ServingTier::LADDER {
            let count = report.rows.iter().filter(|r| r.tier == tier).count();
            sheet.set(tier_metric(tier), count as f64);
        }
        sheet.set("trace.overhead_ratio", ratio(traced_ms, untraced_ms) - 1.0);
        eprintln!("perfbench: batch traced {traced_ms:.0} ms vs untraced {untraced_ms:.0} ms");
        out.sheet = sheet;
        fallback_probe(&mut out, &nets, &refs, tech);
        // Two nets of every size for the per-call probes.
        let sample: Vec<_> = (3..=7)
            .flat_map(|n| {
                nets.iter()
                    .zip(&refs)
                    .filter(move |(net, _)| net.num_sinks() == n)
                    .take(2)
            })
            .map(|(net, r)| (net.clone(), r.tree.clone()))
            .collect();
        attempt_probe(&mut out, &sample, tech, &cfg);
        let attempts_ms: f64 = refs.iter().map(|r| r.ms).sum();
        out.sheet.set(
            "supervisor.pool_busy_ratio",
            ratio(attempts_ms, cfg.jobs as f64 * untraced_ms),
        );
        probe_layers(&mut out, &sample, tech, scratch).map_err(|e| e.to_string())?;
        return Ok(out);
    }

    let mut reports = Vec::new();
    let mut walls = Vec::new();
    // Whole batches until less than half a batch of the window is left.
    while walls.is_empty()
        || walls.iter().sum::<f64>() + walls[walls.len() - 1] / 2.0 <= args.seconds * 1e3
    {
        let (report, ms) = fresh_batch(&nets, tech, &cfg, &journal)?;
        reports.push(report);
        walls.push(ms);
    }
    // Verification after the window: every batch record must equal an
    // independent serial solve of its net, whose tree is checked.
    let refs = reference_solve(&nets, tech, &cfg, false, &mut Vec::new());
    check_references(&mut out, &nets, &refs, tech);
    for report in &reports {
        check_report(&mut out, report, &refs);
    }
    let solved = walls.len() * nets.len();
    let qor: Vec<(f64, u64)> = refs
        .iter()
        .map(|r| (r.eval.delay_ps, r.eval.buffer_area))
        .collect();
    let merlin = refs
        .iter()
        .filter(|r| r.record.tier == ServingTier::Merlin)
        .count();
    // Per net, not per batch: a batch's wall time would only restate
    // `nets_per_s`. The verification solve runs each net through the same
    // attempt loop on two threads, like the pool, and times every call.
    let per_net: Vec<f64> = refs.iter().map(|r| r.ms).collect();
    out.end_to_end(
        setup_s,
        solved as f64 / (walls.iter().sum::<f64>() / 1e3),
        median(&per_net),
        &qor,
        merlin,
        refs.len(),
    );
    eprintln!(
        "perfbench: batch_ladder {} batches of {} nets, walls {walls:.0?} ms",
        walls.len(),
        nets.len()
    );
    Ok(out)
}

/// Reports the mean serial `solve_to_record` time over `sample` in
/// milliseconds as `supervisor.attempt_ms`.
pub fn attempt_probe(
    out: &mut Outcome,
    sample: &[(Net, BufferedTree)],
    tech: &Technology,
    cfg: &BatchConfig,
) {
    let mut ms = Vec::new();
    for (i, (net, _)) in sample.iter().enumerate() {
        let t0 = Instant::now();
        out.spans
            .time("supervisor.solve_to_record", None, i as u64, || {
                solve_to_record(
                    net,
                    tech,
                    cfg,
                    i as u64,
                    &ExecOptions::default(),
                    &mut |_| {},
                )
            });
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out.sheet.set("supervisor.attempt_ms", mean(&ms));
}

/// Times `flow2::try_run` on the nets the ladder sent to a fallback tier.
pub fn fallback_probe(out: &mut Outcome, nets: &[Net], refs: &[Reference], tech: &Technology) {
    let mut ms = Vec::new();
    for (i, (net, r)) in nets.iter().zip(refs).enumerate() {
        if r.record.tier == ServingTier::Merlin {
            continue;
        }
        let cfg = FlowsConfig::for_net_size(net.num_sinks());
        let t0 = Instant::now();
        let result = out.spans.time("flows.flow2", None, i as u64, || {
            flow2::try_run(net, tech, &cfg)
        });
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(
            result
                .map(|_| ())
                .map_err(|e| format!("{}: flow II: {e}", net.name)),
        );
    }
    out.sheet.set("flows.fallback_ms", mean(&ms));
}
