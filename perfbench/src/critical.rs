//! `critical_net`: one caller solves a fixed set of 6–7-sink nets through
//! flow III, one at a time, with the sequential DP engine.
//!
//! The set is fixed rather than drawn per seed. A flow-III solve costs one
//! DP pass per MERLIN iteration and nets take 1 to 4 iterations, so the
//! cost of a seeded 30-net sample moves by 10–20 % between seeds (measured
//! on 6- and 7-sink nets) and would bury the changes this workload is
//! meant to show. The seed instead moves every net rigidly across the
//! plane and rotates the solve order: the inputs the program parses and
//! routes differ per seed, the work and the trees do not, and the golden
//! digest checks exactly that.

use std::path::Path;
use std::time::Instant;

use merlin_flows::{flow3, FlowResult, FlowsConfig};
use merlin_netlist::bench_nets::random_net;
use merlin_netlist::Net;
use merlin_resilience::ServingTier;
use merlin_tech::Technology;

use crate::common::{
    check_tree, eval_bits, probe_layers, repeated_setup, tier_metric, translated, Outcome, Rng,
    Sheet,
};
use crate::stats::{median, ratio, Digest};
use crate::Args;

/// Sink counts of the fixed set, drawn once from {6, 7}.
const SIZES: [usize; 6] = [6, 7, 6, 7, 7, 6];

/// One solve: the result and its wall time in milliseconds.
fn solve(net: &Net, tech: &Technology) -> (FlowResult, f64) {
    let cfg = FlowsConfig::for_net_size(net.num_sinks());
    let t0 = Instant::now();
    let result = flow3::run(net, tech, &cfg);
    (result, t0.elapsed().as_secs_f64() * 1e3)
}

/// Solves every net once in the seeded rotation; returns per-net results
/// in set order and the summed solve time in milliseconds.
fn round(
    nets: &[Net],
    rotation: usize,
    tech: &Technology,
    out: &mut Outcome,
    reference: Option<&[FlowResult]>,
    latencies: &mut Vec<f64>,
    traced: bool,
) -> (Vec<Option<FlowResult>>, f64) {
    let mut results: Vec<Option<FlowResult>> = vec![None; nets.len()];
    let mut total = 0.0;
    for k in 0..nets.len() {
        let idx = (rotation + k) % nets.len();
        let net = &nets[idx];
        let req_span = traced.then(|| out.spans.open("critical.net", None, idx as u64));
        let layer_span = traced.then(|| out.spans.open("flows.flow3", req_span, idx as u64));
        let (result, ms) = solve(net, tech);
        if let Some(span) = layer_span {
            out.spans.close(span);
        }
        total += ms;
        latencies.push(ms);
        let mut check = check_tree(net, &result.tree, tech);
        if let (Ok(()), Some(reference)) = (&check, reference) {
            if eval_bits(&reference[idx].eval) != eval_bits(&result.eval) {
                check = Err(format!("{}: output changed between rounds", net.name));
            }
        }
        out.check(check);
        if let Some(span) = req_span {
            out.spans.close(span);
        }
        results[idx] = Some(result);
    }
    (results, total)
}

pub fn run(args: &Args, golden: Option<&str>, scratch: &Path) -> Result<Outcome, String> {
    let setup = || -> Result<(Technology, Vec<Net>), String> {
        let tech = Technology::synthetic_035();
        let mut rng = Rng::new(args.seed);
        let nets: Vec<Net> = SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let base = random_net(&format!("crit{i}"), n, 0xC417 + i as u64, &tech);
                translated(&base, rng.below(50_000) as i64, rng.below(50_000) as i64)
            })
            .collect();
        // Warm-up: page in the code and the allocator on a small net.
        let warm = random_net("warm", 4, 1, &tech);
        let (warm_result, _) = solve(&warm, &tech);
        check_tree(&warm, &warm_result.tree, &tech)?;
        Ok((tech, nets))
    };
    let ((tech, nets), setup_s) = repeated_setup(args, setup, |_| Ok(()))?;
    let tech = &tech;
    let rotation = Rng::new(args.seed ^ 1).below(SIZES.len() as u64) as usize;

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let (first, first_ms) = round(&nets, rotation, tech, &mut out, None, &mut latencies, false);
    let reference: Vec<FlowResult> = first.into_iter().flatten().collect();
    if reference.len() != nets.len() {
        return Err("a net went unsolved".to_owned());
    }
    let mut digest = Digest::default();
    for (net, result) in nets.iter().zip(&reference) {
        digest.add(
            &net.name,
            ServingTier::Merlin.label(),
            &eval_bits(&result.eval),
        );
    }
    out.check_digest("critical_net", &digest.hex(), golden);

    if args.trace {
        // One untraced round (above) and one traced round of the same work.
        merlin_trace::enable();
        let (_, traced_ms) = round(
            &nets,
            rotation,
            tech,
            &mut out,
            Some(&reference),
            &mut Vec::new(),
            true,
        );
        let trace = merlin_trace::drain();
        merlin_trace::disable();
        let mut sheet = Sheet::per_layer();
        sheet.counters(|name| trace.counter(name));
        sheet.set(tier_metric(ServingTier::Merlin), nets.len() as f64);
        let overhead = ratio(traced_ms, first_ms) - 1.0;
        sheet.set("trace.overhead_ratio", overhead);
        eprintln!("perfbench: trace.overhead_ratio {overhead:.4} ({traced_ms:.0} ms traced vs {first_ms:.0} ms untraced)");
        out.sheet = sheet;
        let sample: Vec<_> = nets
            .iter()
            .cloned()
            .zip(reference.iter().map(|r| r.tree.clone()))
            .collect();
        probe_layers(&mut out, &sample, tech, scratch).map_err(|e| e.to_string())?;
        return Ok(out);
    }

    // Whole rounds, so every net weighs the same, until less than half a
    // round of the window is left.
    let mut total_ms = first_ms;
    while total_ms + first_ms / 2.0 <= args.seconds * 1e3 {
        let (_, ms) = round(
            &nets,
            rotation,
            tech,
            &mut out,
            Some(&reference),
            &mut latencies,
            false,
        );
        total_ms += ms;
    }
    let qor: Vec<(f64, u64)> = reference
        .iter()
        .map(|r| (r.eval.delay_ps, r.eval.buffer_area))
        .collect();
    let solves = latencies.len();
    out.end_to_end(
        setup_s,
        solves as f64 / (total_ms / 1e3),
        median(&latencies),
        &qor,
        nets.len(),
        nets.len(),
    );
    eprintln!(
        "perfbench: critical_net {solves} solves of {} nets in {total_ms:.0} ms",
        nets.len()
    );
    Ok(out)
}
