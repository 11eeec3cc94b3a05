//! `daemon_closed`: an in-process `run_server` (`jobs = 2`, default
//! capacity) serving two closed-loop callers. Each caller submits with
//! `wait: true` through the program's own `merlin_server::Client` and sends
//! its next request only after the reply. Every eighth request re-submits
//! one of the caller's finished ids, which the daemon answers from its
//! outcome record without solving.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use merlin_netlist::bench_nets::random_net;
use merlin_netlist::io::{parse_net, write_net};
use merlin_netlist::Net;
use merlin_resilience::ServingTier;
use merlin_server::client::{metrics_line, stats_line, submit_line, watch_line};
use merlin_server::json::{self, Json};
use merlin_server::{run_server, Client, ServerConfig, ADDR_FILE};
use merlin_tech::Technology;

use crate::batch::{
    attempt_probe, batch_config, check_references, fallback_probe, reference_solve, Reference,
};
use crate::common::{population, probe_layers, repeated_setup, tier_metric, Outcome, Rng, Sheet};
use crate::stats::{median, percentile, ratio, Digest};
use crate::Args;

/// Concurrent closed-loop callers.
const CALLERS: usize = 2;
/// Sink counts of the pool the callers walk, repeated [`REPEATS`] times.
/// Interleaving keeps the size mix of any stretch of the walk fixed, so
/// runs differ by placement, not by how many large nets they drew. Half
/// the nets have two sinks: with the re-submits, most requests then cost
/// about one protocol round trip, which is what this workload measures.
const PATTERN: [usize; 4] = [2, 3, 2, 4];
const REPEATS: usize = 48;
/// One request in this many is a re-submit of a finished id.
const RESUBMIT_EVERY: usize = 8;

/// One reply as the caller saw it.
struct Reply {
    id: u64,
    net: usize,
    resubmit: bool,
    start: Instant,
    end: Instant,
    /// The raw reply line, checked after the window.
    line: String,
}

impl Reply {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

struct Daemon {
    handle: JoinHandle<Result<(), String>>,
    addr: String,
}

fn start_daemon(
    tech: &Technology,
    data_dir: PathBuf,
    capture_traces: usize,
) -> Result<Daemon, String> {
    merlin_supervisor::proc::reset_drain_for_tests();
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: data_dir.clone(),
        batch: batch_config(None),
        capture_traces,
        ..ServerConfig::default()
    };
    let tech = tech.clone();
    let handle = std::thread::spawn(move || {
        run_server(cfg, &tech)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let addr_file = data_dir.join(ADDR_FILE);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if text.ends_with('\n') {
                return Ok(Daemon {
                    handle,
                    addr: text.trim().to_owned(),
                });
            }
        }
        if handle.is_finished() || Instant::now() > deadline {
            merlin_supervisor::request_drain();
            return Err(match handle.join() {
                Ok(Err(e)) => e,
                _ => "daemon did not start".to_owned(),
            });
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn stop_daemon(daemon: Daemon) -> Result<(), String> {
    merlin_supervisor::request_drain();
    daemon
        .handle
        .join()
        .map_err(|_| "daemon panicked".to_owned())?
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr, Duration::from_secs(10)).map_err(|e| format!("connect {addr}: {e}"))
}

/// Checks a `done` reply against the reference solve of its net.
fn check_done(line: &str, r: &Reference) -> Result<(), String> {
    let reply = json::parse(line).map_err(|e| format!("bad reply {line}: {e}"))?;
    let record = reply.get("record");
    let field = |k: &str| record.and_then(|rec| rec.get(k)).and_then(Json::as_str);
    let expected_hash = format!("{:016x}", r.record.hash);
    if reply.get("type").and_then(Json::as_str) != Some("done")
        || field("status") != Some("served")
        || field("tier") != Some(r.record.tier.label())
        || field("hash") != Some(expected_hash.as_str())
    {
        return Err(format!(
            "{}: reply {line} does not match the reference",
            r.record.net
        ));
    }
    Ok(())
}

/// One closed-loop caller: runs until `until`, or for exactly `count`
/// requests when given.
fn caller(
    addr: &str,
    c: usize,
    texts: &[String],
    until: Instant,
    count: Option<usize>,
) -> Result<Vec<Reply>, String> {
    let mut client = connect(addr)?;
    let mut replies: Vec<Reply> = Vec::new();
    let mut fresh = 0usize;
    let pool = texts.len();
    loop {
        let i = replies.len();
        match count {
            Some(n) if i >= n => break,
            None if Instant::now() >= until => break,
            _ => {}
        }
        let (id, net, resubmit) = if i % RESUBMIT_EVERY == RESUBMIT_EVERY - 1 {
            let earlier = &replies[i - RESUBMIT_EVERY / 2];
            (earlier.id, earlier.net, true)
        } else {
            fresh += 1;
            let net = (c * pool / CALLERS + fresh) % pool;
            ((c as u64 + 1) * 1_000_000 + i as u64, net, false)
        };
        let start = Instant::now();
        let line = client
            .request(&submit_line(id, &texts[net], None, true))
            .map_err(|e| format!("caller {c}: {e}"))?;
        let end = Instant::now();
        replies.push(Reply {
            id,
            net,
            resubmit,
            start,
            end,
            line,
        });
    }
    Ok(replies)
}

/// Both callers against `addr`; returns the replies of each.
fn closed_loop(
    addr: &str,
    texts: &[String],
    seconds: f64,
    counts: Option<&[usize]>,
) -> Result<Vec<Vec<Reply>>, String> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let count = counts.map(|n| n[c]);
                s.spawn(move || caller(addr, c, texts, until, count))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "caller panicked".to_owned())?)
            .collect()
    })
}

fn wall_ms(replies: &[Vec<Reply>]) -> f64 {
    let all = replies.iter().flatten();
    let start = all.clone().map(|r| r.start).min();
    let end = all.map(|r| r.end).max();
    match (start, end) {
        (Some(s), Some(e)) => (e - s).as_secs_f64() * 1e3,
        _ => 0.0,
    }
}

/// Median of `n` round trips of a request line on an idle daemon.
fn round_trips(addr: &str, line: &str, n: usize) -> Result<(f64, String), String> {
    let mut client = connect(addr)?;
    let mut ms = Vec::new();
    let mut last = String::new();
    for _ in 0..n {
        let t0 = Instant::now();
        last = client.request(line).map_err(|e| e.to_string())?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&ms), last))
}

/// What one set-up leaves running.
struct Setup {
    tech: Technology,
    texts: Vec<String>,
    nets: Vec<Net>,
    canary: Vec<Net>,
    /// The daemon's replies to the canary submits.
    canary_replies: Vec<String>,
    daemon: Daemon,
}

fn parse_all(texts: &[String]) -> Result<Vec<Net>, String> {
    texts
        .iter()
        .map(|t| parse_net(t).map_err(|e| e.to_string()))
        .collect()
}

fn setup(args: &Args, scratch: &Path) -> Result<Setup, String> {
    let tech = Technology::synthetic_035();
    let sizes: Vec<usize> = PATTERN
        .iter()
        .copied()
        .cycle()
        .take(PATTERN.len() * REPEATS)
        .collect();
    let texts: Vec<String> = population("d", &sizes, &mut Rng::new(args.seed), &tech)
        .iter()
        .map(write_net)
        .collect();
    // The daemon receives nets as text, so the reference solves use the
    // nets the text describes.
    let nets = parse_all(&texts)?;
    let canary_texts: Vec<String> = (2..=4)
        .map(|n| {
            write_net(&random_net(
                &format!("dcanary{n}"),
                n,
                800 + n as u64,
                &tech,
            ))
        })
        .collect();
    let canary = parse_all(&canary_texts)?;
    let daemon = start_daemon(&tech, scratch.join("daemon"), 0)?;
    // Warm-up through the daemon on the canary nets.
    let mut client = connect(&daemon.addr)?;
    let mut canary_replies = Vec::new();
    for (i, text) in canary_texts.iter().enumerate() {
        let line = client
            .request(&submit_line(i as u64 + 1, text, None, true))
            .map_err(|e| e.to_string())?;
        canary_replies.push(line);
    }
    Ok(Setup {
        tech,
        texts,
        nets,
        canary,
        canary_replies,
        daemon,
    })
}

pub fn run(args: &Args, golden: Option<&str>, scratch: &Path) -> Result<Outcome, String> {
    let (setup, setup_s) =
        repeated_setup(args, || setup(args, scratch), |s| stop_daemon(s.daemon))?;
    let Setup {
        tech,
        texts,
        nets,
        canary,
        canary_replies,
        daemon,
    } = setup;
    let tech = &tech;
    let mut out = Outcome::default();
    let mut digest = Digest::default();
    for (net, line) in canary.iter().zip(&canary_replies) {
        let reply = json::parse(line).unwrap_or(Json::Null);
        let field = |k: &str| {
            reply
                .get("record")
                .and_then(|r| r.get(k))
                .and_then(Json::as_str)
        };
        let hash = field("hash").and_then(|h| u64::from_str_radix(h, 16).ok());
        digest.add(
            &net.name,
            field("tier").unwrap_or("?"),
            &[hash.unwrap_or(0)],
        );
    }
    out.check_digest("daemon_closed", &digest.hex(), golden);

    if args.trace {
        return traced(
            args,
            tech,
            scratch,
            daemon,
            &nets,
            &texts,
            (&canary, &canary_replies),
            out,
        );
    }

    let replies = closed_loop(&daemon.addr, &texts, args.seconds, None)?;
    stop_daemon(daemon)?;
    let refs = verify(
        &mut out,
        tech,
        &nets,
        (&canary, &canary_replies),
        &replies,
        false,
        &mut Vec::new(),
    );
    let wall = wall_ms(&replies);
    let all: Vec<&Reply> = replies.iter().flatten().collect();
    let latencies: Vec<f64> = all.iter().map(|r| r.ms()).collect();
    // Quality over the whole pool, each net as the daemon serves it (every
    // reply was checked equal to its net's reference), so it does not
    // depend on how far the window let the callers walk.
    let qor: Vec<(f64, u64)> = refs
        .iter()
        .map(|r| (r.eval.delay_ps, r.eval.buffer_area))
        .collect();
    let merlin = refs
        .iter()
        .filter(|r| r.record.tier == ServingTier::Merlin)
        .count();
    out.end_to_end(
        setup_s,
        all.len() as f64 / (wall / 1e3),
        median(&latencies),
        &qor,
        merlin,
        refs.len(),
    );
    eprintln!(
        "perfbench: daemon_closed {} replies in {wall:.0} ms, p90 {:?} ms",
        all.len(),
        percentile(&latencies, 0.9)
    );
    Ok(out)
}

/// Verification after the window: solves every pool and canary net
/// serially, checks their trees, then checks every daemon reply against
/// the reference of its net. Returns the pool references.
fn verify(
    out: &mut Outcome,
    tech: &Technology,
    nets: &[Net],
    canary: (&[Net], &[String]),
    replies: &[Vec<Reply>],
    traced: bool,
    traces: &mut Vec<merlin_trace::Trace>,
) -> Vec<Reference> {
    let cfg = batch_config(None);
    let refs = reference_solve(nets, tech, &cfg, traced, traces);
    check_references(out, nets, &refs, tech);
    let canary_refs = reference_solve(canary.0, tech, &cfg, false, &mut Vec::new());
    check_references(out, canary.0, &canary_refs, tech);
    for (line, r) in canary.1.iter().zip(&canary_refs) {
        out.check(check_done(line, r));
    }
    for r in replies.iter().flatten() {
        out.check(check_done(&r.line, &refs[r.net]));
    }
    refs
}

/// The traced run: the same request count on an untraced daemon and on a
/// daemon capturing every job's trace, plus the daemon's own telemetry.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    tech: &Technology,
    scratch: &Path,
    daemon: Daemon,
    nets: &[Net],
    texts: &[String],
    canary: (&[Net], &[String]),
    mut out: Outcome,
) -> Result<Outcome, String> {
    // Three quarters of the window, so the traced pass repeating the same
    // request counts leaves at least 10 samples beyond its p90.
    let untraced = closed_loop(&daemon.addr, texts, args.seconds * 0.75, None)?;
    stop_daemon(daemon)?;
    let counts: Vec<usize> = untraced.iter().map(Vec::len).collect();
    let untraced_ms = wall_ms(&untraced);

    let daemon = start_daemon(tech, scratch.join("daemon-b"), 4096)?;
    // A watch subscriber collects each job's service time from `done`
    // events until the daemon drains.
    let mut watch = connect(&daemon.addr)?;
    watch.request(&watch_line()).map_err(|e| e.to_string())?;
    let watcher = std::thread::spawn(move || {
        let mut service = std::collections::HashMap::new();
        while let Ok(Some(line)) = watch.read_line() {
            let Ok(event) = json::parse(&line) else {
                continue;
            };
            if event.get("event").and_then(Json::as_str) == Some("done") {
                if let (Some(id), Some(ms)) = (
                    event.get("id").and_then(Json::as_u64),
                    event.get("service_ms").and_then(Json::as_u64),
                ) {
                    service.insert(id, ms);
                }
            }
        }
        service
    });
    let replies = closed_loop(&daemon.addr, texts, 0.0, Some(&counts))?;
    let traced_ms = wall_ms(&replies);
    let (rtt, _) = round_trips(&daemon.addr, &stats_line(), 12)?;
    let (_, metrics) = round_trips(&daemon.addr, &metrics_line(), 1)?;
    stop_daemon(daemon)?;
    let service = watcher.join().map_err(|_| "watcher panicked".to_owned())?;

    let start = replies.iter().flatten().map(|r| r.start).min();
    let end = replies.iter().flatten().map(|r| r.end).max();
    if let (Some(start), Some(end)) = (start, end) {
        let root = out.spans.record("daemon.closed_loop", start, end, None, 0);
        for r in replies.iter().flatten() {
            out.spans
                .record("server.request", r.start, r.end, Some(root), r.id);
        }
    }
    let mut traces = Vec::new();
    let both: Vec<Vec<Reply>> = untraced.into_iter().chain(replies).collect();
    let refs = &verify(&mut out, tech, nets, canary, &both, true, &mut traces);
    let replies = &both[CALLERS..];
    let traced_replies: Vec<&Reply> = replies.iter().flatten().collect();
    let latencies: Vec<f64> = traced_replies.iter().map(|r| r.ms()).collect();
    let resubmits: Vec<f64> = traced_replies
        .iter()
        .filter(|r| r.resubmit)
        .map(|r| r.ms())
        .collect();
    let queue_wait: Vec<f64> = traced_replies
        .iter()
        .filter_map(|r| {
            let wait_ms = json::parse(&r.line).ok()?.get("wait_ms")?.as_u64()?;
            Some(wait_ms.saturating_sub(*service.get(&r.id)?) as f64)
        })
        .collect();
    let service_p50 = json::parse(&metrics)
        .ok()
        .and_then(|m| m.get("text").and_then(Json::as_str).map(str::to_owned))
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("merlin_server_metrics_service_p50_ms "))
                .and_then(|v| v.trim().parse::<f64>().ok())
        });

    let mut sheet = Sheet::per_layer();
    let counter = |name: &str| traces.iter().map(|t| t.counter(name)).sum::<u64>();
    sheet.counters(counter);
    for tier in ServingTier::LADDER {
        let count = refs.iter().filter(|r| r.record.tier == tier).count();
        sheet.set(tier_metric(tier), count as f64);
    }
    sheet.set("server.rtt_ms", rtt);
    sheet.set("server.resubmit_p50_ms", median(&resubmits));
    sheet.set("server.service_ms_p50", service_p50.unwrap_or(0.0));
    sheet.set("server.queue_wait_ms_p50", median(&queue_wait));
    sheet.set(
        "server.latency_p90_ms",
        percentile(&latencies, 0.9).unwrap_or(0.0),
    );
    sheet.set("server.latency_samples", latencies.len() as f64);
    sheet.set("trace.overhead_ratio", ratio(traced_ms, untraced_ms) - 1.0);
    eprintln!(
        "perfbench: daemon traced {traced_ms:.0} ms vs untraced {untraced_ms:.0} ms over {} requests; rtt {rtt:.1} ms",
        latencies.len()
    );
    out.sheet = sheet;
    fallback_probe(&mut out, nets, refs, tech);
    let sample: Vec<_> = nets
        .iter()
        .zip(refs)
        .take(12)
        .map(|(n, r)| (n.clone(), r.tree.clone()))
        .collect();
    let cfg = batch_config(None);
    attempt_probe(&mut out, &sample, tech, &cfg);
    let attempts_ms: f64 = traced_replies
        .iter()
        .filter(|r| !r.resubmit)
        .map(|r| refs[r.net].ms)
        .sum();
    out.sheet.set(
        "supervisor.pool_busy_ratio",
        ratio(attempts_ms, cfg.jobs as f64 * traced_ms),
    );
    probe_layers(&mut out, &sample, tech, scratch).map_err(|e| e.to_string())?;
    Ok(out)
}
