//! One benchmark run: the workload's inputs from its seed, then the
//! solve, stepped-solve and serve layers in turn, each checked against
//! the first `approximate` result.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use rwbc::distributed::{approximate, DistributedConfig, DistributedRun, SolvePhase, StepSolver};
use rwbc_graph::Graph;
use rwbc_serve::{Client, ClientError, Daemon, HealthReport, Response, ServeConfig, ServeStats};

use crate::catalog::SPAN_NAMES;
use crate::gate::{same, Fingerprint, Gate};
use crate::host::{current_rss_mb, peak_rss_mb, release_free_memory};
use crate::spans::Spans;
use crate::workload::{Resume, Workload};
use crate::{median, percentile};

/// Graph builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Fresh daemon starts in an untraced run; `ready_s` is their median.
/// A batch of timed `approximate` solves precedes each.
const DAEMON_STARTS: usize = 3;
/// Restores of the resume image per traced run.
const RESTORE_REPS: usize = 3;
/// Deadline on every query, milliseconds.
const QUERY_DEADLINE_MS: u32 = 1000;
/// The query mix of `rwbc-bench`'s serve replay (`mix_request` in
/// `crates/bench/src/serve_load.rs`): request `i` is `Stats` when
/// `i % STATS_EVERY == STATS_EVERY - 1`, else `TopK{TOPK_K}` when
/// `i % TOPK_EVERY == TOPK_EVERY - 1`, else `Centrality` on node
/// `splitmix64(seed ^ i) % n`.
const STATS_EVERY: u64 = 32;
const TOPK_EVERY: u64 = 8;
const TOPK_K: usize = 8;
/// Slices of closed-loop queries per run, dealt over the daemon starts.
const QUERY_SLICES: usize = 6;
/// Queries per slice; each query metric is the best slice's. A query
/// wakes five threads across the two CPUs, and on a virtual machine
/// whose host is busy (15% CPU steal measured during query phases on a
/// 2-vCPU Xeon VM) those wake-ups stall for milliseconds; stalls only
/// add latency, so the best slice is the daemon's own figure and the
/// others measure the host. Every query opens a TCP connection (the
/// `Client` design), which leaves a socket in TIME_WAIT for 60 s; the
/// count per run is kept far below the ~28k local ports so that
/// back-to-back runs do not stall in `connect`. 1000 leaves ten samples
/// above a slice's p99; the smoke runs of the benchmark's own tests use
/// fewer.
#[cfg(not(test))]
const SLICE_QUERIES: usize = 1000;
#[cfg(test)]
const SLICE_QUERIES: usize = 64;
/// The daemon's queue depth is scraped this often during queries.
const SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// Health is polled every 1/`READY_POLL_DIVISOR` of the time waited so
/// far, between these bounds: fine enough to time a 10 ms restart, sparse
/// enough that polling (a connection and a daemon thread each) takes
/// little CPU from a multi-second solve.
const READY_POLL_MIN: Duration = Duration::from_millis(1);
const READY_POLL_MAX: Duration = Duration::from_millis(25);
const READY_POLL_DIVISOR: u32 = 200;
/// A daemon that is not ready by then counts as failed.
const READY_TIMEOUT: Duration = Duration::from_secs(150);

/// Every metric value the run measured, by catalog name.
pub type Values = BTreeMap<String, f64>;

pub struct Outcome {
    pub gate: Gate,
    pub values: Values,
    /// Per-sample data kept in the run record, not printed.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

/// What every later stage is checked against.
struct Reference {
    fp: Fingerprint,
    values: Vec<f64>,
    /// The `TopK{TOPK_K}` ranking as (node, value bits).
    top_k: Vec<(usize, u64)>,
    walk_rounds: usize,
    count_rounds: usize,
}

/// Runs `workload` once. With `spans` enabled this is the traced run: it
/// times every round, checkpoint and request, and solves once.
///
/// # Errors
///
/// A stage whose failure leaves nothing to measure after it (the first
/// solve, the stepped solve, a daemon that never gets ready).
pub fn execute(
    workload: &Workload,
    seed: u64,
    pin: Option<Fingerprint>,
    seconds: f64,
    spans: &mut Spans,
    work: &Path,
) -> Result<Outcome, String> {
    let traced = spans.enabled();
    let mut gate = Gate::default();
    let mut values = Values::new();
    let mut samples = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    spans.enter("run");

    // Set-up: the workload's graph.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut graph = None;
    for _ in 0..SETUP_REPS {
        spans.enter("graph.build");
        let t0 = Instant::now();
        graph = Some(workload.graph());
        setup.push(t0.elapsed().as_secs_f64());
        spans.exit();
    }
    let graph = graph.expect("SETUP_REPS > 0");
    let config = workload.config(seed);
    put("setup_s", median(&setup));
    put("graph.build_s", median(&setup));
    samples.insert("setup_s", setup);

    // Timed `approximate` solves, in one batch before each fresh daemon
    // start: host slowdowns on a shared VM come and go over tens of
    // seconds, and samples spread over the run reach fewer of them than
    // a block at its start. The first solve sets the reference.
    let starts = if traced { 1 } else { DAEMON_STARTS };
    let batch = if traced {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(seconds * workload.solve_share / starts as f64)
    };
    let started = Instant::now();
    let (run, took) = timed_solve(&graph, &config, spans)?;
    let mut solve_times = vec![took];
    let fp = Fingerprint::of(&run);
    gate.op("approximate", pin.as_ref().map_or(Ok(()), |p| same(p, &fp)));
    let centrality = run.centrality.as_slice().to_vec();
    let top_k = run
        .centrality
        .top_k(TOPK_K)
        .into_iter()
        .map(|v| (v, centrality[v].to_bits()))
        .collect();
    let reference = Reference {
        fp,
        values: centrality,
        top_k,
        walk_rounds: run.walk_stats.rounds,
        count_rounds: run.count_stats.rounds,
    };
    drop(run);
    let rest = batch.saturating_sub(started.elapsed());
    repeat_solves(
        &graph,
        &config,
        &reference,
        rest,
        &mut solve_times,
        spans,
        &mut gate,
    )?;
    put(
        "peak_rss_mb",
        peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
    );
    put("rounds", reference.fp.rounds as f64);
    put("bits", reference.fp.bits as f64);

    // The same solve through `StepSolver`, one round per call: in the
    // traced run for the per-layer numbers, and wherever the restarts
    // need its mid-count image.
    let mid_count = workload.resume == Resume::MidCount;
    let mut image = None;
    if traced || mid_count {
        let mid_round = reference.walk_rounds + reference.count_rounds / 2;
        let mid_round = mid_count.then_some(mid_round);
        let cadence = if traced { workload.checkpoint_every } else { 0 };
        // Start the traced solve from a heap as clean as the timed
        // solves' first one, for its RSS readings and for the overhead
        // comparison with the untraced solve above.
        release_free_memory();
        let stepped = stepped_solve(&graph, &config, mid_round, cadence, spans, &mut put)?;
        gate.op(
            "stepped solve",
            same(&reference.fp, &Fingerprint::of(&stepped.run)),
        );
        if traced {
            let suppressed = match workload.sketch_precision {
                0 => 0.0,
                p => {
                    let possible = workload.n as f64 * f64::from(1u32 << p);
                    stepped.run.sketch_suppressed as f64 / possible
                }
            };
            put("sketch_count.suppressed_ratio", suppressed);
        }
        image = stepped.mid_image;
    }

    // Fresh daemons: solve to ready, answer a share of the queries,
    // drain. Each starts without an image, so none resumes. After each,
    // restarted daemons resume from the image, so that `recover_s` also
    // samples the whole run.
    let fresh_path = work.join("fresh.ckpt");
    let resume_path = work.join("resume.ckpt");
    let mut serve_config = ServeConfig::new(workload.solver_config(seed));
    let mut resume_config = serve_config.clone();
    serve_config.solver.checkpoint_path = Some(fresh_path.clone());
    resume_config.solver.checkpoint_path = Some(resume_path.clone());
    let mut queries = Queries::new(seed);
    let mut ready = Vec::with_capacity(starts);
    let mut recovers = Vec::with_capacity(starts * workload.restarts);
    for start in 0..starts {
        if start > 0 {
            repeat_solves(
                &graph,
                &config,
                &reference,
                batch,
                &mut solve_times,
                spans,
                &mut gate,
            )?;
        }
        let _ = fs::remove_file(&fresh_path);
        spans.enter("serve.ready");
        let (daemon, client, health, ready_s) = start_until_ready(serve_config.clone())?;
        spans.exit();
        ready.push(ready_s);
        gate.op(
            "daemon",
            check_daemon(
                &client,
                &health,
                false,
                &reference,
                &graph,
                &config,
                &fresh_path,
            ),
        );
        // Slices dealt round-robin over the starts.
        queries.served = 1; // the `TopK{n}` in `check_daemon`
        for _ in 0..(QUERY_SLICES + starts - 1 - start) / starts {
            queries.run_slice(&client, &reference, spans, &mut gate);
        }
        match client.metrics() {
            Ok(Response::Metrics(report)) => {
                let counter = |name| report.snapshot.counter(name).unwrap_or(0);
                queries.shed += counter("serve_requests_shed_total");
                queries.timed_out += counter("serve_requests_timed_out_total");
            }
            other => gate.op("metrics scrape", Err(format!("{other:?}"))),
        }
        if start == 0 {
            match client.stats() {
                Ok(Response::Stats(stats)) => put(
                    "serve.checkpoint_overhead_s",
                    stats.checkpoint_overhead_us as f64 * 1e-6,
                ),
                other => return Err(format!("stats: {other:?}")),
            }
        }
        daemon.drain();
        daemon.wait();
        if image.is_none() {
            image = Some(fs::read(&fresh_path).map_err(|e| format!("finished image: {e}"))?);
        }

        for _ in 0..workload.restarts {
            let bytes = image.as_deref().expect("set above");
            fs::write(&resume_path, bytes).map_err(|e| format!("write image: {e}"))?;
            spans.enter("serve.recover");
            let (daemon, client, health, recover_s) = start_until_ready(resume_config.clone())?;
            spans.exit();
            recovers.push(recover_s);
            gate.op(
                "restarted daemon",
                check_daemon(
                    &client,
                    &health,
                    true,
                    &reference,
                    &graph,
                    &config,
                    &resume_path,
                ),
            );
            daemon.drain();
            daemon.wait();
        }
    }
    let image = image.expect("set by the first start");
    let solve_s = median(&solve_times);
    put("solve_s", solve_s);
    samples.insert("solve_s", solve_times);
    put("ready_s", median(&ready));
    samples.insert("ready_s", ready);
    put("recover_s", median(&recovers));
    samples.insert("recover_s", recovers);
    let column = |f: fn(&Slice) -> f64| -> Vec<f64> { queries.slices.iter().map(f).collect() };
    let best = |xs: Vec<f64>, pick: fn(f64, f64) -> f64| xs.into_iter().reduce(pick).unwrap_or(0.0);
    put("query_p50_us", best(column(|s| s.p50_us), f64::min));
    put("query_p99_us", best(column(|s| s.p99_us), f64::min));
    put("queries_per_s", best(column(|s| s.per_s), f64::max));
    put("serve.shed", queries.shed as f64);
    put("serve.timed_out", queries.timed_out as f64);
    put("serve.not_ready", queries.not_ready as f64);
    put("serve.queue_depth_max", queries.queue_depth_max as f64);
    samples.insert("query_slice_p99_us", column(|s| s.p99_us));
    samples.insert("query_centrality_us", queries.centrality_us);
    samples.insert("query_topk_us", queries.topk_us);
    samples.insert("query_stats_us", queries.stats_us);

    if traced {
        let mut restores = Vec::with_capacity(RESTORE_REPS);
        for _ in 0..RESTORE_REPS {
            spans.enter("checkpoint.restore");
            let t0 = Instant::now();
            let restored = StepSolver::restore(&graph, config.clone(), &image);
            restores.push(t0.elapsed().as_secs_f64());
            spans.exit();
            gate.op("restore", restored.map(drop).map_err(|e| e.to_string()));
        }
        put("checkpoint.restore_s", median(&restores));
    }

    spans.exit();
    if traced {
        let own = spans.self_times();
        for name in SPAN_NAMES {
            put(
                &format!("self_s.{name}"),
                own.get(name).copied().unwrap_or(0.0),
            );
        }
        // The traced stepped solve against the untraced `approximate`,
        // leaving out the checkpoint encodes the stepped solve adds.
        let stepped_s: f64 = spans.durations("stepwise.solve").iter().sum::<f64>()
            - spans.durations("checkpoint.encode").iter().sum::<f64>();
        put("trace.overhead_frac", stepped_s / solve_s - 1.0);
    }
    Ok(Outcome {
        gate,
        values,
        samples,
    })
}

/// One timed `approximate` solve.
fn timed_solve(
    graph: &Graph,
    config: &DistributedConfig,
    spans: &mut Spans,
) -> Result<(DistributedRun, f64), String> {
    spans.enter("approximate");
    let t0 = Instant::now();
    let run = approximate(graph, config);
    let took = t0.elapsed().as_secs_f64();
    spans.exit();
    Ok((run.map_err(|e| format!("approximate: {e}"))?, took))
}

/// Timed solves until `window` has passed, each checked against the
/// reference.
fn repeat_solves(
    graph: &Graph,
    config: &DistributedConfig,
    reference: &Reference,
    window: Duration,
    times: &mut Vec<f64>,
    spans: &mut Spans,
    gate: &mut Gate,
) -> Result<(), String> {
    let started = Instant::now();
    while started.elapsed() < window {
        let (run, took) = timed_solve(graph, config, spans)?;
        times.push(took);
        gate.op(
            "approximate repeat",
            same(&reference.fp, &Fingerprint::of(&run)),
        );
    }
    Ok(())
}

struct Stepped {
    run: DistributedRun,
    mid_image: Option<Vec<u8>>,
}

/// Steps a fresh `StepSolver` to completion, timing `new`, each round
/// (grouped by the phase it ran in), the hand-off and the harvest.
/// Encodes the image at `mid_round`; a traced run also encodes one every
/// `cadence` rounds (when non-zero) and the finished one, as the daemon
/// does.
fn stepped_solve(
    graph: &Graph,
    config: &DistributedConfig,
    mid_round: Option<usize>,
    cadence: usize,
    spans: &mut Spans,
    put: &mut impl FnMut(&str, f64),
) -> Result<Stepped, String> {
    let traced = spans.enabled();
    spans.enter("stepwise.solve");
    spans.enter("stepwise.new");
    let t0 = Instant::now();
    let solver = StepSolver::new(graph, config.clone());
    let new_s = t0.elapsed().as_secs_f64();
    spans.exit();
    let mut solver = solver.map_err(|e| format!("StepSolver::new: {e}"))?;
    put("stepwise.new_s", new_s);
    if traced {
        put("rss.after_new_mb", current_rss_mb().unwrap_or(0.0));
    }

    let mut mid_image = None;
    let mut images: Vec<(usize, f64)> = Vec::new();
    loop {
        let before = solver.phase();
        let t0 = Instant::now();
        let done = solver.step().map_err(|e| format!("step: {e}"))?;
        let after = solver.phase();
        let (name, rss_name) = match (before, after) {
            (SolvePhase::Walk, SolvePhase::Walk) => ("walk_phase.round", "rss.after_walk_mb"),
            (SolvePhase::Walk, _) => ("handoff", "rss.after_handoff_mb"),
            (SolvePhase::Count, SolvePhase::Count) => ("count_phase.round", "rss.after_count_mb"),
            _ => ("harvest", ""),
        };
        spans.record(name, t0);
        if traced && !rss_name.is_empty() {
            put(rss_name, current_rss_mb().unwrap_or(0.0));
        }
        let round = solver.rounds_completed();
        let is_mid = !done && after == SolvePhase::Count && Some(round) == mid_round;
        let periodic = !done && cadence > 0 && round % cadence == 0;
        if is_mid || (traced && (periodic || done)) {
            spans.enter("checkpoint.encode");
            let t0 = Instant::now();
            let image = solver
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
            images.push((image.len(), t0.elapsed().as_secs_f64()));
            spans.exit();
            if is_mid {
                mid_image = Some(image);
            }
        }
        if done {
            break;
        }
    }
    spans.exit();
    let run = solver.into_result().ok_or("stepped solve did not finish")?;
    if let Some(round) = mid_round {
        if mid_image.is_none() {
            return Err(format!("the stepped solve never reached round {round}"));
        }
    }

    if traced {
        phase_metrics(put, spans, "walk_phase", &run.walk_stats);
        phase_metrics(put, spans, "count_phase", &run.count_stats);
        // Each includes its phase's last round (see `phase_metrics`).
        put("handoff.s", spans.durations("handoff").iter().sum());
        put("harvest.s", spans.durations("harvest").iter().sum());
        let encode_s: f64 = images.iter().map(|i| i.1).sum();
        let total_mb = images.iter().map(|i| i.0 as f64).sum::<f64>() / 1e6;
        let max_mb = images.iter().map(|i| i.0).max().unwrap_or(0) as f64 / 1e6;
        put("checkpoint.count", images.len() as f64);
        put("checkpoint.encode_s", encode_s);
        put("checkpoint.image_mb", max_mb);
        put("checkpoint.mb_per_s", total_mb / encode_s);
    }
    Ok(Stepped { run, mid_image })
}

/// The `{phase}.*` metrics of one phase. `step` runs a phase's last round
/// in the same call that leaves the phase, so that round is timed in the
/// `handoff` (walk) or `harvest` (count) span, not here: `busy_s` and the
/// round percentiles cover every round but the last, while `rounds`,
/// `messages` and `bits` count them all. `ns_per_message` scales
/// `busy_s` up to all rounds before dividing.
fn phase_metrics(
    put: &mut impl FnMut(&str, f64),
    spans: &Spans,
    phase: &str,
    stats: &congest_sim::RunStats,
) {
    let rounds = spans.durations(&format!("{phase}.round"));
    let busy: f64 = rounds.iter().sum();
    let ms: Vec<f64> = rounds.iter().map(|s| s * 1e3).collect();
    let all_rounds = busy * stats.rounds as f64 / rounds.len().max(1) as f64;
    put(&format!("{phase}.rounds"), stats.rounds as f64);
    put(&format!("{phase}.busy_s"), busy);
    put(&format!("{phase}.round_p50_ms"), percentile(&ms, 0.50));
    put(&format!("{phase}.round_p99_ms"), percentile(&ms, 0.99));
    put(&format!("{phase}.messages"), stats.total_messages as f64);
    put(&format!("{phase}.bits"), stats.total_bits as f64);
    put(
        &format!("{phase}.ns_per_message"),
        all_rounds * 1e9 / stats.total_messages.max(1) as f64,
    );
}

/// Starts a daemon and polls `Health` until it reports ready. Returns
/// the seconds from `Daemon::start` to that first ready answer.
fn start_until_ready(config: ServeConfig) -> Result<(Daemon, Client, HealthReport, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(config).map_err(|e| format!("daemon start: {e}"))?;
    let client = Client::new(daemon.local_addr().to_string()).with_max_attempts(1);
    loop {
        if let Ok(Response::Health(h)) = client.health() {
            if h.ready {
                return Ok((daemon, client, h, t0.elapsed().as_secs_f64()));
            }
        }
        if t0.elapsed() > READY_TIMEOUT {
            daemon.drain();
            daemon.wait();
            return Err(format!("daemon not ready after {READY_TIMEOUT:?}"));
        }
        let poll = (t0.elapsed() / READY_POLL_DIVISOR).clamp(READY_POLL_MIN, READY_POLL_MAX);
        std::thread::sleep(poll);
    }
}

/// A ready daemon must serve every reference value bit for bit, and its
/// final checkpoint must restore to the reference fingerprint.
fn check_daemon(
    client: &Client,
    health: &HealthReport,
    resumed: bool,
    reference: &Reference,
    graph: &Graph,
    config: &DistributedConfig,
    image: &Path,
) -> Result<(), String> {
    if health.slo.resumed != resumed || health.slo.degraded {
        return Err(format!("health flags {:?}", health.slo));
    }
    if health.rounds_completed != reference.fp.rounds {
        return Err(format!("{} rounds", health.rounds_completed));
    }
    let n = reference.values.len();
    let mut served = vec![f64::NAN; n];
    match client.top_k(n, 0) {
        Ok(Response::Ranking { top, .. }) if top.len() == n => {
            for (v, value) in top {
                served[v] = value;
            }
        }
        other => return Err(format!("TopK{{n}}: {other:?}")),
    }
    if crate::gate::digest(&served) != reference.fp.digest {
        return Err("served values differ from the in-process solve".to_string());
    }
    let bytes = fs::read(image).map_err(|e| format!("final image: {e}"))?;
    let solver = StepSolver::restore(graph, config.clone(), &bytes).map_err(|e| e.to_string())?;
    let run = solver
        .result()
        .ok_or("final image is not a finished solve")?;
    same(&reference.fp, &Fingerprint::of(run))
}

/// Latency and throughput of one query slice.
struct Slice {
    p50_us: f64,
    p99_us: f64,
    per_s: f64,
}

/// The closed query loop's state across slices and daemons.
struct Queries {
    seed: u64,
    /// Index of the next request in the mix, across slices and daemons.
    next: u64,
    /// `Value` and `Ranking` replies from the current daemon, which its
    /// `Stats` must count as `requests_served`.
    served: u64,
    slices: Vec<Slice>,
    centrality_us: Vec<f64>,
    topk_us: Vec<f64>,
    stats_us: Vec<f64>,
    shed: u64,
    timed_out: u64,
    not_ready: u64,
    queue_depth_max: u64,
}

impl Queries {
    fn new(seed: u64) -> Queries {
        Queries {
            seed,
            next: 0,
            served: 0,
            slices: Vec::new(),
            centrality_us: Vec::new(),
            topk_us: Vec::new(),
            stats_us: Vec::new(),
            shed: 0,
            timed_out: 0,
            not_ready: 0,
            queue_depth_max: 0,
        }
    }

    /// One slice of a closed loop with one client: each query is sent
    /// when the previous reply arrived, and every answer is checked
    /// against the reference.
    fn run_slice(
        &mut self,
        client: &Client,
        reference: &Reference,
        spans: &mut Spans,
        gate: &mut Gate,
    ) {
        let n = reference.values.len();
        let mut latencies = Vec::with_capacity(SLICE_QUERIES);
        let started = Instant::now();
        let mut next_scrape = started;
        while latencies.len() < SLICE_QUERIES {
            if Instant::now() >= next_scrape {
                if let Ok(Response::Metrics(report)) = client.metrics() {
                    let depth = report.snapshot.gauge("serve_queue_depth").unwrap_or(0);
                    self.queue_depth_max = self.queue_depth_max.max(depth);
                }
                next_scrape += SCRAPE_EVERY;
            }
            let i = self.next;
            self.next += 1;
            let kind = if i % STATS_EVERY == STATS_EVERY - 1 {
                Kind::Stats
            } else if i % TOPK_EVERY == TOPK_EVERY - 1 {
                Kind::TopK
            } else {
                Kind::Centrality((splitmix64(self.seed ^ i) % n as u64) as usize)
            };
            spans.enter("serve.request");
            let t0 = Instant::now();
            let reply = match kind {
                Kind::Stats => client.stats(),
                Kind::TopK => client.top_k(TOPK_K, QUERY_DEADLINE_MS),
                Kind::Centrality(node) => client.centrality(node, QUERY_DEADLINE_MS),
            };
            let us = t0.elapsed().as_secs_f64() * 1e6;
            spans.exit();
            latencies.push(us);
            if let Ok(Response::Value { .. } | Response::Ranking { .. }) = reply {
                self.served += 1;
            }
            let verdict = match (kind, reply) {
                (
                    Kind::Centrality(node),
                    Ok(Response::Value {
                        node: got, value, ..
                    }),
                ) if got == node && value.to_bits() == reference.values[node].to_bits() => Ok(()),
                (Kind::TopK, Ok(Response::Ranking { top, .. }))
                    if top
                        .iter()
                        .map(|&(v, x)| (v, x.to_bits()))
                        .eq(reference.top_k.iter().copied()) =>
                {
                    Ok(())
                }
                (Kind::Stats, Ok(Response::Stats(stats))) => {
                    check_stats(&stats, reference.fp.rounds, self.served)
                }
                (_, Err(ClientError::GaveUp { last, .. })) if last.starts_with("NotReady") => {
                    self.not_ready += 1;
                    Err(last)
                }
                (_, other) => Err(format!("{other:?}")),
            };
            let (what, samples) = match kind {
                Kind::Stats => ("Stats", &mut self.stats_us),
                Kind::TopK => ("TopK", &mut self.topk_us),
                Kind::Centrality(_) => ("Centrality", &mut self.centrality_us),
            };
            samples.push(us);
            gate.op(what, verdict);
        }
        self.slices.push(Slice {
            p50_us: percentile(&latencies, 0.50),
            p99_us: percentile(&latencies, 0.99),
            per_s: latencies.len() as f64 / started.elapsed().as_secs_f64(),
        });
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Centrality(usize),
    TopK,
    Stats,
}

/// A ready daemon's counters: the finished solve's rounds, every
/// `Value` and `Ranking` it sent counted as served, nothing shed or
/// timed out, and at least the final checkpoint written.
fn check_stats(stats: &ServeStats, rounds: u64, served: u64) -> Result<(), String> {
    let expected = stats.solve_rounds == rounds
        && stats.requests_served == served
        && stats.requests_overloaded == 0
        && stats.requests_timed_out == 0
        && stats.checkpoints_written > 0;
    if expected {
        Ok(())
    } else {
        Err(format!(
            "{stats:?}, expected {rounds} rounds and {served} served"
        ))
    }
}

/// SplitMix64, as the replay mix draws its nodes.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
