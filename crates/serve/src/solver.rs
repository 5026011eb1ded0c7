//! The background solve: a [`StepSolver`] driven round-by-round on its
//! own thread, with periodic atomic checkpoints and a JSONL trace.
//!
//! The daemon never blocks on the solve — it reads a published
//! [`SolveSnapshot`] under a mutex. Checkpoints are written
//! `tmp + rename`, so a `kill -9` at any instant leaves either the
//! previous or the new image intact, never a torn file; on restart the
//! solver resumes from it and (by the engine's schedule-invariant
//! draws) converges to the bit-identical result an uninterrupted run
//! produces.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use congest_sim::{FlightRecorder, JsonlTracer, SimConfig, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rwbc::distributed::DistributedRun;
use rwbc::distributed::{CountMode, DistributedConfig, SolvePhase, StepSolver};
use rwbc::monte_carlo::TargetStrategy;
use rwbc::RwbcError;
use rwbc_graph::generators::connected_gnp;
use rwbc_graph::Graph;

use crate::metrics::DaemonMetrics;

/// Deterministic graph recipe, mirroring the bench harness's ER builder
/// (same seed derivation and expected degree) so serve artifacts are
/// directly comparable to solver-side `BENCH_*` scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Node count.
    pub n: usize,
    /// Master seed (the graph generator derives from it).
    pub seed: u64,
}

impl GraphSpec {
    /// Builds the connected Erdős–Rényi graph for this spec.
    ///
    /// # Panics
    ///
    /// Panics if G(n,p) fails to connect within the attempt budget —
    /// impossible at the expected degree `max(6, 1.5·ln n)`.
    pub fn build(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9E37_79B9_7F4A_7C15);
        let deg = (1.5 * (self.n as f64).ln()).max(6.0);
        let p = deg / (self.n as f64 - 1.0);
        connected_gnp(self.n, p, 200, &mut rng).expect("connected G(n,p)")
    }
}

/// Everything the background solve needs.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Graph recipe.
    pub graph: GraphSpec,
    /// Walks per node (Algorithm 1's K).
    pub walks: usize,
    /// Walk truncation length (Algorithm 1's l).
    pub length: usize,
    /// Master seed for the solve (independent of the graph seed).
    pub seed: u64,
    /// Engine worker threads.
    pub threads: usize,
    /// Minimum nodes per engine worker chunk (the parallel fan-out's
    /// granularity knob); 0 keeps the engine default.
    pub granularity: usize,
    /// Checkpoint image path; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Rounds between periodic checkpoints.
    pub checkpoint_every_rounds: usize,
    /// JSONL trace path; `None` disables tracing.
    pub trace_path: Option<PathBuf>,
    /// Test hook: sleep this long after every round, so integration
    /// tests can reliably catch (and kill) the daemon mid-solve.
    pub slow_ms: u64,
    /// Sketch precision for the count phase; 0 keeps exact counting.
    /// Sketch mode trades bounded accuracy for a far shorter, lighter
    /// count phase — the solve (and its periodic checkpoints) shrink
    /// accordingly.
    pub sketch_precision: u8,
}

impl SolverConfig {
    /// A small default workload on an ER graph.
    pub fn new(n: usize, seed: u64) -> SolverConfig {
        SolverConfig {
            graph: GraphSpec { n, seed },
            walks: 4,
            length: 64,
            seed,
            threads: 1,
            granularity: 0,
            checkpoint_path: None,
            checkpoint_every_rounds: 64,
            trace_path: None,
            slow_ms: 0,
            sketch_precision: 0,
        }
    }

    /// The pipeline config this solver runs (fixed target 0, like the
    /// bench scenarios, so runs are reproducible from the spec alone).
    ///
    /// # Panics
    ///
    /// Panics when the parameters are invalid; hosts that take them from
    /// users call [`SolverConfig::try_distributed_config`] instead.
    pub fn distributed_config(&self) -> DistributedConfig {
        self.try_distributed_config()
            .expect("solver workload params")
    }

    /// [`SolverConfig::distributed_config`], or the typed reason the
    /// parameters are invalid (zero walks or length, a sketch precision
    /// out of range).
    ///
    /// # Errors
    ///
    /// [`RwbcError::InvalidParameter`] naming the bad parameter.
    pub fn try_distributed_config(&self) -> Result<DistributedConfig, RwbcError> {
        let mut builder = DistributedConfig::builder()
            .walks(self.walks)
            .length(self.length)
            .seed(self.seed)
            .target(TargetStrategy::Fixed(0));
        if self.sketch_precision > 0 {
            builder = builder.count_mode(CountMode::Sketch {
                precision: self.sketch_precision,
            });
        }
        let mut cfg = builder.build()?;
        cfg.sim = SimConfig::default().with_threads(self.threads);
        if self.granularity > 0 {
            cfg.sim = cfg.sim.with_granularity(self.granularity);
        }
        Ok(cfg)
    }
}

/// Published view of the in-flight (or finished) solve.
#[derive(Debug, Clone, Default)]
pub struct SolveSnapshot {
    /// Pipeline phase tag (0 walk, 1 count, 2 done, 3 failed).
    pub phase: u8,
    /// CONGEST rounds completed.
    pub rounds_completed: u64,
    /// Whether this solve resumed from a checkpoint image.
    pub resumed: bool,
    /// Periodic + final checkpoints written.
    pub checkpoints_written: u64,
    /// Total microseconds spent serializing + persisting checkpoints.
    pub checkpoint_overhead_us: u64,
    /// Wall-clock microseconds the solve loop has run.
    pub solve_elapsed_us: u64,
    /// When the newest checkpoint landed, milliseconds on the host's
    /// epoch clock (see [`SolverHooks::epoch`]); `None` until one does.
    pub last_checkpoint_at_ms: Option<u64>,
    /// The finished run, once the pipeline drained.
    pub result: Option<Arc<DistributedRun>>,
    /// Terminal failure, if the solve died.
    pub error: Option<String>,
}

/// Host-provided observability hooks for the solver thread. All are
/// optional; [`BackgroundSolver::spawn`] uses the defaults.
#[derive(Debug, Clone)]
pub struct SolverHooks {
    /// The clock origin checkpoint timestamps are measured against —
    /// the daemon passes the same `Instant` its deadlines and uptime
    /// use, so `last_checkpoint_at_ms` subtracts cleanly from it.
    pub epoch: Instant,
    /// Live-metrics handles: the engine bundle is attached to each
    /// phase's simulator, the `solver_*` instruments are fed directly.
    pub metrics: Option<DaemonMetrics>,
    /// Flight recorder fed `solver`-subsystem events (phase
    /// transitions, checkpoints, terminal outcome).
    pub flight: Option<FlightRecorder>,
}

impl Default for SolverHooks {
    fn default() -> SolverHooks {
        SolverHooks {
            epoch: Instant::now(),
            metrics: None,
            flight: None,
        }
    }
}

/// Handle to the solver thread.
pub struct BackgroundSolver {
    snapshot: Arc<Mutex<SolveSnapshot>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Converts a phase into its wire tag.
fn phase_tag(phase: SolvePhase) -> u8 {
    match phase {
        SolvePhase::Walk => 0,
        SolvePhase::Count => 1,
        SolvePhase::Done => 2,
        SolvePhase::Failed => 3,
    }
}

/// Writes a checkpoint image atomically (`path.tmp` + rename).
fn persist_checkpoint(path: &Path, image: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, image)?;
    fs::rename(&tmp, path)
}

impl BackgroundSolver {
    /// Builds the graph, restores from the checkpoint if a valid image
    /// exists, and starts stepping on a background thread.
    pub fn spawn(config: SolverConfig) -> BackgroundSolver {
        BackgroundSolver::spawn_with(config, SolverHooks::default())
    }

    /// [`BackgroundSolver::spawn`] with host observability hooks.
    pub fn spawn_with(config: SolverConfig, hooks: SolverHooks) -> BackgroundSolver {
        let snapshot = Arc::new(Mutex::new(SolveSnapshot::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::clone(&snapshot);
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || run_solver(&config, &shared, &stop_flag, &hooks));
        BackgroundSolver {
            snapshot,
            stop,
            handle: Some(handle),
        }
    }

    /// The current published view.
    pub fn snapshot(&self) -> SolveSnapshot {
        self.snapshot.lock().expect("solver snapshot lock").clone()
    }

    /// Signals the solve to stop at the next round boundary, flush a
    /// final checkpoint, close the trace, and joins the thread. Idempotent.
    pub fn drain(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Whether the solver thread has exited.
    pub fn is_finished(&self) -> bool {
        self.handle.as_ref().is_none_or(|h| h.is_finished())
    }
}

impl Drop for BackgroundSolver {
    fn drop(&mut self) {
        self.drain();
    }
}

fn publish<F: FnOnce(&mut SolveSnapshot)>(shared: &Mutex<SolveSnapshot>, update: F) {
    update(&mut shared.lock().expect("solver snapshot lock"));
}

fn run_solver(
    config: &SolverConfig,
    shared: &Mutex<SolveSnapshot>,
    stop: &AtomicBool,
    hooks: &SolverHooks,
) {
    let started = Instant::now();
    let flight_solver = |round: usize, key: &str, value: u64| {
        if let Some(fr) = &hooks.flight {
            fr.record(
                "solver",
                TraceEvent::App {
                    round,
                    node: 0,
                    key: key.to_string(),
                    value,
                },
            );
        }
    };
    let fail = |reason: String| {
        flight_solver(0, "solve_failed", 0);
        if let Some(m) = &hooks.metrics {
            m.serve
                .solver_phase
                .set(u64::from(phase_tag(SolvePhase::Failed)));
        }
        publish(shared, |s| {
            s.phase = phase_tag(SolvePhase::Failed);
            s.error = Some(reason);
        });
    };
    let dcfg = match config.try_distributed_config() {
        Ok(dcfg) => dcfg,
        Err(e) => return fail(e.to_string()),
    };
    let graph = config.graph.build();

    let mut tracer: Option<JsonlTracer<BufWriter<fs::File>>> =
        config
            .trace_path
            .as_ref()
            .and_then(|path| match fs::File::create(path) {
                Ok(file) => Some(JsonlTracer::new(BufWriter::new(file))),
                Err(_) => None,
            });

    // Resume from a persisted image when one restores cleanly; any
    // corruption (torn write from a crash mid-`fs::write` cannot happen —
    // rename is atomic — but a stale/mangled file can) falls back to a
    // fresh solve rather than refusing service.
    let mut resumed = false;
    let mut solver = match config
        .checkpoint_path
        .as_ref()
        .and_then(|p| fs::read(p).ok())
        .and_then(|image| StepSolver::restore(&graph, dcfg.clone(), &image).ok())
    {
        Some(solver) => {
            resumed = true;
            solver
        }
        None => match StepSolver::new(&graph, dcfg) {
            Ok(solver) => solver,
            Err(e) => return fail(e.to_string()),
        },
    };
    if let Some(m) = &hooks.metrics {
        solver.set_metrics(m.engine.clone());
        m.serve
            .solver_phase
            .set(u64::from(phase_tag(solver.phase())));
    }
    flight_solver(
        solver.rounds_completed(),
        if resumed { "resumed" } else { "started" },
        solver.rounds_completed() as u64,
    );

    if let Some(tr) = tracer.as_mut() {
        tr.record(&TraceEvent::PhaseStart {
            name: "serve-solve".to_string(),
        });
        if resumed {
            tr.record(&TraceEvent::App {
                round: solver.rounds_completed(),
                node: 0,
                key: "resumed-from-checkpoint".to_string(),
                value: solver.rounds_completed() as u64,
            });
        }
    }
    publish(shared, |s| {
        s.resumed = resumed;
        s.phase = phase_tag(solver.phase());
        s.rounds_completed = solver.rounds_completed() as u64;
    });

    let mut checkpoints_written = 0u64;
    let mut overhead_us = 0u64;
    let mut last_checkpoint_at_ms: Option<u64> = None;
    let write_checkpoint = |solver: &StepSolver<'_>,
                            tracer: &mut Option<JsonlTracer<BufWriter<fs::File>>>,
                            checkpoints_written: &mut u64,
                            overhead_us: &mut u64,
                            last_checkpoint_at_ms: &mut Option<u64>| {
        let Some(path) = config.checkpoint_path.as_ref() else {
            return;
        };
        let t0 = Instant::now();
        let Ok(image) = solver.checkpoint() else {
            return;
        };
        if persist_checkpoint(path, &image).is_ok() {
            let took_us = t0.elapsed().as_micros() as u64;
            *overhead_us += took_us;
            *checkpoints_written += 1;
            *last_checkpoint_at_ms = Some(hooks.epoch.elapsed().as_millis() as u64);
            if let Some(m) = &hooks.metrics {
                m.serve.checkpoints_total.inc();
                m.serve.checkpoint_duration_us.record(took_us);
                m.serve.checkpoint_bytes.record(image.len() as u64);
            }
            flight_solver(solver.rounds_completed(), "checkpoint", image.len() as u64);
            if let Some(tr) = tracer.as_mut() {
                tr.record(&TraceEvent::App {
                    round: solver.rounds_completed(),
                    node: 0,
                    key: "checkpoint".to_string(),
                    value: image.len() as u64,
                });
            }
        }
    };

    let mut last_phase = phase_tag(solver.phase());
    let outcome = loop {
        if stop.load(Ordering::SeqCst) {
            break Ok(false);
        }
        match solver.step() {
            Ok(done) => {
                let rounds = solver.rounds_completed();
                let phase = phase_tag(solver.phase());
                if phase != last_phase {
                    last_phase = phase;
                    flight_solver(rounds, "phase", u64::from(phase));
                    if let Some(m) = &hooks.metrics {
                        m.serve.solver_phase.set(u64::from(phase));
                    }
                }
                if config.slow_ms > 0 {
                    std::thread::sleep(Duration::from_millis(config.slow_ms));
                }
                if !done
                    && config.checkpoint_every_rounds > 0
                    && rounds % config.checkpoint_every_rounds == 0
                {
                    write_checkpoint(
                        &solver,
                        &mut tracer,
                        &mut checkpoints_written,
                        &mut overhead_us,
                        &mut last_checkpoint_at_ms,
                    );
                }
                publish(shared, |s| {
                    s.phase = phase;
                    s.rounds_completed = rounds as u64;
                    s.checkpoints_written = checkpoints_written;
                    s.checkpoint_overhead_us = overhead_us;
                    s.solve_elapsed_us = started.elapsed().as_micros() as u64;
                    s.last_checkpoint_at_ms = last_checkpoint_at_ms;
                });
                if done {
                    break Ok(true);
                }
            }
            Err(e) => break Err(e.to_string()),
        }
    };

    // Final checkpoint: on completion it carries the finished result (so
    // a restart serves immediately without re-solving), on drain it
    // carries the exact round boundary to resume from.
    if outcome.is_ok() {
        write_checkpoint(
            &solver,
            &mut tracer,
            &mut checkpoints_written,
            &mut overhead_us,
            &mut last_checkpoint_at_ms,
        );
    }

    if let Some(mut tr) = tracer.take() {
        tr.record(&TraceEvent::PhaseEnd {
            name: "serve-solve".to_string(),
            rounds: solver.rounds_completed(),
            elapsed_us: started.elapsed().as_micros() as u64,
        });
        if let Ok(out) = tr.finish() {
            use std::io::Write;
            let mut out = out;
            let _ = out.flush();
        }
    }

    let final_phase = phase_tag(solver.phase());
    if let Some(m) = &hooks.metrics {
        m.serve.solver_phase.set(u64::from(final_phase));
    }
    flight_solver(
        solver.rounds_completed(),
        match &outcome {
            Ok(true) => "done",
            Ok(false) => "drained",
            Err(_) => "solve_failed",
        },
        solver.rounds_completed() as u64,
    );
    publish(shared, |s| {
        s.phase = final_phase;
        s.rounds_completed = solver.rounds_completed() as u64;
        s.checkpoints_written = checkpoints_written;
        s.checkpoint_overhead_us = overhead_us;
        s.solve_elapsed_us = started.elapsed().as_micros() as u64;
        s.last_checkpoint_at_ms = last_checkpoint_at_ms;
        match outcome {
            Ok(true) => s.result = solver.result().map(|run| Arc::new(run.clone())),
            Ok(false) => {}
            Err(e) => s.error = Some(e),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwbc::distributed::approximate;

    #[test]
    fn background_solve_matches_the_driver() {
        let config = SolverConfig::new(32, 7);
        let expected = approximate(&config.graph.build(), &config.distributed_config()).unwrap();
        let solver = BackgroundSolver::spawn(config);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = solver.snapshot();
            if let Some(run) = snap.result {
                assert_eq!(*run, expected);
                assert!(!snap.resumed);
                break;
            }
            assert!(snap.error.is_none(), "solve failed: {:?}", snap.error);
            assert!(Instant::now() < deadline, "solve did not finish in time");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Finishes a checkpointing solve at `threads` engine threads and
    /// returns its metrics snapshot.
    fn checkpointed_solve_metrics(threads: usize) -> congest_sim::metrics::MetricsSnapshot {
        let dir = std::env::temp_dir().join(format!(
            "rwbc-serve-bytes-{}-t{threads}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let mut config = SolverConfig::new(48, 3);
        config.threads = threads;
        // Small chunks, so all four workers really run at n = 48.
        config.granularity = 4;
        config.checkpoint_path = Some(dir.join("solve.ckpt"));
        config.checkpoint_every_rounds = 8;
        let metrics = DaemonMetrics::new();
        let hooks = SolverHooks {
            metrics: Some(metrics.clone()),
            ..SolverHooks::default()
        };
        let solver = BackgroundSolver::spawn_with(config, hooks);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !solver.is_finished() {
            assert!(Instant::now() < deadline, "solve did not finish in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(solver.snapshot().result.is_some());
        let _ = fs::remove_dir_all(&dir);
        metrics.registry.snapshot()
    }

    #[test]
    fn checkpoint_bytes_histogram_is_thread_invariant() {
        let one = checkpointed_solve_metrics(1);
        let four = checkpointed_solve_metrics(4);
        let bytes = one
            .histogram("solver_checkpoint_bytes")
            .expect("registered");
        assert!(bytes.samples() > 1, "periodic and final images recorded");
        assert_eq!(
            Some(bytes.samples()),
            one.counter("solver_checkpoints_total")
        );
        assert_eq!(Some(bytes), four.histogram("solver_checkpoint_bytes"));
        congest_sim::metrics::lint_prometheus(&one.to_prometheus()).expect("lint clean");
    }

    #[test]
    fn drain_persists_a_resumable_checkpoint() {
        let dir = std::env::temp_dir().join(format!("rwbc-serve-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("drain.ckpt");
        let mut config = SolverConfig::new(48, 11);
        config.checkpoint_path = Some(ckpt.clone());
        config.checkpoint_every_rounds = 4;
        config.slow_ms = 2;
        let expected = approximate(&config.graph.build(), &config.distributed_config()).unwrap();

        let mut solver = BackgroundSolver::spawn(config.clone());
        // Let it make some progress, then drain mid-solve.
        std::thread::sleep(Duration::from_millis(60));
        solver.drain();
        let snap = solver.snapshot();
        assert!(snap.error.is_none());
        assert!(ckpt.exists(), "drain must flush a final checkpoint");

        // A fresh solver resumes from the image and lands on the
        // bit-identical result.
        config.slow_ms = 0;
        let resumed = BackgroundSolver::spawn(config);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = resumed.snapshot();
            if let Some(run) = snap.result {
                assert_eq!(*run, expected);
                break;
            }
            assert!(snap.error.is_none(), "resume failed: {:?}", snap.error);
            assert!(Instant::now() < deadline, "resume did not finish in time");
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
