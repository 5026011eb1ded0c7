//! The benchmark's workloads. Every workload runs the same sequence
//! (batches of timed `approximate` solves, each followed by a daemon that
//! solves and serves queries and by daemons that restart from a
//! checkpoint image); they differ in which layer carries the weight.

use rwbc::distributed::DistributedConfig;
use rwbc_graph::Graph;
use rwbc_serve::{GraphSpec, SolverConfig};

/// Engine threads, in the solves and in the daemons. On a 2-vCPU host
/// two engine threads run in lockstep, and a few percent of CPU steal
/// made exact n = 2048 solves 40-60% slower, so every workload runs on
/// one.
pub const ENGINE_THREADS: usize = 1;

/// Seed of every workload's graph; `--seed` varies the walks and the
/// query mix. `GraphSpec::build` redraws a disconnected G(n, p), and some
/// seeds need a second draw (24 and 39 among 1..=50 at n = 4096), which
/// doubles `setup_s` and the sketch workload's `recover_s` (mostly the
/// restarted daemon's graph build) for those seeds alone.
const GRAPH_SEED: u64 = 42;

/// The image the restarted daemons resume from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Written by a stepped solve halfway through the count phase.
    MidCount,
    /// The finished image the first daemon leaves behind. A mid-solve
    /// image of the sketch workload holds O(n^2) walk state (109 MB at
    /// n = 4096, taking 7 s to encode and 10 s to resume), too slow to
    /// repeat in every run.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Node count of the Erdős–Rényi graph (expected degree
    /// `max(6, 1.5 ln n)`, the recipe `rwbc-serve` and `rwbc-bench` share).
    pub n: usize,
    /// Sketch precision of the count phase; 0 is exact counting.
    pub sketch_precision: u8,
    /// Daemon checkpoint cadence in rounds; 0 writes only the final image.
    pub checkpoint_every: usize,
    /// Share of `--seconds` spent on timed `approximate` solves.
    pub solve_share: f64,
    pub resume: Resume,
    /// Daemon restarts after each fresh start; `recover_s` is their
    /// median.
    pub restarts: usize,
}

/// Why each workload exists: the layer it loads and the one it does not.
pub const WORKLOADS: [Workload; 2] = [
    // Walk rounds, the walk -> count hand-off and the dense walk state
    // dominate; the count phase is 256 short sketch rounds. The
    // single-threaded baseline.
    Workload {
        name: "sketch-er-n4096",
        n: 4096,
        sketch_precision: 8,
        checkpoint_every: 0,
        solve_share: 0.6,
        resume: Resume::Finished,
        restarts: 5,
    },
    // A 0.1 s solve wrapped in checkpoint encodes every 16 rounds (the
    // cadence `rwbc-replay` uses), then the query protocol: the only
    // workload where checkpoint encode/restore and serving dominate.
    Workload {
        name: "serve-er-n256",
        n: 256,
        sketch_precision: 0,
        checkpoint_every: 16,
        solve_share: 0.3,
        resume: Resume::MidCount,
        restarts: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload at a size that runs in well under a second,
    /// for the benchmark's own tests.
    #[cfg(test)]
    pub fn smoke(self) -> Workload {
        Workload {
            n: 96,
            sketch_precision: self.sketch_precision.min(4),
            checkpoint_every: self.checkpoint_every.min(8),
            ..self
        }
    }

    /// The daemon's recipe: the workload's graph, solved with walk seed
    /// `seed`.
    pub fn solver_config(&self, seed: u64) -> SolverConfig {
        let mut config = SolverConfig::new(self.n, seed);
        config.graph = self.graph_spec();
        config.threads = ENGINE_THREADS;
        config.sketch_precision = self.sketch_precision;
        config.checkpoint_every_rounds = self.checkpoint_every;
        config
    }

    fn graph_spec(&self) -> GraphSpec {
        GraphSpec {
            n: self.n,
            seed: GRAPH_SEED,
        }
    }

    pub fn graph(&self) -> Graph {
        self.graph_spec().build()
    }

    pub fn config(&self, seed: u64) -> DistributedConfig {
        self.solver_config(seed).distributed_config()
    }
}
