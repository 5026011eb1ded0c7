//! The pipeline driver: one phase sequence, advanced one CONGEST round at
//! a time.
//!
//! [`StepSolver`] is the only driver of the distributed computation;
//! [`approximate`](super::approximate) runs it to completion in one call.
//! The sequence is fixed:
//!
//! 1. with `elect_target`, the target election, run to completion inside
//!    [`StepSolver::new`] (otherwise the target is drawn there);
//! 2. walk sub-phases `0..=walk_retries` (Algorithm 1), each relaunching
//!    the tokens faults ate in the one before;
//! 3. the count pass (Algorithm 2), repeated under `partition_tolerant`
//!    while a pass discovers new dead links.
//!
//! Each phase's programs run raw or behind the
//! [`Reliable`](congest_sim::Reliable) adapter (with checksums, failure
//! detector and pre-seeded dead peers as the config asks); partition
//! tolerance adds survivor bookkeeping between the phases — the giant
//! component, a target redraw when the target is lost, and count
//! re-passes.
//!
//! Every config [`approximate`](super::approximate) accepts runs here.
//! [`StepSolver::checkpoint`] / [`StepSolver::restore`] work at any round
//! boundary of the *checkpointable subset*: raw transport (no `reliable`,
//! no `checksums`), no `elect_target`, no `walk_retries`, no
//! `partition_tolerant` — the image holds one raw engine and none of the
//! driver's recovery state. Outside it they return a typed error. The
//! engine's schedule-invariant draws make a checkpoint → kill → restore →
//! finish execution reproduce the uninterrupted run bit for bit at any
//! thread count.

use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use congest_sim::wire::{crc32, BitReader, BitWriter, WireState};
use congest_sim::{
    EngineMetrics, Message, NodeProgram, Reliable, RunStats, SimConfig, SimError, Simulator,
    Tracer, DEFAULT_DEATH_THRESHOLD, FRAME_CHECKSUM_BITS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rwbc_graph::traversal::{connected_components, is_connected};
use rwbc_graph::{Graph, NodeId};

use crate::distributed::messages::{count_field_bits, len_field_bits};
use crate::distributed::sketch::sketch_field_bits;
use crate::distributed::{
    ordered_pair, span_end, span_start, ComponentCoverage, CountMode, CountProgram,
    DegradationReport, DistributedConfig, DistributedRun, ElectTargetProgram, SketchCountProgram,
    SourceTally, WalkProgram,
};
use crate::monte_carlo::TargetStrategy;
use crate::{Centrality, RwbcError};

/// Magic word opening a [`StepSolver::checkpoint`] image (distinct from
/// the engine's, so the two image kinds can never be confused).
pub const STEP_CHECKPOINT_MAGIC: u64 = 0x5E12_C4EC;
/// Current step-checkpoint format version. Version 2 added the sketch
/// count phase (tag 3) and the `count_mode` / `sketch_suppressed` fields
/// in done images; version-1 images still restore (they predate sketch
/// mode, so those fields default to exact / zero).
pub const STEP_CHECKPOINT_VERSION: u64 = 2;
/// Oldest step-checkpoint format version [`StepSolver::restore`] accepts.
pub const STEP_CHECKPOINT_MIN_VERSION: u64 = 1;

/// Simulator seed of the target election.
fn election_seed(seed: u64) -> u64 {
    seed ^ 0xE1EC
}

/// Simulator (and walk-draw) seed of walk sub-phase `attempt`: distinct
/// per recovery attempt, so replacement walks never retrace the
/// originals and fault draws stay independent.
fn walk_seed(seed: u64, attempt: usize) -> u64 {
    (seed ^ 0x9E37_79B9).wrapping_add(attempt as u64 * 0x5851_F42D)
}

/// Simulator seed of every count pass.
fn count_seed(seed: u64) -> u64 {
    seed ^ 0x7F4A_7C15
}

/// Which pipeline stage a [`StepSolver`] is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePhase {
    /// Phase 1 (Algorithm 1): walk tokens in flight.
    Walk,
    /// Phase 2 (Algorithm 2): count exchange in flight.
    Count,
    /// Finished; [`StepSolver::result`] is available.
    Done,
    /// A previous `step` failed mid-transition; the solver is unusable.
    Failed,
}

/// One phase's simulator, its programs behind the delivery layer the
/// config asks for.
enum Transport<'g, P: NodeProgram> {
    Raw(Simulator<'g, P>),
    Reliable(Simulator<'g, Reliable<P>>),
}

/// Evaluates `$body` with `$sim` bound to the simulator of either
/// [`Transport`] variant.
macro_rules! with_sim {
    ($net:expr, $sim:ident => $body:expr) => {
        match $net {
            Transport::Raw($sim) => $body,
            Transport::Reliable($sim) => $body,
        }
    };
}

impl<'g, P> Transport<'g, P>
where
    P: NodeProgram + Send + WireState,
    P::Msg: Message + WireState,
{
    /// Builds the phase: `program(v, dead)` makes node `v`'s program,
    /// where `dead` lists its neighbors across known-dead links. Partition
    /// tolerance takes precedence over `reliable`: failure detection on,
    /// no checksums, dead peers pre-seeded.
    fn new(
        graph: &'g Graph,
        sim: SimConfig,
        config: &DistributedConfig,
        dead_links: &BTreeSet<(NodeId, NodeId)>,
        mut program: impl FnMut(NodeId, &[NodeId]) -> P,
    ) -> Self {
        if !config.reliable && !config.partition_tolerant {
            return Transport::Raw(Simulator::new(graph, sim, |v| program(v, &[])));
        }
        let checksums = config.checksums && !config.partition_tolerant;
        Transport::Reliable(Simulator::new(graph, sim, |v| {
            let dead: Vec<NodeId> = graph
                .neighbors(v)
                .filter(|&u| dead_links.contains(&ordered_pair(v, u)))
                .collect();
            let mut r = Reliable::new(program(v, &dead)).with_dead_peers(dead);
            if checksums {
                r = r.with_checksums();
            }
            if checksums || config.partition_tolerant {
                // Persistently corrupting or dead links are declared
                // instead of retried forever.
                r = r.with_failure_detection(DEFAULT_DEATH_THRESHOLD);
            }
            r
        }))
    }

    /// Restores a raw phase from its engine image.
    fn restore(graph: &'g Graph, sim: SimConfig, image: &[u8]) -> Result<Self, RwbcError> {
        Ok(Transport::Raw(Simulator::restore(graph, sim, image)?))
    }

    /// The engine image of a raw phase.
    fn checkpoint(&self) -> Result<Vec<u8>, RwbcError> {
        match self {
            Transport::Raw(sim) => Ok(sim.checkpoint()),
            Transport::Reliable(_) => Err(not_checkpointable()),
        }
    }

    fn attach(
        mut self,
        tracer: Option<&'g mut dyn Tracer>,
        metrics: Option<&EngineMetrics>,
    ) -> Self {
        if let Some(tr) = tracer {
            with_sim!(&mut self, sim => sim.set_tracer(tr));
        }
        if let Some(m) = metrics {
            self.set_metrics(m.clone());
        }
        self
    }

    fn set_metrics(&mut self, metrics: EngineMetrics) {
        with_sim!(self, sim => sim.set_metrics(metrics));
    }

    fn take_tracer(&mut self) -> Option<&'g mut dyn Tracer> {
        with_sim!(self, sim => sim.take_tracer())
    }

    fn step(&mut self) -> Result<bool, RwbcError> {
        Ok(with_sim!(self, sim => sim.step())?)
    }

    fn stats(&self) -> &RunStats {
        with_sim!(self, sim => sim.stats())
    }

    fn program(&self, v: NodeId) -> &P {
        match self {
            Transport::Raw(sim) => sim.program(v),
            Transport::Reliable(sim) => sim.program(v).inner(),
        }
    }

    /// Peers node `v` declared (or was told) dead.
    fn dead_peers(&self, v: NodeId) -> Vec<NodeId> {
        match self {
            Transport::Raw(_) => Vec::new(),
            Transport::Reliable(sim) => sim.program(v).dead_peers(),
        }
    }

    fn into_programs(self) -> Vec<P> {
        match self {
            Transport::Raw(sim) => sim.into_programs(),
            Transport::Reliable(sim) => sim
                .into_programs()
                .into_iter()
                .map(Reliable::into_inner)
                .collect(),
        }
    }
}

// One instance per solver, never moved after construction: boxing the
// simulator variants would buy nothing but an extra indirection on the
// per-round hot path.
#[allow(clippy::large_enum_variant)]
enum PhaseState<'g> {
    Walk(Transport<'g, WalkProgram>),
    Count(Transport<'g, CountProgram>),
    SketchCount(Transport<'g, SketchCountProgram>),
    Done(Box<DistributedRun>),
    /// A phase transition errored after its simulator was consumed.
    Poisoned,
}

/// A resumable execution of the distributed pipeline, checkpointable in
/// the subset the module docs describe.
///
/// ```
/// use rwbc::distributed::{approximate, DistributedConfig, StepSolver};
/// use rwbc_graph::generators::star;
///
/// # fn main() -> Result<(), rwbc::RwbcError> {
/// let g = star(5)?;
/// let cfg = DistributedConfig::builder().walks(100).length(40).seed(1).build()?;
/// let mut solver = StepSolver::new(&g, cfg.clone())?;
/// while !solver.step()? {}
/// // `approximate` is this loop.
/// assert_eq!(*solver.result().unwrap(), approximate(&g, &cfg)?);
/// # Ok(())
/// # }
/// ```
pub struct StepSolver<'g> {
    graph: &'g Graph,
    config: DistributedConfig,
    target: NodeId,
    fixed_point_bits: u8,
    value_bits: u8,
    state: PhaseState<'g>,
    /// Live-metrics handles carried across phase transitions so every
    /// phase's simulator feeds one cumulative set of counters.
    metrics: Option<EngineMetrics>,
    /// The tracer while no phase's simulator holds it.
    tracer: Option<&'g mut dyn Tracer>,
    /// Name and wall-clock start of the open phase span.
    span: (String, Instant),
    /// Draws the random target, then any partition-tolerant redraws.
    seeder: StdRng,
    election_stats: Option<RunStats>,
    /// Finished walk sub-phases and count passes, merged.
    walk_stats: Option<RunStats>,
    count_stats: Option<RunStats>,
    /// Walk sub-phases and count passes begun so far.
    attempt: usize,
    pass: usize,
    /// Visit counts per node (row `v` holds the runs of `ξ_v^s`), summed
    /// over walk sub-phases; handed to the count phase.
    counts: Vec<SourceTally>,
    /// Walks per source not yet completed.
    outstanding: Vec<u64>,
    /// Membership in the survivor graph's giant component (all `true`
    /// unless `partition_tolerant` found a partition).
    in_giant: Vec<bool>,
    /// Links declared dead, as ordered pairs (`partition_tolerant` only).
    dead_links: BTreeSet<(NodeId, NodeId)>,
    sketch_suppressed: u64,
    degradation: DegradationReport,
}

fn corrupt(reason: &str) -> RwbcError {
    RwbcError::Sim(SimError::CorruptCheckpoint {
        reason: reason.to_string(),
    })
}

fn not_checkpointable() -> RwbcError {
    RwbcError::InvalidParameter {
        reason: "only the clean single-sub-phase pipeline is checkpointable \
                 (reliable / checksums / partition_tolerant / elect_target / \
                 walk_retries keep state outside the engine image)"
            .to_string(),
    }
}

/// Rejects configs outside the checkpointable subset.
fn check_checkpointable(c: &DistributedConfig) -> Result<(), RwbcError> {
    let wrapped = c.reliable || c.checksums || c.partition_tolerant;
    if wrapped || c.elect_target || c.walk_retries != 0 {
        return Err(not_checkpointable());
    }
    Ok(())
}

/// Decodes one field of a checkpoint section.
fn field<T: WireState>(r: &mut BitReader<'_>, what: &str) -> Result<T, RwbcError> {
    T::decode_state(r).ok_or_else(|| corrupt(&format!("truncated {what}")))
}

/// Appends one length-framed, CRC-guarded section (same framing as the
/// engine's checkpoint sections: `u64 byte length + u32 CRC-32 + payload`).
fn write_section(w: &mut BitWriter, body: &[u8]) {
    w.write_bits(body.len() as u64, 64);
    w.write_bits(u64::from(crc32(body)), 32);
    w.write_bytes(body);
}

/// Reads back one section written by [`write_section`], verifying the
/// checksum before the payload is decoded.
fn read_section<'a>(r: &mut BitReader<'a>, what: &str) -> Result<&'a [u8], RwbcError> {
    let len = r
        .read_bits(64)
        .ok_or_else(|| corrupt(&format!("truncated {what} section header")))?;
    let len =
        usize::try_from(len).map_err(|_| corrupt(&format!("oversized {what} section length")))?;
    let sum = r
        .read_bits(32)
        .ok_or_else(|| corrupt(&format!("truncated {what} section header")))? as u32;
    // Every section starts on a byte boundary (the 128-bit magic/version
    // prefix, then whole-byte frames), so the payload is borrowed.
    let bytes = r
        .read_aligned(len)
        .ok_or_else(|| corrupt(&format!("truncated {what} section")))?;
    if crc32(bytes) != sum {
        return Err(corrupt(&format!("{what} section failed its checksum")));
    }
    Ok(bytes)
}

/// Fits the count phase's fixed-point fraction under the per-edge budget,
/// less the delivery-layer header (and the frame seal, when checksummed).
/// In sketch mode the frame also carries the bucket index and the value
/// field widens to the worst-case bucket aggregate. Returns the fraction
/// and value field widths.
fn fit_fixed_point(config: &DistributedConfig, n: usize) -> Result<(u8, u8), RwbcError> {
    let k = config.params.walks_per_node;
    let l = config.params.walk_length;
    let framed = usize::from(config.reliable || config.partition_tolerant);
    let sealed = usize::from(config.reliable && config.checksums && !config.partition_tolerant);
    let header = framed * Reliable::<CountProgram>::HEADER_BITS + sealed * FRAME_CHECKSUM_BITS;
    let budget = config.sim.budget_bits(n).saturating_sub(header);
    let value_bits = |f: u8| match config.count_mode {
        CountMode::Exact => count_field_bits(k, l, f),
        CountMode::Sketch { .. } => sketch_field_bits(k, l, n, f),
    };
    let frame_bits = |f: u8| match config.count_mode {
        CountMode::Exact => value_bits(f) as usize,
        CountMode::Sketch { precision } => precision as usize + value_bits(f) as usize,
    };
    let mut f = config.fixed_point_bits;
    while f > 1 && frame_bits(f) > budget {
        f -= 1;
    }
    if frame_bits(f) > budget {
        return Err(RwbcError::InvalidParameter {
            reason: format!(
                "phase-2 counts cannot fit the {budget}-bit budget even with 1 fractional bit; \
                 raise the bandwidth coefficient"
            ),
        });
    }
    Ok((f, value_bits(f)))
}

/// Connected components of the survivor graph: the input graph minus
/// every detected-dead link (fully dead nodes become isolated).
fn survivor_components(
    graph: &Graph,
    dead_links: &BTreeSet<(NodeId, NodeId)>,
) -> Result<(Vec<usize>, usize), RwbcError> {
    let survivors = graph
        .edges()
        .filter(|e| !dead_links.contains(&ordered_pair(e.u, e.v)))
        .map(|e| (e.u, e.v));
    Ok(connected_components(&Graph::from_edges(
        graph.node_count(),
        survivors,
    )?))
}

/// Folds one finished sub-phase's stats into a phase total.
fn merge(total: &mut Option<RunStats>, stats: RunStats) {
    match total {
        None => *total = Some(stats),
        Some(t) => t.absorb(&stats),
    }
}

impl<'g> StepSolver<'g> {
    /// Starts a solve: validates the config, fits the fixed-point width,
    /// runs the target election (or draws the target), and builds the
    /// first walk sub-phase at its round 0.
    ///
    /// # Errors
    ///
    /// [`RwbcError::TooSmall`] / [`RwbcError::Disconnected`] on invalid
    /// graphs; [`RwbcError::InvalidParameter`] when the config is
    /// invalid, the fixed target is out of range, or the phase-2 counts
    /// cannot fit the budget; [`RwbcError::Sim`] when the election fails.
    pub fn new(graph: &'g Graph, config: DistributedConfig) -> Result<StepSolver<'g>, RwbcError> {
        StepSolver::start(graph, config, None)
    }

    /// [`StepSolver::new`] with a tracer that follows the run from phase
    /// to phase, bracketed by the driver's phase spans.
    pub(crate) fn start(
        graph: &'g Graph,
        config: DistributedConfig,
        tracer: Option<&'g mut dyn Tracer>,
    ) -> Result<StepSolver<'g>, RwbcError> {
        let mut solver = StepSolver::plan(graph, config, tracer)?;
        solver.state = solver.begin_walk();
        Ok(solver)
    }

    /// Everything before the first walk round: validation, the fit, and
    /// the target.
    fn plan(
        graph: &'g Graph,
        config: DistributedConfig,
        tracer: Option<&'g mut dyn Tracer>,
    ) -> Result<StepSolver<'g>, RwbcError> {
        let n = graph.node_count();
        if n < 2 {
            return Err(RwbcError::TooSmall { n });
        }
        if !is_connected(graph) {
            return Err(RwbcError::Disconnected);
        }
        config.validate()?;
        let (fixed_point_bits, value_bits) = fit_fixed_point(&config, n)?;
        let seeder = StdRng::seed_from_u64(config.seed);
        let mut solver = StepSolver {
            graph,
            config,
            target: 0,
            fixed_point_bits,
            value_bits,
            state: PhaseState::Poisoned,
            metrics: None,
            tracer,
            span: (String::new(), Instant::now()),
            seeder,
            election_stats: None,
            walk_stats: None,
            count_stats: None,
            attempt: 0,
            pass: 0,
            counts: vec![SourceTally::new(); n],
            outstanding: Vec::new(),
            in_giant: vec![true; n],
            dead_links: BTreeSet::new(),
            sketch_suppressed: 0,
            degradation: DegradationReport::default(),
        };
        solver.target = match solver.config.target {
            _ if solver.config.elect_target => solver.elect()?,
            TargetStrategy::Random => solver.seeder.gen_range(0..n),
            TargetStrategy::Fixed(t) if t < n => t,
            TargetStrategy::Fixed(t) => {
                return Err(RwbcError::InvalidParameter {
                    reason: format!("fixed target {t} out of range"),
                })
            }
        };
        let k = solver.config.params.walks_per_node as u64;
        solver.outstanding = (0..n)
            .map(|s| if s == solver.target { 0 } else { k })
            .collect();
        Ok(solver)
    }

    /// Phase 0: the fully distributed election (the leader draws the
    /// target), run to completion.
    fn elect(&mut self) -> Result<NodeId, RwbcError> {
        let n = self.graph.node_count();
        self.open_span("election", 0);
        let cfg = self.phase_sim(election_seed(self.config.seed), false);
        let mut sim = Simulator::new(self.graph, cfg, |v| ElectTargetProgram::new(v, n));
        if let Some(tr) = self.tracer.take() {
            sim.set_tracer(tr);
        }
        let stats = sim.run();
        self.tracer = sim.take_tracer();
        let stats = stats?;
        self.close_span(stats.rounds);
        self.election_stats = Some(stats);
        sim.program(0)
            .target()
            .ok_or_else(|| RwbcError::InvalidParameter {
                reason: "the election finished without a target".to_string(),
            })
    }

    /// Opens the span of the phase about to be built: `phase` for its
    /// first run, `phase-retry-N` / `phase-pass-N` for the N-th repeat.
    fn open_span(&mut self, phase: &str, repeat: usize) {
        let name = match (phase, repeat) {
            (_, 0) => phase.to_string(),
            ("walk", i) => format!("walk-retry-{i}"),
            (_, i) => format!("{phase}-pass-{i}"),
        };
        let t0 = span_start(self.tracer.as_deref_mut(), &name);
        self.span = (name, t0);
    }

    /// The simulator config of one phase: the run's, reseeded. A recovery
    /// phase of a partition-tolerant run keeps only standing faults (the
    /// scheduled transients already fired).
    fn phase_sim(&self, seed: u64, recovery: bool) -> SimConfig {
        let mut sim = self.config.sim.clone().with_seed(seed);
        if recovery && self.config.partition_tolerant {
            sim.faults = sim.faults.collapse_permanent();
        }
        sim
    }

    /// Closes the open span once its phase has drained.
    fn close_span(&mut self, rounds: usize) {
        span_end(
            self.tracer.as_deref_mut(),
            &self.span.0,
            rounds,
            self.span.1,
        );
    }

    /// Builds the next walk sub-phase. Sub-phase 0 launches `K` walks per
    /// source; each later one relaunches, from hop 0, the walks the
    /// sources are still owed (in the giant component). The lost
    /// originals' partial visit prefixes stay tallied — a small overcount
    /// bias traded for the large undercount of losing whole walks.
    fn begin_walk(&mut self) -> PhaseState<'g> {
        let attempt = self.attempt;
        self.attempt += 1;
        self.open_span("walk", attempt);
        let seed = walk_seed(self.config.seed, attempt);
        let sim = self.phase_sim(seed, attempt > 0);
        if attempt > 0 {
            self.degradation.walks_relaunched += self.owed().sum::<u64>();
        }
        let n = self.graph.node_count();
        let (target, k, l) = (
            self.target,
            self.config.params.walks_per_node,
            self.config.params.walk_length,
        );
        let (len_bits, discipline) = (len_field_bits(l), self.config.discipline);
        let (outstanding, in_giant) = (&self.outstanding, &self.in_giant);
        let net = Transport::new(
            self.graph,
            sim,
            &self.config,
            &self.dead_links,
            |v, dead| {
                let program = if attempt == 0 {
                    WalkProgram::new(v, n, target, k, l, len_bits, discipline)
                } else {
                    let owed = if in_giant[v] { outstanding[v] } else { 0 };
                    WalkProgram::resume(
                        v,
                        n,
                        target,
                        vec![l as u32; owed as usize],
                        len_bits,
                        discipline,
                    )
                };
                program
                    .with_draw_seed(seed)
                    .with_dead_neighbors(dead.to_vec())
            },
        );
        PhaseState::Walk(net.attach(self.tracer.take(), self.metrics.as_ref()))
    }

    /// Walks still owed by giant-component sources.
    fn owed(&self) -> impl Iterator<Item = u64> + '_ {
        self.outstanding
            .iter()
            .zip(&self.in_giant)
            .map(|(&o, &inside)| if inside { o } else { 0 })
    }

    /// Harvests a drained walk sub-phase node by node, then moves on to
    /// the next sub-phase or the count phase. Every completed walk died
    /// exactly once (absorbed or truncated), so a source's death tally
    /// short of `K` is the number of its walks faults ate.
    fn end_walk(
        &mut self,
        mut net: Transport<'g, WalkProgram>,
    ) -> Result<PhaseState<'g>, RwbcError> {
        self.tracer = net.take_tracer();
        let stats = net.stats().clone();
        let pt = self.config.partition_tolerant;
        if pt {
            self.note_dead_links(&net);
        }
        for (row, program) in self.counts.iter_mut().zip(net.into_programs()) {
            let (counts, deaths) = program.into_tallies();
            for &(s, d) in deaths.runs() {
                self.outstanding[s] = self.outstanding[s].saturating_sub(d);
            }
            row.merge_add(counts);
        }
        self.close_span(stats.rounds);
        self.degradation.walk_subphases += 1;
        merge(&mut self.walk_stats, stats);
        if pt {
            self.refresh_giant()?;
            if !self.in_giant[self.target] {
                self.redraw_target();
            }
        }
        // The reliable transport loses nothing, so it never retries.
        let last = match (pt, self.config.reliable) {
            (true, _) => self.config.walk_retries.max(1),
            (false, true) => 0,
            (false, false) => self.config.walk_retries,
        };
        if self.attempt <= last && self.owed().any(|o| o > 0) {
            return Ok(self.begin_walk());
        }
        self.degradation.walks_lost = self.outstanding.iter().sum();
        self.begin_count()
    }

    /// Records the dead links a partition-tolerant phase declared.
    fn note_dead_links<P>(&mut self, net: &Transport<'g, P>)
    where
        P: NodeProgram + Send + WireState,
        P::Msg: Message + WireState,
    {
        for v in 0..self.graph.node_count() {
            for peer in net.dead_peers(v) {
                self.dead_links.insert(ordered_pair(v, peer));
            }
        }
    }

    /// Restricts the computation to the survivor graph's largest
    /// component under the current dead links; returns its size.
    fn refresh_giant(&mut self) -> Result<usize, RwbcError> {
        let (comp, ncomps) = survivor_components(self.graph, &self.dead_links)?;
        let mut sizes = vec![0usize; ncomps];
        for &c in &comp {
            sizes[c] += 1;
        }
        let giant = (0..ncomps)
            .max_by_key(|&c| (sizes[c], Reverse(c)))
            .expect("a non-empty graph has at least one component");
        for (inside, &c) in self.in_giant.iter_mut().zip(&comp) {
            *inside = c == giant;
        }
        Ok(sizes[giant])
    }

    /// The absorbing target crashed or was cut off: every visit tallied
    /// so far was toward a sink the survivors cannot reach. Re-draw it
    /// among the survivors and restart the tally.
    fn redraw_target(&mut self) {
        let n = self.graph.node_count();
        let k = self.config.params.walks_per_node as u64;
        let members: Vec<NodeId> = (0..n).filter(|&v| self.in_giant[v]).collect();
        let old_target = self.target;
        self.target = members[self.seeder.gen_range(0..members.len())];
        self.degradation.target_redraws += 1;
        for row in &mut self.counts {
            row.clear();
        }
        for s in 0..n {
            // Giant sources restart from scratch and the new target stops
            // being a source; cut-off sources keep their stranded counts,
            // since those walks are lost and must be reported as such.
            if self.in_giant[s] {
                self.outstanding[s] = if s == self.target { 0 } else { k };
            }
        }
        // The dethroned target is a source under the new sink but never
        // launched a walk toward it.
        if !self.in_giant[old_target] {
            self.outstanding[old_target] = k;
        }
    }

    /// Builds the next count pass. A partition-tolerant pass runs on the
    /// survivors: dead channels pre-seeded, detection armed for channels
    /// no earlier phase exercised, normalization by the giant
    /// component's size; nodes outside it report 0.
    fn begin_count(&mut self) -> Result<PhaseState<'g>, RwbcError> {
        self.open_span("count", self.pass);
        self.pass += 1;
        let n = self.graph.node_count();
        let pt = self.config.partition_tolerant;
        let giant = if pt { self.refresh_giant()? } else { n };
        let sim = self.phase_sim(count_seed(self.config.seed), true);
        // Behind the reliable transport counts arrive late but in order,
        // so they are attributed by position rather than by round.
        let strict = self.config.reliable || pt;
        let graph = self.graph;
        let k = self.config.params.walks_per_node;
        let (vb, f) = (self.value_bits, self.fixed_point_bits);
        // A partition-tolerant run may need another pass over the same
        // counts; otherwise each row is freed as soon as its program is
        // built, so the rows and the count programs never peak together.
        let mut rows = std::mem::take(&mut self.counts);
        let mut row = |v: NodeId| {
            if pt {
                rows[v].clone()
            } else {
                std::mem::take(&mut rows[v])
            }
        };
        let (config, dead_links, in_giant) = (&self.config, &self.dead_links, &self.in_giant);
        let state = match self.config.count_mode {
            CountMode::Exact => PhaseState::Count(
                Transport::new(graph, sim, config, dead_links, |v, dead| {
                    CountProgram::new(v, n, graph.degree(v), &row(v), k, vb, f)
                        .with_strict_delivery(strict)
                        .with_effective_n(if in_giant[v] { giant } else { 2 })
                        .with_dead_neighbors(dead.to_vec())
                })
                .attach(self.tracer.take(), self.metrics.as_ref()),
            ),
            CountMode::Sketch { precision } => {
                let weights = SketchCountProgram::combine_weights(n, precision);
                PhaseState::SketchCount(
                    Transport::new(graph, sim, config, dead_links, |v, _| {
                        let mut program = SketchCountProgram::new(
                            v,
                            n,
                            graph.degree(v),
                            &row(v),
                            k,
                            precision,
                            vb,
                            f,
                        )
                        .with_strict_delivery(strict);
                        program.set_combine_weights(Arc::clone(&weights));
                        program
                    })
                    .attach(self.tracer.take(), self.metrics.as_ref()),
                )
            }
        };
        if pt {
            self.counts = rows;
        }
        Ok(state)
    }

    /// Harvests a drained count pass. A partition-tolerant pass that
    /// discovered new dead links ran on a stale giant component (walk
    /// traffic may never have crossed those links), so it re-runs with
    /// the updated knowledge.
    ///
    /// `outcome` reads a program's `(betweenness, missing cells,
    /// suppressed broadcasts)`.
    fn end_count<P>(
        &mut self,
        mut net: Transport<'g, P>,
        outcome: impl Fn(&P) -> (Option<f64>, u64, u64),
    ) -> Result<PhaseState<'g>, RwbcError>
    where
        P: NodeProgram + Send + WireState,
        P::Msg: Message + WireState,
    {
        self.tracer = net.take_tracer();
        let n = self.graph.node_count();
        let pt = self.config.partition_tolerant;
        let outcomes: Vec<_> = (0..n).map(|v| outcome(net.program(v))).collect();
        // The reliable transport repairs every loss; what it abandons is
        // reported as quarantined links instead.
        if pt || !self.config.reliable {
            self.degradation.count_cells_missing = outcomes.iter().map(|o| o.1).sum();
        }
        self.sketch_suppressed = outcomes.iter().map(|o| o.2).sum();
        let known = self.dead_links.len();
        if pt {
            self.note_dead_links(&net);
        }
        let mut values = Vec::with_capacity(n);
        for (v, &(betweenness, ..)) in outcomes.iter().enumerate() {
            values.push(match betweenness {
                _ if !self.in_giant[v] => 0.0,
                Some(b) => b,
                None if pt => 0.0,
                None => {
                    return Err(RwbcError::InvalidParameter {
                        reason: format!("node {v} finished phase 2 without a betweenness value"),
                    })
                }
            });
        }
        let stats = net.stats().clone();
        self.close_span(stats.rounds);
        merge(&mut self.count_stats, stats);
        if pt && self.dead_links.len() > known && self.pass <= self.config.walk_retries.max(1) {
            return self.begin_count();
        }
        self.finish(values)
    }

    /// Assembles the final [`DistributedRun`].
    fn finish(&mut self, values: Vec<f64>) -> Result<PhaseState<'g>, RwbcError> {
        let walk_stats = self.walk_stats.take().expect("the walk phase ran");
        let count_stats = self.count_stats.take().expect("the count phase ran");
        let mut degradation = std::mem::take(&mut self.degradation);
        if self.config.partition_tolerant {
            self.report_survivors(&mut degradation)?;
        } else {
            degradation.corrupt_frames_detected =
                walk_stats.corrupt_frames_detected + count_stats.corrupt_frames_detected;
            degradation.links_quarantined =
                walk_stats.dead_links_declared + count_stats.dead_links_declared;
        }
        Ok(PhaseState::Done(Box::new(DistributedRun {
            centrality: Centrality::from_values(values),
            target: self.target,
            election_stats: self.election_stats.take(),
            walk_stats,
            count_stats,
            fixed_point_bits: self.fixed_point_bits,
            count_mode: self.config.count_mode,
            sketch_suppressed: self.sketch_suppressed,
            degradation,
        })))
    }

    /// The detected-failure report of a partition-tolerant run, including
    /// channels only the count phase exercised.
    fn report_survivors(&self, degradation: &mut DegradationReport) -> Result<(), RwbcError> {
        let n = self.graph.node_count();
        let k = self.config.params.walks_per_node as u64;
        let dead = &self.dead_links;
        degradation.dead_links_detected = dead.iter().copied().collect();
        degradation.dead_nodes_detected = (0..n)
            .filter(|&v| {
                self.graph.degree(v) > 0
                    && self
                        .graph
                        .neighbors(v)
                        .all(|u| dead.contains(&ordered_pair(v, u)))
            })
            .collect();
        let (comp, ncomps) = survivor_components(self.graph, dead)?;
        degradation.components = (0..ncomps)
            .map(|c| {
                let members: Vec<NodeId> = (0..n).filter(|&v| comp[v] == c).collect();
                let sources = members.iter().filter(|&&s| s != self.target);
                ComponentCoverage {
                    nodes: members.len(),
                    contains_target: members.binary_search(&self.target).is_ok(),
                    walks_expected: sources.clone().count() as u64 * k,
                    walks_completed: sources
                        .map(|&s| k.saturating_sub(self.outstanding[s]))
                        .sum(),
                }
            })
            .collect();
        Ok(())
    }

    /// Attaches live-metrics handles to the solver. The active phase's
    /// simulator starts feeding them immediately, and the handles are
    /// re-attached at every phase transition, so the engine counters
    /// accumulate over the whole pipeline: attached at round 0,
    /// `engine_rounds_total` equals [`StepSolver::rounds_completed`] at
    /// any quiescent point (attached later — e.g. after
    /// [`StepSolver::restore`] — they count the rounds run since).
    /// Metrics never perturb the simulation; attaching them is safe at
    /// any round boundary.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        match &mut self.state {
            PhaseState::Walk(net) => net.set_metrics(metrics.clone()),
            PhaseState::Count(net) => net.set_metrics(metrics.clone()),
            PhaseState::SketchCount(net) => net.set_metrics(metrics.clone()),
            PhaseState::Done(_) | PhaseState::Poisoned => {}
        }
        self.metrics = Some(metrics);
    }

    /// Advances the pipeline by one CONGEST round (building the next
    /// phase when one drains). Returns `true` once the run is complete;
    /// further calls are no-ops.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`RwbcError::Sim`]); a transition
    /// failure poisons the solver and every later call reports it.
    pub fn step(&mut self) -> Result<bool, RwbcError> {
        let drained = match &mut self.state {
            PhaseState::Walk(net) => net.step()?,
            PhaseState::Count(net) => net.step()?,
            PhaseState::SketchCount(net) => net.step()?,
            PhaseState::Done(_) => return Ok(true),
            PhaseState::Poisoned => {
                return Err(RwbcError::InvalidParameter {
                    reason: "StepSolver was poisoned by an earlier transition failure".to_string(),
                })
            }
        };
        if !drained {
            return Ok(false);
        }
        // The active phase drained: transition. Its simulator is consumed
        // here, so a failure leaves the solver poisoned rather than
        // silently rewound.
        self.state = match std::mem::replace(&mut self.state, PhaseState::Poisoned) {
            PhaseState::Walk(net) => self.end_walk(net)?,
            PhaseState::Count(net) => self.end_count(net, |p| (p.betweenness(), p.missing(), 0))?,
            PhaseState::SketchCount(net) => {
                self.end_count(net, |p| (p.betweenness(), 0, p.suppressed()))?
            }
            done_or_poisoned => done_or_poisoned,
        };
        Ok(self.is_done())
    }

    /// Runs remaining rounds to completion and returns the result.
    ///
    /// # Errors
    ///
    /// Same as [`StepSolver::step`].
    pub fn run_to_completion(&mut self) -> Result<&DistributedRun, RwbcError> {
        while !self.step()? {}
        Ok(self.result().expect("step returned true, result present"))
    }

    /// The stage the pipeline is currently in.
    pub fn phase(&self) -> SolvePhase {
        match &self.state {
            PhaseState::Walk(_) => SolvePhase::Walk,
            PhaseState::Count(_) | PhaseState::SketchCount(_) => SolvePhase::Count,
            PhaseState::Done(_) => SolvePhase::Done,
            PhaseState::Poisoned => SolvePhase::Failed,
        }
    }

    /// Total CONGEST rounds completed so far, across phases.
    pub fn rounds_completed(&self) -> usize {
        let active = match &self.state {
            PhaseState::Walk(net) => net.stats().rounds,
            PhaseState::Count(net) => net.stats().rounds,
            PhaseState::SketchCount(net) => net.stats().rounds,
            PhaseState::Done(run) => return run.total_rounds(),
            PhaseState::Poisoned => return 0,
        };
        [&self.election_stats, &self.walk_stats, &self.count_stats]
            .into_iter()
            .flatten()
            .map(|s| s.rounds)
            .sum::<usize>()
            + active
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        matches!(self.state, PhaseState::Done(_))
    }

    /// The finished run, once [`StepSolver::is_done`].
    pub fn result(&self) -> Option<&DistributedRun> {
        match &self.state {
            PhaseState::Done(run) => Some(run),
            _ => None,
        }
    }

    /// Consumes the solver, yielding the finished run if there is one.
    pub fn into_result(self) -> Option<DistributedRun> {
        match self.state {
            PhaseState::Done(run) => Some(*run),
            _ => None,
        }
    }

    /// `(total rounds, total messages, total bits)` of the finished run —
    /// the fingerprint the crash-recovery tests compare bit-for-bit.
    pub fn fingerprint(&self) -> Option<(usize, u64, u64)> {
        self.result().map(|run| {
            (
                run.total_rounds(),
                run.walk_stats.total_messages + run.count_stats.total_messages,
                run.walk_stats.total_bits + run.count_stats.total_bits,
            )
        })
    }

    /// The absorbing target: drawn or elected in [`StepSolver::new`], and
    /// re-drawn if a partition-tolerant run loses it.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The fitted fixed-point fractional width phase 2 will use.
    pub fn fixed_point_bits(&self) -> u8 {
        self.fixed_point_bits
    }

    /// Serializes the full solve state at the current round boundary:
    /// magic + version, a CRC-guarded header (node count, seed, target,
    /// fixed-point plan, phase tag), a CRC-guarded phase-metadata section,
    /// and the engine's own (internally CRC-sectioned) image.
    ///
    /// # Errors
    ///
    /// [`RwbcError::InvalidParameter`] when the config is outside the
    /// checkpointable subset (see the module docs) or the solver is
    /// poisoned.
    pub fn checkpoint(&self) -> Result<Vec<u8>, RwbcError> {
        check_checkpointable(&self.config)?;
        let phase_tag: u8 = match &self.state {
            PhaseState::Walk(_) => 0,
            PhaseState::Count(_) => 1,
            PhaseState::Done(_) => 2,
            PhaseState::SketchCount(_) => 3,
            PhaseState::Poisoned => {
                return Err(RwbcError::InvalidParameter {
                    reason: "cannot checkpoint a poisoned StepSolver".to_string(),
                })
            }
        };
        let mut w = BitWriter::new();
        w.write_bits(STEP_CHECKPOINT_MAGIC, 64);
        w.write_bits(STEP_CHECKPOINT_VERSION, 64);
        let mut hw = BitWriter::new();
        self.graph.node_count().encode_state(&mut hw);
        self.config.seed.encode_state(&mut hw);
        self.target.encode_state(&mut hw);
        self.fixed_point_bits.encode_state(&mut hw);
        self.value_bits.encode_state(&mut hw);
        phase_tag.encode_state(&mut hw);
        write_section(&mut w, &hw.finish());

        let mut mw = BitWriter::new();
        match &self.state {
            PhaseState::Count(_) | PhaseState::SketchCount(_) => {
                (self.walk_stats.as_ref().expect("the walk phase ran")).encode_state(&mut mw);
                self.degradation.walks_lost.encode_state(&mut mw);
            }
            PhaseState::Done(run) => {
                run.centrality.as_slice().to_vec().encode_state(&mut mw);
                run.walk_stats.encode_state(&mut mw);
                run.count_stats.encode_state(&mut mw);
                run.degradation.walks_lost.encode_state(&mut mw);
                run.degradation.walk_subphases.encode_state(&mut mw);
                run.degradation.count_cells_missing.encode_state(&mut mw);
                run.degradation
                    .corrupt_frames_detected
                    .encode_state(&mut mw);
                run.degradation.links_quarantined.encode_state(&mut mw);
                // Version-2 additions (absent from v1 images, which are
                // always exact-mode runs).
                let mode_precision: u8 = match run.count_mode {
                    CountMode::Exact => 0,
                    CountMode::Sketch { precision } => precision,
                };
                mode_precision.encode_state(&mut mw);
                run.sketch_suppressed.encode_state(&mut mw);
            }
            PhaseState::Walk(_) | PhaseState::Poisoned => {}
        }
        write_section(&mut w, &mw.finish());

        let engine = match &self.state {
            PhaseState::Walk(net) => net.checkpoint()?,
            PhaseState::Count(net) => net.checkpoint()?,
            PhaseState::SketchCount(net) => net.checkpoint()?,
            PhaseState::Done(_) | PhaseState::Poisoned => Vec::new(),
        };
        write_section(&mut w, &engine);
        Ok(w.finish())
    }

    /// Reconstructs a solver from a [`StepSolver::checkpoint`] image.
    ///
    /// `graph` and `config` must describe the run that produced the image;
    /// the derived plan (target draw, fixed-point fit) is recomputed from
    /// them and validated against the header, so a config that would have
    /// produced a different solve is rejected instead of silently resumed.
    ///
    /// # Errors
    ///
    /// [`RwbcError::Sim`] with [`SimError::CorruptCheckpoint`] when the
    /// image is truncated, mangled, or disagrees with `graph`/`config`;
    /// [`RwbcError::InvalidParameter`] when `config` is outside the
    /// checkpointable subset; the validation errors of
    /// [`StepSolver::new`] otherwise.
    pub fn restore(
        graph: &'g Graph,
        config: DistributedConfig,
        data: &[u8],
    ) -> Result<StepSolver<'g>, RwbcError> {
        check_checkpointable(&config)?;
        let mut solver = StepSolver::plan(graph, config, None)?;
        let mut r = BitReader::new(data);
        if r.read_bits(64) != Some(STEP_CHECKPOINT_MAGIC) {
            return Err(corrupt("bad magic word"));
        }
        let version = r.read_bits(64).ok_or_else(|| corrupt("truncated header"))?;
        if !(STEP_CHECKPOINT_MIN_VERSION..=STEP_CHECKPOINT_VERSION).contains(&version) {
            return Err(corrupt("unsupported step-checkpoint version"));
        }
        let mut hr = BitReader::new(read_section(&mut r, "header")?);
        let n: usize = field(&mut hr, "header")?;
        if n != graph.node_count() {
            return Err(corrupt("node count disagrees with the provided graph"));
        }
        let seed: u64 = field(&mut hr, "header")?;
        if seed != solver.config.seed {
            return Err(corrupt("seed disagrees with the provided config"));
        }
        let plan: (usize, u8, u8) = (
            field(&mut hr, "header")?,
            field(&mut hr, "header")?,
            field(&mut hr, "header")?,
        );
        let phase_tag: u8 = field(&mut hr, "header")?;
        if plan != (solver.target, solver.fixed_point_bits, solver.value_bits) {
            return Err(corrupt(
                "solve plan (target / fixed-point fit) disagrees with the provided config",
            ));
        }
        // Each count-phase tag is owned by exactly one count mode: the
        // engine image decodes as that mode's program type, so a config
        // naming the other mode must be rejected, not misinterpreted.
        let tag_mode_ok = match phase_tag {
            1 => solver.config.count_mode == CountMode::Exact,
            3 => matches!(solver.config.count_mode, CountMode::Sketch { .. }),
            _ => true,
        };
        if !tag_mode_ok {
            return Err(corrupt("count mode disagrees with the image's count phase"));
        }
        let mut mr = BitReader::new(read_section(&mut r, "phase metadata")?);
        let engine = read_section(&mut r, "engine image")?;

        let walk_sim = solver.phase_sim(walk_seed(seed, 0), false);
        let count_sim = solver.phase_sim(count_seed(seed), false);
        // Past the walk phase the image carries its stats and loss tally.
        if phase_tag == 1 || phase_tag == 3 {
            solver.walk_stats = Some(field(&mut mr, "walk stats")?);
            solver.degradation.walks_lost = field(&mut mr, "walk tally")?;
            solver.degradation.walk_subphases = 1;
            solver.pass = 1;
        }
        solver.attempt = 1;
        solver.state = match phase_tag {
            0 => PhaseState::Walk(Transport::restore(graph, walk_sim, engine)?),
            1 => PhaseState::Count(Transport::restore(graph, count_sim, engine)?),
            3 => {
                // The combine weights are shared state outside the image.
                let mut sim: Simulator<SketchCountProgram> =
                    Simulator::restore(graph, count_sim, engine)?;
                if let CountMode::Sketch { precision } = solver.config.count_mode {
                    let weights = SketchCountProgram::combine_weights(n, precision);
                    for p in sim.programs_mut() {
                        p.set_combine_weights(Arc::clone(&weights));
                    }
                }
                PhaseState::SketchCount(Transport::Raw(sim))
            }
            2 => {
                let values: Vec<f64> = field(&mut mr, "centrality values")?;
                if values.len() != n {
                    return Err(corrupt("centrality length disagrees with the graph"));
                }
                let walk_stats = field(&mut mr, "walk stats")?;
                let count_stats = field(&mut mr, "count stats")?;
                let degradation = DegradationReport {
                    walks_lost: field(&mut mr, "degradation")?,
                    walk_subphases: field(&mut mr, "degradation")?,
                    count_cells_missing: field(&mut mr, "degradation")?,
                    corrupt_frames_detected: field(&mut mr, "degradation")?,
                    links_quarantined: field(&mut mr, "degradation")?,
                    ..DegradationReport::default()
                };
                // Version-1 images predate sketch mode: exact, no
                // suppression tally.
                let (count_mode, sketch_suppressed) = if version >= 2 {
                    let mode = match field(&mut mr, "count mode")? {
                        0 => CountMode::Exact,
                        p => CountMode::Sketch { precision: p },
                    };
                    (mode, field(&mut mr, "suppression tally")?)
                } else {
                    (CountMode::Exact, 0)
                };
                if count_mode != solver.config.count_mode {
                    return Err(corrupt("count mode disagrees with the provided config"));
                }
                PhaseState::Done(Box::new(DistributedRun {
                    centrality: Centrality::from_values(values),
                    target: solver.target,
                    election_stats: None,
                    walk_stats,
                    count_stats,
                    fixed_point_bits: solver.fixed_point_bits,
                    count_mode,
                    sketch_suppressed,
                    degradation,
                }))
            }
            _ => return Err(corrupt("unknown phase tag")),
        };
        Ok(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::approximate;
    use rwbc_graph::generators::{connected_gnp, star};

    fn cfg(seed: u64) -> DistributedConfig {
        DistributedConfig::builder()
            .walks(40)
            .length(30)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn stepwise_matches_one_shot_driver_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(77);
        let g = connected_gnp(18, 0.3, 100, &mut rng).unwrap();
        let c = cfg(9);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c).unwrap();
        let run = solver.run_to_completion().unwrap();
        assert_eq!(*run, oneshot);
    }

    #[test]
    fn rejects_uncheckpointable_configs() {
        // Every config runs; only checkpointing is limited to the subset.
        let g = star(4).unwrap();
        let image = StepSolver::new(&g, cfg(1)).unwrap().checkpoint().unwrap();
        let mut bad_configs = Vec::new();
        for set in [
            |c: &mut DistributedConfig| c.reliable = true,
            |c: &mut DistributedConfig| {
                c.reliable = true;
                c.checksums = true;
            },
            |c: &mut DistributedConfig| c.elect_target = true,
            |c: &mut DistributedConfig| c.walk_retries = 2,
            |c: &mut DistributedConfig| c.partition_tolerant = true,
        ] {
            let mut c = cfg(1);
            // Headroom for the reliable frame header and seal.
            c.sim = c.sim.with_bandwidth_coeff(64);
            set(&mut c);
            bad_configs.push(c);
        }
        for bad in bad_configs {
            let mut solver = StepSolver::new(&g, bad.clone()).unwrap();
            assert!(matches!(
                solver.checkpoint(),
                Err(RwbcError::InvalidParameter { .. })
            ));
            solver.step().unwrap();
            assert!(matches!(
                solver.checkpoint(),
                Err(RwbcError::InvalidParameter { .. })
            ));
            solver.run_to_completion().unwrap();
            assert!(matches!(
                solver.checkpoint(),
                Err(RwbcError::InvalidParameter { .. })
            ));
            assert!(matches!(
                StepSolver::restore(&g, bad, &image),
                Err(RwbcError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn checkpoint_roundtrips_at_every_boundary() {
        let g = star(6).unwrap();
        let c = cfg(4);
        let oneshot = approximate(&g, &c).unwrap();
        // Checkpoint after every single round, restore, and finish: each
        // resumed run must land on the identical result.
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        let mut images = vec![solver.checkpoint().unwrap()];
        while !solver.step().unwrap() {
            images.push(solver.checkpoint().unwrap());
        }
        assert_eq!(*solver.result().unwrap(), oneshot);
        for image in images {
            let mut resumed = StepSolver::restore(&g, c.clone(), &image).unwrap();
            let run = resumed.run_to_completion().unwrap();
            assert_eq!(*run, oneshot, "resume must be bit-identical");
        }
    }

    fn sketch_cfg(seed: u64) -> DistributedConfig {
        DistributedConfig::builder()
            .walks(40)
            .length(30)
            .seed(seed)
            .count_mode(CountMode::Sketch { precision: 4 })
            .build()
            .unwrap()
    }

    #[test]
    fn sketch_stepwise_matches_one_shot_driver_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(101);
        let g = connected_gnp(18, 0.3, 100, &mut rng).unwrap();
        let c = sketch_cfg(9);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c).unwrap();
        let run = solver.run_to_completion().unwrap();
        assert_eq!(*run, oneshot);
        assert_eq!(run.count_mode, CountMode::Sketch { precision: 4 });
        assert_eq!(run.count_stats.rounds, 16);
    }

    #[test]
    fn sketch_checkpoint_roundtrips_at_every_boundary() {
        let g = star(6).unwrap();
        let c = sketch_cfg(4);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        let mut images = vec![solver.checkpoint().unwrap()];
        while !solver.step().unwrap() {
            images.push(solver.checkpoint().unwrap());
        }
        assert_eq!(*solver.result().unwrap(), oneshot);
        // The image set spans both phases, so mid-count (tag 3) resume and
        // the walk → sketch-count hand-off are both exercised.
        for image in images {
            let mut resumed = StepSolver::restore(&g, c.clone(), &image).unwrap();
            let run = resumed.run_to_completion().unwrap();
            assert_eq!(*run, oneshot, "sketch resume must be bit-identical");
        }
    }

    #[test]
    fn restore_rejects_count_mode_mismatch() {
        let g = star(6).unwrap();
        let exact = cfg(4);
        let sketch = sketch_cfg(4);
        // A mid-count exact image must not restore under a sketch config,
        // and vice versa: the engine images hold different program types.
        let image_in_count = |c: &DistributedConfig| {
            let mut solver = StepSolver::new(&g, c.clone()).unwrap();
            while solver.phase() != SolvePhase::Count {
                solver.step().unwrap();
            }
            solver.checkpoint().unwrap()
        };
        let exact_img = image_in_count(&exact);
        let sketch_img = image_in_count(&sketch);
        assert!(StepSolver::restore(&g, sketch.clone(), &exact_img).is_err());
        assert!(StepSolver::restore(&g, exact.clone(), &sketch_img).is_err());
        // A done sketch image also refuses an exact config (and the other
        // way round), via the v2 metadata.
        let done_img = |c: &DistributedConfig| {
            let mut solver = StepSolver::new(&g, c.clone()).unwrap();
            solver.run_to_completion().unwrap();
            solver.checkpoint().unwrap()
        };
        assert!(StepSolver::restore(&g, exact.clone(), &done_img(&sketch)).is_err());
        assert!(StepSolver::restore(&g, sketch, &done_img(&exact)).is_err());
    }

    #[test]
    fn version_one_walk_images_still_restore() {
        // Walk-phase layout is unchanged since v1, so an aged version field
        // must still be accepted (the range check, not strict equality).
        let g = star(6).unwrap();
        let c = cfg(4);
        let oneshot = approximate(&g, &c).unwrap();
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        solver.step().unwrap();
        let mut image = solver.checkpoint().unwrap();
        // The version is a big-endian u64 at bytes 8..16.
        assert_eq!(image[8..16], STEP_CHECKPOINT_VERSION.to_be_bytes());
        image[8..16].copy_from_slice(&STEP_CHECKPOINT_MIN_VERSION.to_be_bytes());
        let mut resumed = StepSolver::restore(&g, c.clone(), &image).unwrap();
        assert_eq!(*resumed.run_to_completion().unwrap(), oneshot);
        // Future versions stay rejected.
        image[8..16].copy_from_slice(&(STEP_CHECKPOINT_VERSION + 1).to_be_bytes());
        assert!(StepSolver::restore(&g, c, &image).is_err());
    }

    #[test]
    fn engine_metrics_track_rounds_across_phases() {
        use congest_sim::Registry;
        let mut rng = StdRng::seed_from_u64(21);
        let g = connected_gnp(16, 0.3, 100, &mut rng).unwrap();
        let c = cfg(5);
        let run = |threads: usize| {
            let mut c = c.clone();
            // Granularity 1: even this 16-node graph splits across all
            // requested workers, so t>1 really runs the parallel fan-out.
            c.sim = c.sim.with_threads(threads).with_granularity(1);
            let registry = Registry::new();
            let mut solver = StepSolver::new(&g, c).unwrap();
            solver.set_metrics(EngineMetrics::register(&registry));
            let result = solver.run_to_completion().unwrap().clone();
            let rounds = solver.rounds_completed();
            (result, rounds, registry.snapshot())
        };
        let (r1, rounds, snap1) = run(1);
        // Attached at round 0, the live counter matches the solver's own
        // cross-phase tally, and the content is thread-count-invariant.
        assert_eq!(snap1.counter("engine_rounds_total"), Some(rounds as u64));
        let (r4, _, snap4) = run(4);
        assert_eq!(&r1, &r4);
        assert_eq!(&snap1, &snap4);
        let (r8, _, snap8) = run(8);
        assert_eq!(&r1, &r8);
        assert_eq!(&snap1, &snap8);
    }

    #[test]
    fn done_checkpoint_carries_the_result() {
        let g = star(5).unwrap();
        let c = cfg(2);
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        let run = solver.run_to_completion().unwrap().clone();
        let image = solver.checkpoint().unwrap();
        let restored = StepSolver::restore(&g, c, &image).unwrap();
        assert!(restored.is_done());
        assert_eq!(*restored.result().unwrap(), run);
        assert_eq!(restored.fingerprint(), solver.fingerprint());
    }

    #[test]
    fn corrupt_images_yield_typed_errors() {
        let g = star(5).unwrap();
        let c = cfg(3);
        let mut solver = StepSolver::new(&g, c.clone()).unwrap();
        solver.step().unwrap();
        let image = solver.checkpoint().unwrap();
        // Truncation, bit flips, and a wrong-config restore all fail typed.
        for cut in [0, 8, image.len() / 2, image.len() - 1] {
            match StepSolver::restore(&g, c.clone(), &image[..cut]) {
                Err(RwbcError::Sim(SimError::CorruptCheckpoint { .. })) => {}
                Err(other) => panic!("expected CorruptCheckpoint, got {other:?}"),
                Ok(_) => panic!("truncation at {cut} must not restore"),
            }
        }
        for pos in [16, image.len() / 2, image.len() - 1] {
            let mut mangled = image.clone();
            mangled[pos] ^= 0x40;
            assert!(
                StepSolver::restore(&g, c.clone(), &mangled).is_err(),
                "flip at {pos} must not restore silently"
            );
        }
        let mut other = c.clone();
        other.seed ^= 1;
        assert!(StepSolver::restore(&g, other, &image).is_err());
    }

    #[test]
    fn progress_reporting_tracks_phases() {
        let g = star(6).unwrap();
        let mut solver = StepSolver::new(&g, cfg(5)).unwrap();
        assert_eq!(solver.phase(), SolvePhase::Walk);
        assert_eq!(solver.rounds_completed(), 0);
        let mut saw_count = false;
        while !solver.step().unwrap() {
            saw_count |= solver.phase() == SolvePhase::Count;
        }
        assert!(saw_count, "count phase must be observable");
        assert_eq!(solver.phase(), SolvePhase::Done);
        let run = solver.result().unwrap();
        assert_eq!(solver.rounds_completed(), run.total_rounds());
    }
}
