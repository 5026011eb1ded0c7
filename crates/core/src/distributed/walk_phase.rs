//! Phase 1 — the paper's **Algorithm 1**: every node launches `K` truncated
//! absorbing random walks and every node counts the visits it receives,
//! per source.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use congest_sim::{Context, Incoming, NodeProgram, TraceEvent};
use rwbc_graph::NodeId;

use crate::distributed::messages::{WalkBatch, WalkToken};
use crate::distributed::{CongestionDiscipline, SourceTally, TallyLog};

/// Node program for the counting phase.
///
/// Faithful to Algorithm 1 with one documented deviation: a walk's visit to
/// its *birth* node is counted (`ξ_s^s` starts at `K`), because the matrix
/// the estimator targets, `(I − M_t)^{-1}`, includes the `r = 0` term —
/// see `DESIGN.md` §5. Line 6's congestion rule ("if more than one random
/// walk needs the same edge, send one") is implemented as hold-and-resend:
/// losers stay queued and keep their rolled neighbor for the next round.
/// The batched variant (ablation D3) instead packs as many tokens per
/// message as the run's per-edge bit budget ([`Context::budget_bits`])
/// allows, up to [`WalkBatch::MAX_TOKENS`].
///
/// # Host-side cost per token
///
/// Token forwarding is the phase's unit of work, so its bookkeeping is
/// kept off the allocator: a one-token [`WalkBatch`] holds its token
/// inline, the forwarding buffers persist from round to round, and the
/// ticket map hashes its packed `(source, remaining)` key with a
/// multiply–xorshift mixer instead of SipHash (see DESIGN §14).
///
/// # Schedule-invariant randomness
///
/// Next-hop draws do **not** come from the engine's per-node RNG stream
/// (which is consumed in arrival order and therefore sensitive to message
/// *timing*). Instead, every draw is taken from a stream keyed by the walk
/// state `(node, source, remaining)` plus a per-state ticket counter, and a
/// token held back by congestion keeps its drawn neighbor, so each token
/// consumes exactly one draw per state it visits. Tokens at the same state
/// are exchangeable — their futures depend only on the state and the
/// draw streams — so the multiset of visit counts `ξ_v^s` is a function of
/// the seed alone, invariant under delivery timing. Consequences:
///
/// * the final fingerprint is identical across thread counts **and**
///   across any fault schedule the reliable layer fully repairs (drops,
///   duplicates, delays, detected corruption) — the acceptance property
///   behind the chaos tests;
/// * recovery sub-phases salt the stream with the attempt number (via
///   [`WalkProgram::with_draw_seed`]), so replacement walks are
///   independent of the originals rather than retracing them.
///
/// The invariance claim is void once links are *quarantined* mid-phase
/// (dead-neighbor re-sampling changes the walk distribution itself);
/// [`DegradationReport`](crate::distributed::DegradationReport) reports
/// such runs as not clean.
#[derive(Debug, Clone)]
pub struct WalkProgram {
    me: NodeId,
    /// Network size: the range of source ids.
    n: usize,
    target: NodeId,
    k: usize,
    len_bits: u8,
    discipline: CongestionDiscipline,
    /// Seed of the schedule-invariant draw streams (see [`Self::roll`]).
    draw_seed: u64,
    /// Tickets issued per walk state `(source, remaining)` at this node,
    /// keyed by [`ticket_key`].
    tickets: HashMap<u64, u32, BuildHasherDefault<TicketHasher>>,
    /// Tokens currently parked at this node, waiting to move.
    queue: Vec<Queued>,
    /// `ξ_me^s` for every source `s` whose walks reached this node.
    counts: TallyLog,
    /// Walk completions observed *at this node*, per source: absorptions
    /// (when this node is the target) and truncations (remaining hit 0
    /// here). Summed across nodes by the driver, `K − Σ deaths[s]` is the
    /// number of source-`s` tokens lost to faults — the signal behind the
    /// relaunch recovery loop.
    deaths: TallyLog,
    /// Neighbors declared permanently dead (sorted). Tokens are re-sampled
    /// among the survivors; with no survivors left, queued tokens are
    /// truncated in place.
    dead_neighbors: Vec<NodeId>,
    started: bool,
    /// Node-owned forwarding buffers, reused round over round.
    scratch: ForwardScratch,
}

/// A parked token plus the neighbor index it has already rolled. The
/// choice survives congestion hold-back rounds so each token consumes
/// exactly one draw per state — the invariance hinge; see the
/// [`WalkProgram`] docs.
#[derive(Debug, Clone)]
struct Queued {
    token: WalkToken,
    choice: Option<u32>,
}

impl Queued {
    fn fresh(token: WalkToken) -> Queued {
        Queued {
            token,
            choice: None,
        }
    }
}

/// Reusable buffers for [`WalkProgram::forward`], so the per-round
/// distribution step allocates nothing in steady state (a multi-token
/// batch still owns a heap list). Never part of the protocol state:
/// empty between rounds, excluded from equality.
#[derive(Debug, Clone, Default)]
struct ForwardScratch {
    /// Tokens bound for each neighbor index this round; zero between
    /// rounds.
    fill: Vec<u8>,
    /// The tokens shipped this round with their neighbor index, in queue
    /// order.
    outgoing: Vec<(u32, WalkToken)>,
    /// Tokens held back by the congestion discipline this round; swapped
    /// with `queue` at the end of the distribution, so both buffers keep
    /// their capacity.
    keep: Vec<Queued>,
    /// Live-neighbor indices when some neighbors are dead.
    live: Vec<usize>,
}

/// The ticket map's key: `source` in the high half, `remaining` in the
/// low half, so key order is `(source, remaining)` order.
fn ticket_key(source: NodeId, remaining: u32) -> u64 {
    debug_assert!(source <= u32::MAX as usize, "node ids fit 32 bits");
    (source as u64) << 32 | u64::from(remaining)
}

/// The inverse of [`ticket_key`].
fn ticket_state(key: u64) -> (NodeId, u32) {
    ((key >> 32) as NodeId, key as u32)
}

/// Hasher of the ticket map: one multiply between two xorshifts over the
/// packed key, a few cycles where SipHash takes dozens on every forwarded
/// token. The map's keys come from the run itself, not from an
/// adversary, so SipHash's flooding resistance buys nothing here. The
/// fold brings the source half into the low bits the table indexes by;
/// the multiply spreads both halves over the high bits it tags with.
#[derive(Debug, Clone, Copy, Default)]
struct TicketHasher(u64);

impl Hasher for TicketHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ self.0 >> 32).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ h >> 29
    }
}

/// SplitMix64 finalizer — the avalanche stage behind the draw streams.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl WalkProgram {
    /// Program for node `me`. `walk_length` is `l`, `walks_per_node` is `K`.
    pub fn new(
        me: NodeId,
        n: usize,
        target: NodeId,
        walks_per_node: usize,
        walk_length: usize,
        len_bits: u8,
        discipline: CongestionDiscipline,
    ) -> WalkProgram {
        WalkProgram::with_token_lengths(
            me,
            n,
            target,
            vec![walk_length as u32; walks_per_node],
            len_bits,
            discipline,
        )
    }

    /// Program whose `K = lengths.len()` tokens carry individual length
    /// budgets. Used by the α-current-flow variant, where token lifetimes
    /// are geometric with mean `1 / (1 − α)` instead of a fixed `l`.
    pub fn with_token_lengths(
        me: NodeId,
        n: usize,
        target: NodeId,
        lengths: Vec<u32>,
        len_bits: u8,
        discipline: CongestionDiscipline,
    ) -> WalkProgram {
        // A fresh program is a resumed one that also counts its births.
        let k = lengths.len();
        let mut program = WalkProgram::resume(me, n, target, lengths, len_bits, discipline);
        program.k = k;
        if me != target {
            // Birth visits: the r = 0 term of the visit expectation.
            program.counts.add(me, k as u64);
        }
        program
    }

    /// Program for a *recovery sub-phase*: node `me` relaunches
    /// `lengths.len()` replacement tokens for walks of its own that were
    /// lost to faults in an earlier sub-phase. No birth visits are counted
    /// (the lost originals already counted theirs) and `launched()` reports
    /// zero — the driver accumulates visit counts across sub-phases.
    pub fn resume(
        me: NodeId,
        n: usize,
        target: NodeId,
        lengths: Vec<u32>,
        len_bits: u8,
        discipline: CongestionDiscipline,
    ) -> WalkProgram {
        let mut deaths = TallyLog::new();
        let mut queue = Vec::new();
        if me != target {
            for l in lengths {
                if l > 0 {
                    queue.push(Queued::fresh(WalkToken {
                        source: me,
                        remaining: l,
                    }));
                } else {
                    // A zero-length walk completes at birth.
                    deaths.add(me, 1);
                }
            }
        }
        WalkProgram {
            me,
            n,
            target,
            k: 0,
            len_bits,
            discipline,
            draw_seed: 0,
            tickets: HashMap::default(),
            queue,
            counts: TallyLog::new(),
            deaths,
            dead_neighbors: Vec::new(),
            started: false,
            scratch: ForwardScratch::default(),
        }
    }

    /// Seeds the schedule-invariant draw streams. Every run (and every
    /// recovery sub-phase) should use a distinct value — the driver passes
    /// its per-sub-phase simulator seed — so that draws are independent
    /// across phases while staying a pure function of `(seed, node,
    /// source, remaining, ticket)` within one.
    #[must_use]
    pub fn with_draw_seed(mut self, seed: u64) -> WalkProgram {
        self.draw_seed = seed;
        self
    }

    /// Pre-seeds the set of permanently dead neighbors (e.g. links declared
    /// dead in an earlier sub-phase): tokens are never routed toward them.
    /// More deaths may arrive at runtime via
    /// [`NodeProgram::on_neighbor_down`].
    #[must_use]
    pub fn with_dead_neighbors(mut self, mut peers: Vec<NodeId>) -> WalkProgram {
        peers.sort_unstable();
        peers.dedup();
        self.dead_neighbors = peers;
        self
    }

    /// Neighbors this program considers permanently dead (sorted).
    pub fn dead_neighbors(&self) -> &[NodeId] {
        &self.dead_neighbors
    }

    /// Consumes the program, yielding its tallies: the visit counts
    /// `ξ_me^s`, and the walk completions observed here per source
    /// (absorptions if this node is the target, truncations otherwise).
    pub fn into_tallies(self) -> (SourceTally, SourceTally) {
        (self.counts.into_tally(), self.deaths.into_tally())
    }

    /// Tokens still parked here (0 after a completed run).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Walks this node launched.
    pub fn launched(&self) -> usize {
        if self.me == self.target {
            0
        } else {
            self.k
        }
    }

    /// One draw from the stream keyed by the walk state `(me, source,
    /// remaining)`: the `i`-th token processed at that state gets ticket
    /// `i`, and the value is a pure function of `(draw_seed, me, source,
    /// remaining, i)`. Tokens at the same state are exchangeable, so which
    /// of them gets which ticket never changes the visit-count multiset —
    /// the schedule-invariance property in the type docs.
    fn roll(&mut self, source: NodeId, remaining: u32, bound: usize) -> usize {
        let t = self
            .tickets
            .entry(ticket_key(source, remaining))
            .or_insert(0);
        let ticket = *t;
        *t += 1;
        let mut h = self.draw_seed;
        for w in [
            self.me as u64,
            source as u64,
            u64::from(remaining),
            u64::from(ticket),
        ] {
            h = splitmix64(h ^ w);
        }
        // Multiply-shift maps the 64-bit hash uniformly onto `0..bound`
        // (bias ≤ bound/2^64 — unmeasurable at graph degrees) without
        // paying an RNG key setup per draw on the hot path.
        ((u128::from(h) * bound as u128) >> 64) as usize
    }

    /// Rolls a neighbor for every queued token and ships what the
    /// congestion discipline allows; the rest stay queued.
    fn forward(&mut self, ctx: &mut Context<'_, WalkBatch>) {
        if self.queue.is_empty() {
            return;
        }
        let deg = ctx.degree();
        debug_assert!(deg > 0, "connected graphs have no isolated nodes");
        // With dead neighbors the walk re-samples uniformly among the
        // survivors — the walk distribution of the *surviving* graph.
        if !self.dead_neighbors.is_empty() {
            let live = &mut self.scratch.live;
            live.clear();
            live.extend(
                (0..deg).filter(|&i| self.dead_neighbors.binary_search(&ctx.neighbor(i)).is_err()),
            );
            if live.is_empty() {
                // Every neighbor is gone: the node is stranded and its
                // walks can never move again. Truncate them in place so
                // the death tally (and with it termination) stays exact.
                for q in self.queue.drain(..) {
                    self.deaths.bump(q.token.source);
                }
                return;
            }
        }
        let live_len = self.scratch.live.len();
        let max_per_edge = match self.discipline {
            CongestionDiscipline::HoldAndResend => 1,
            CongestionDiscipline::Batched => {
                WalkBatch::capacity(ctx.budget_bits(), ctx.network_size(), self.len_bits)
            }
        };
        let scratch = &mut self.scratch;
        if scratch.fill.len() < deg {
            scratch.fill.resize(deg, 0);
        }
        debug_assert!(scratch.fill.iter().all(|&f| f == 0));
        debug_assert!(scratch.outgoing.is_empty());
        debug_assert!(scratch.keep.is_empty());
        // Roll a neighbor for each token that doesn't have one yet (paper
        // line 6, first half: "choose a random neighbor v") and ship it,
        // up to `max_per_edge` per neighbor; the rest wait (line 6,
        // second half) and keep their roll, so congestion never costs a
        // state a second draw.
        let mut queue = std::mem::take(&mut self.queue);
        for q in queue.drain(..) {
            let choice = match q.choice {
                Some(c) => c as usize,
                None if self.dead_neighbors.is_empty() => {
                    self.roll(q.token.source, q.token.remaining, deg)
                }
                None => {
                    let j = self.roll(q.token.source, q.token.remaining, live_len);
                    self.scratch.live[j]
                }
            };
            let scratch = &mut self.scratch;
            if usize::from(scratch.fill[choice]) < max_per_edge {
                scratch.fill[choice] += 1;
                scratch.outgoing.push((choice as u32, q.token));
            } else {
                scratch.keep.push(Queued {
                    token: q.token,
                    choice: Some(choice as u32),
                });
            }
        }
        // `queue` was fully drained; after the swap it holds the kept
        // tokens and `scratch.keep` is the (empty) old queue buffer.
        std::mem::swap(&mut queue, &mut self.scratch.keep);
        self.queue = queue;
        // One message per neighbor, in ascending neighbor order; the
        // stable sort keeps each batch's tokens in queue order.
        let scratch = &mut self.scratch;
        scratch.outgoing.sort_by_key(|&(choice, _)| choice);
        for group in scratch.outgoing.chunk_by(|a, b| a.0 == b.0) {
            let i = group[0].0 as usize;
            scratch.fill[i] = 0;
            let batch = match *group {
                [(_, token)] => WalkBatch::one(token, self.len_bits),
                _ => WalkBatch::new(group.iter().map(|&(_, t)| t).collect(), self.len_bits),
            };
            ctx.send(ctx.neighbor(i), batch);
        }
        scratch.outgoing.clear();
    }
}

// Checkpoint encoding (see `congest_sim::wire::WireState`): everything
// but `scratch`, which is empty at every round boundary by construction.
// The ticket map is written in sorted key order so two equal programs
// always produce identical bytes — the hinge of the daemon's
// checkpoint-resume bit-identity guarantee. The tallies keep the dense
// wire form (a length-`n` `Vec<u64>` each): encode expands the runs and
// decode compacts them, so images are byte-identical to the dense
// layout's; `n` itself is the rows' length.
impl congest_sim::wire::WireState for WalkProgram {
    fn encode_state(&self, w: &mut congest_sim::wire::BitWriter) {
        self.me.encode_state(w);
        self.target.encode_state(w);
        self.k.encode_state(w);
        self.len_bits.encode_state(w);
        matches!(self.discipline, CongestionDiscipline::Batched).encode_state(w);
        self.draw_seed.encode_state(w);
        let mut tickets: Vec<((NodeId, u32), u32)> = self
            .tickets
            .iter()
            .map(|(&k, &v)| (ticket_state(k), v))
            .collect();
        tickets.sort_unstable();
        tickets.encode_state(w);
        let queue: Vec<(WalkToken, Option<u32>)> =
            self.queue.iter().map(|q| (q.token, q.choice)).collect();
        queue.encode_state(w);
        self.counts.snapshot().encode_dense(self.n, w);
        self.deaths.snapshot().encode_dense(self.n, w);
        self.dead_neighbors.encode_state(w);
        self.started.encode_state(w);
    }

    fn decode_state(r: &mut congest_sim::wire::BitReader<'_>) -> Option<WalkProgram> {
        let me = usize::decode_state(r)?;
        let target = usize::decode_state(r)?;
        let k = usize::decode_state(r)?;
        let len_bits = u8::decode_state(r)?;
        let discipline = if bool::decode_state(r)? {
            CongestionDiscipline::Batched
        } else {
            CongestionDiscipline::HoldAndResend
        };
        let draw_seed = u64::decode_state(r)?;
        let tickets: Vec<((NodeId, u32), u32)> = Vec::decode_state(r)?;
        let queue: Vec<(WalkToken, Option<u32>)> = Vec::decode_state(r)?;
        let (n, counts) = SourceTally::decode_dense(r)?;
        let (deaths_len, deaths) = SourceTally::decode_dense(r)?;
        // Both rows span the source range, which must hold every id the
        // program tallies or forwards.
        let in_range = deaths_len == n
            && me < n
            && target < n
            && tickets.iter().all(|&((source, _), _)| source < n)
            && queue.iter().all(|(token, _)| token.source < n);
        if !in_range {
            return None;
        }
        Some(WalkProgram {
            me,
            n,
            target,
            k,
            len_bits,
            discipline,
            draw_seed,
            tickets: tickets
                .into_iter()
                .map(|((source, remaining), t)| (ticket_key(source, remaining), t))
                .collect(),
            queue: queue
                .into_iter()
                .map(|(token, choice)| Queued { token, choice })
                .collect(),
            counts: counts.into(),
            deaths: deaths.into(),
            dead_neighbors: Vec::decode_state(r)?,
            started: bool::decode_state(r)?,
            scratch: ForwardScratch::default(),
        })
    }
}

impl NodeProgram for WalkProgram {
    type Msg = WalkBatch;

    fn on_start(&mut self, ctx: &mut Context<'_, WalkBatch>) {
        self.started = true;
        self.forward(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, WalkBatch>, inbox: &[Incoming<WalkBatch>]) {
        let mut absorbed = 0u64;
        let mut truncated = 0u64;
        for batch in inbox {
            for token in batch.msg.tokens() {
                // Paper lines 7-16: absorb at the target, otherwise count
                // the visit, decrement, and keep the walk if it has hops
                // left.
                if self.me == self.target {
                    self.deaths.bump(token.source);
                    absorbed += 1;
                    continue; // absorbed
                }
                self.counts.bump(token.source);
                if token.remaining > 1 {
                    self.queue.push(Queued::fresh(WalkToken {
                        source: token.source,
                        remaining: token.remaining - 1,
                    }));
                } else {
                    // Truncated here: this walk has completed its budget.
                    self.deaths.bump(token.source);
                    truncated += 1;
                }
            }
        }
        if ctx.tracing() {
            if absorbed > 0 {
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "absorbed".to_string(),
                    value: absorbed,
                });
            }
            if truncated > 0 {
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "truncated".to_string(),
                    value: truncated,
                });
            }
        }
        self.forward(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.started && self.queue.is_empty()
    }

    fn on_neighbor_down(&mut self, peer: NodeId) {
        if let Err(pos) = self.dead_neighbors.binary_search(&peer) {
            self.dead_neighbors.insert(pos, peer);
            // Stored rolls may point at the dead neighbor (and the
            // live-index mapping just changed); force a re-draw among the
            // survivors for everything still parked here.
            for q in &mut self.queue {
                q.choice = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::wire::{BitReader, WireState};
    use congest_sim::{SimConfig, Simulator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rwbc_graph::generators::{complete, connected_gnp, cycle, path, star};

    fn run_phase(
        g: &rwbc_graph::Graph,
        target: NodeId,
        k: usize,
        l: usize,
        discipline: CongestionDiscipline,
        seed: u64,
    ) -> (Vec<SourceTally>, congest_sim::RunStats) {
        let n = g.node_count();
        let len_bits = crate::distributed::messages::len_field_bits(l);
        let mut sim = Simulator::new(g, SimConfig::default().with_seed(seed), |v| {
            WalkProgram::new(v, n, target, k, l, len_bits, discipline).with_draw_seed(seed)
        });
        let stats = sim.run().unwrap();
        let counts = sim
            .into_programs()
            .into_iter()
            .map(|p| p.into_tallies().0)
            .collect();
        (counts, stats)
    }

    #[test]
    fn walk_conservation_on_cycle() {
        // Each walk makes visits: birth + one per completed hop. Total
        // visits across all nodes from source s equals K (birth) + hops
        // taken; hops <= K * l. Just sanity-check bounds and that the
        // target row stays zero.
        let g = cycle(6).unwrap();
        let (counts, stats) = run_phase(&g, 0, 5, 20, CongestionDiscipline::HoldAndResend, 1);
        assert!(stats.congest_compliant());
        for s in 1..6 {
            let total: u64 = counts.iter().map(|row| row.get(s)).sum();
            assert!(total >= 5, "source {s} total {total}");
            assert!(total <= 5 * 21, "source {s} total {total}");
        }
        // The absorbing target never counts visits.
        assert!(counts[0].is_empty());
        // And no walks start at the target: no node tallies source 0.
        for row in &counts[1..] {
            assert_eq!(row.get(0), 0);
        }
    }

    #[test]
    fn birth_visits_counted() {
        let g = path(4).unwrap();
        let (counts, _) = run_phase(&g, 3, 7, 1, CongestionDiscipline::HoldAndResend, 2);
        // With l = 1 every walk makes exactly one hop; the birth visit must
        // still be there.
        for (s, row) in counts.iter().enumerate().take(3) {
            assert!(row.get(s) >= 7, "node {s} birth visits {}", row.get(s));
        }
    }

    #[test]
    fn all_walks_drain_and_queues_empty() {
        let g = complete(8).unwrap();
        let n = g.node_count();
        let len_bits = crate::distributed::messages::len_field_bits(30);
        let mut sim = Simulator::new(&g, SimConfig::default().with_seed(3), |v| {
            WalkProgram::new(
                v,
                n,
                2,
                10,
                30,
                len_bits,
                CongestionDiscipline::HoldAndResend,
            )
            .with_draw_seed(3)
        });
        sim.run().unwrap();
        for v in 0..n {
            assert_eq!(sim.program(v).queued(), 0);
        }
    }

    #[test]
    fn expected_visits_approach_fundamental_matrix() {
        // Path 0-1-2 absorbed at 2: E[visits to 0 from 0] = 2 (see the
        // Monte-Carlo test of the same quantity). Distributed must agree.
        let g = path(3).unwrap();
        let k = 8000;
        let (counts, _) = run_phase(&g, 2, k, 200, CongestionDiscipline::HoldAndResend, 4);
        let est = counts[0].get(0) as f64 / k as f64;
        assert!((est - 2.0).abs() < 0.15, "visits(0<-0) = {est}");
    }

    #[test]
    fn batched_discipline_matches_hold_and_resend_statistically() {
        let g = star(6).unwrap();
        let k = 2000;
        let (a, stats_a) = run_phase(&g, 6, k, 60, CongestionDiscipline::HoldAndResend, 5);
        let (b, stats_b) = run_phase(&g, 6, k, 60, CongestionDiscipline::Batched, 5);
        assert!(stats_a.congest_compliant());
        assert!(stats_b.congest_compliant());
        // Batched drains the K-token backlog faster.
        assert!(stats_b.rounds <= stats_a.rounds);
        // Same estimator: per-node totals agree within Monte-Carlo noise.
        for v in 0..6 {
            let ta = a[v].total();
            let tb = b[v].total();
            if ta + tb > 1000 {
                let ratio = ta as f64 / tb as f64;
                assert!((0.9..1.1).contains(&ratio), "node {v}: {ta} vs {tb}");
            }
        }
    }

    #[test]
    fn congestion_delays_but_preserves_hop_budget() {
        // Many walks from one node of a path: degree-1 endpoint can emit
        // only one token per round, so draining K tokens takes >= K rounds.
        let g = path(2).unwrap();
        let (_, stats) = run_phase(&g, 1, 50, 3, CongestionDiscipline::HoldAndResend, 6);
        assert!(stats.rounds >= 50, "rounds {}", stats.rounds);
    }

    #[test]
    fn tallies_are_bounded_by_visits_and_conserve_walk_mass() {
        let n = 2048;
        let mut rng = StdRng::seed_from_u64(2048);
        let g = connected_gnp(n, 12.0 / (n as f64 - 1.0), 100, &mut rng).unwrap();
        let (k, l, target) = (4usize, 64usize, 0);
        let len_bits = crate::distributed::messages::len_field_bits(l);
        let mut sim = Simulator::new(&g, SimConfig::default().with_seed(7), |v| {
            WalkProgram::new(
                v,
                n,
                target,
                k,
                l,
                len_bits,
                CongestionDiscipline::HoldAndResend,
            )
            .with_draw_seed(7)
        });
        let stats = sim.run().unwrap();
        let tallies: Vec<(SourceTally, SourceTally)> = sim
            .into_programs()
            .into_iter()
            .map(WalkProgram::into_tallies)
            .collect();
        // Hold-and-resend ships one token per message.
        let delivered = stats.total_messages;
        let sources = (n - 1) as u64;
        // One run per distinct source seen: each comes from a birth tally
        // or a delivered token, never from the size of the network.
        let runs: usize = tallies.iter().map(|(counts, _)| counts.len()).sum();
        assert!(runs as u64 <= sources + delivered, "{runs} runs");
        assert!(runs < n * n / 8, "{runs} runs is not sparse at n = {n}");
        let mut visits = vec![0u64; n];
        let mut deaths = vec![0u64; n];
        for (counts, died) in &tallies {
            for &(s, c) in counts.runs() {
                visits[s] += c;
            }
            for &(s, d) in died.runs() {
                deaths[s] += d;
            }
        }
        for s in 0..n {
            if s == target {
                assert_eq!(
                    (visits[s], deaths[s]),
                    (0, 0),
                    "the target launches nothing"
                );
                continue;
            }
            assert_eq!(deaths[s], k as u64, "every walk of source {s} dies once");
            let range = k as u64..=(k * (l + 1)) as u64;
            assert!(
                range.contains(&visits[s]),
                "source {s}: {} visits",
                visits[s]
            );
        }
        // Every delivered token is either a visit or an absorption.
        let absorbed = tallies[target].1.total();
        assert_eq!(
            visits.iter().sum::<u64>() + absorbed,
            sources * k as u64 + delivered
        );
    }

    /// The wire form of the dense layout: the tallies as length-`n` rows.
    fn encode_dense_reference(p: &WalkProgram) -> Vec<u8> {
        encode_rows(p, p.n, p.n)
    }

    /// The dense wire form with the two rows cut or padded to the given
    /// lengths.
    fn encode_rows(p: &WalkProgram, counts_len: usize, deaths_len: usize) -> Vec<u8> {
        let mut w = congest_sim::wire::BitWriter::new();
        p.me.encode_state(&mut w);
        p.target.encode_state(&mut w);
        p.k.encode_state(&mut w);
        p.len_bits.encode_state(&mut w);
        matches!(p.discipline, CongestionDiscipline::Batched).encode_state(&mut w);
        p.draw_seed.encode_state(&mut w);
        let mut tickets: Vec<((NodeId, u32), u32)> = p
            .tickets
            .iter()
            .map(|(&k, &v)| (ticket_state(k), v))
            .collect();
        tickets.sort_unstable();
        tickets.encode_state(&mut w);
        let queue: Vec<(WalkToken, Option<u32>)> =
            p.queue.iter().map(|q| (q.token, q.choice)).collect();
        queue.encode_state(&mut w);
        p.counts
            .snapshot()
            .to_dense(counts_len)
            .encode_state(&mut w);
        p.deaths
            .snapshot()
            .to_dense(deaths_len)
            .encode_state(&mut w);
        p.dead_neighbors.encode_state(&mut w);
        p.started.encode_state(&mut w);
        w.finish()
    }

    fn encode(p: &WalkProgram) -> Vec<u8> {
        let mut w = congest_sim::wire::BitWriter::new();
        p.encode_state(&mut w);
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn mid_walk_images_are_dense_and_round_trip(
            n in 6usize..40,
            graph_seed in 0u64..1000,
            seed in 0u64..1000,
            rounds in 0usize..30,
        ) {
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let g = connected_gnp(n, 0.2, 100, &mut rng).unwrap();
            let target = (seed as usize) % n;
            let len_bits = crate::distributed::messages::len_field_bits(12);
            let mut sim = Simulator::new(&g, SimConfig::default().with_seed(seed), |v| {
                WalkProgram::new(v, n, target, 5, 12, len_bits, CongestionDiscipline::HoldAndResend)
                    .with_draw_seed(seed)
            });
            for _ in 0..rounds {
                if sim.step().unwrap() {
                    break;
                }
            }
            for p in sim.programs() {
                let bytes = encode(p);
                prop_assert_eq!(&bytes, &encode_dense_reference(p));
                let back = WalkProgram::decode_state(&mut BitReader::new(&bytes)).unwrap();
                prop_assert_eq!(back.counts.snapshot(), p.counts.snapshot());
                prop_assert_eq!(back.deaths.snapshot(), p.deaths.snapshot());
                prop_assert_eq!(encode(&back), bytes);
            }
        }
    }

    #[test]
    fn decode_rejects_inconsistent_rows() {
        let p = WalkProgram::new(1, 4, 0, 3, 5, 3, CongestionDiscipline::HoldAndResend);
        let bytes = encode(&p);
        assert!(WalkProgram::decode_state(&mut BitReader::new(&bytes)).is_some());
        // Every truncation fails typed, never by panicking.
        for cut in 0..bytes.len() {
            assert!(WalkProgram::decode_state(&mut BitReader::new(&bytes[..cut])).is_none());
        }
        // Rows of different lengths do not define a source range.
        let mismatched = encode_rows(&p, 4, 3);
        assert!(WalkProgram::decode_state(&mut BitReader::new(&mismatched)).is_none());
        // Ids outside the rows would be tallied where no row holds them.
        let mut bad_me = p.clone();
        bad_me.me = 9;
        let mut bad_target = p.clone();
        bad_target.target = 4;
        let mut bad_token = p.clone();
        bad_token.queue.push(Queued::fresh(WalkToken {
            source: 7,
            remaining: 2,
        }));
        let mut bad_ticket = p.clone();
        bad_ticket.tickets.insert(ticket_key(7, 2), 1);
        for bad in [bad_me, bad_target, bad_token, bad_ticket] {
            assert!(WalkProgram::decode_state(&mut BitReader::new(&encode(&bad))).is_none());
        }
    }
}
