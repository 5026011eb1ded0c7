//! Phase 2 — the paper's **Algorithm 2**: nodes exchange their (degree-
//! scaled) visit counts with their neighbors, one source per round, then
//! each node combines Eqs. 6–8 locally.
//!
//! The paper's Lemma 3 bounds this phase by `O(n)` rounds: each node holds
//! one count per source and each edge carries one count per round. We
//! pipeline by *round index*: in round `r` every node broadcasts its count
//! for source `r − 1`, so the source id never travels — it is implied by
//! the global round number, leaving the entire `O(log n)`-bit budget to
//! the value.
//!
//! Counts are transmitted in fixed-point (`F` fractional bits) because the
//! CONGEST model cannot ship reals; the induced quantization error is
//! `≤ 2^{−F−1}` per count and is measured in experiment E7 (design
//! decision D5).

use congest_sim::{Context, Incoming, NodeProgram, TraceEvent};
use rwbc_graph::NodeId;

use crate::distributed::messages::CountMsg;
use crate::distributed::SourceTally;
use crate::flow_sum::node_net_flow_sorted_strided;

/// Node program for the computing phase.
#[derive(Debug, Clone)]
pub struct CountProgram {
    me: NodeId,
    n: usize,
    /// Own scaled counts `x_me[s] = ξ_me^s / (K · d(me))`, already divided.
    own: Vec<f64>,
    /// Fixed-point image of `own` that actually travels.
    own_scaled: Vec<u64>,
    /// Received neighbor counts, flattened row-major as
    /// `cols[source * degree + slot]`. One lockstep round fills one *row*
    /// (every neighbor's count for the same source), so row-major keeps
    /// the per-round writes on adjacent cache lines; a column layout
    /// strides them `8n` bytes apart, which at `n = 4096` turns every
    /// message into a cache miss.
    cols: Vec<f64>,
    degree: usize,
    value_bits: u8,
    fractional_bits: u8,
    k: usize,
    sent: usize,
    received_rounds: usize,
    /// Messages received per neighbor slot so far.
    received_per_neighbor: Vec<usize>,
    /// When `true`, counts are indexed by their *arrival position* per
    /// neighbor instead of by the global round number. Position indexing is
    /// only sound on a channel with in-order exactly-once delivery — i.e.
    /// behind [`Reliable`](congest_sim::Reliable), where retransmitted
    /// counts arrive rounds late but never out of order. In lockstep mode
    /// (the default) the round number implies the source, and a lost
    /// message degrades to a zero cell counted in [`CountProgram::missing`].
    strict_delivery: bool,
    /// Neighbor-count cells that never arrived (lockstep mode only; the
    /// cells keep their zero default — a graceful undercount).
    missing: u64,
    /// Neighbors declared permanently dead (sorted); resolved to slot
    /// positions lazily in `on_round`, where the neighbor list is known.
    dead_peers: Vec<NodeId>,
    /// Liveness per neighbor slot. A dead slot is excluded from the
    /// strict-delivery completion check (its column stays zero and is
    /// tallied in `missing`), so the phase terminates on the survivors.
    live: Vec<bool>,
    /// The node count the final normalization divides by. Defaults to `n`;
    /// after a partition the driver sets it to the surviving component's
    /// size so estimates stay comparable to an exact solve on the
    /// survivor graph.
    effective_n: usize,
    /// The locally computed betweenness, available once the phase is done.
    betweenness: Option<f64>,
    /// Cached neighbor ids (ascending), filled on first use. The topology
    /// is static, so collecting the iterator once replaces the per-round
    /// `Vec<NodeId>` allocations the slot lookups used to pay.
    neighbor_ids: Vec<NodeId>,
}

impl CountProgram {
    /// Program for node `me` with its phase-1 counts `xi` (`ξ_me^s`),
    /// degree `degree`, and `K = walks_per_node`. Sources absent from `xi`
    /// count zero.
    ///
    /// `value_bits`/`fractional_bits` come from
    /// [`count_field_bits`](crate::distributed::messages::count_field_bits)
    /// and the driver's budget fitting.
    ///
    /// # Panics
    ///
    /// If `xi` holds a source at or past `n`.
    pub fn new(
        me: NodeId,
        n: usize,
        degree: usize,
        xi: &SourceTally,
        walks_per_node: usize,
        value_bits: u8,
        fractional_bits: u8,
    ) -> CountProgram {
        let scale = f64::from(1u32 << fractional_bits);
        // Paper Algorithm 2 line 1: divide by the degree. The 1/K of line 4
        // is folded in here too so "own" estimates T directly. A zero count
        // scales to zero, so only the runs need the division.
        let mut own_scaled = vec![0u64; n];
        for &(s, c) in xi.runs() {
            own_scaled[s] = ((c as f64 / degree.max(1) as f64) * scale).round() as u64;
        }
        CountProgram::with_own_scaled(
            me,
            n,
            degree,
            own_scaled,
            walks_per_node,
            value_bits,
            fractional_bits,
        )
    }

    /// The dense-row constructor the sparse one replaced, kept as the
    /// reference it must match bit for bit.
    #[cfg(test)]
    pub(crate) fn from_dense(
        me: NodeId,
        n: usize,
        degree: usize,
        xi: Vec<u64>,
        walks_per_node: usize,
        value_bits: u8,
        fractional_bits: u8,
    ) -> CountProgram {
        debug_assert_eq!(xi.len(), n);
        let scale = f64::from(1u32 << fractional_bits);
        let own_scaled: Vec<u64> = xi
            .iter()
            .map(|&c| ((c as f64 / degree.max(1) as f64) * scale).round() as u64)
            .collect();
        CountProgram::with_own_scaled(
            me,
            n,
            degree,
            own_scaled,
            walks_per_node,
            value_bits,
            fractional_bits,
        )
    }

    fn with_own_scaled(
        me: NodeId,
        n: usize,
        degree: usize,
        own_scaled: Vec<u64>,
        walks_per_node: usize,
        value_bits: u8,
        fractional_bits: u8,
    ) -> CountProgram {
        let scale = f64::from(1u32 << fractional_bits);
        let own: Vec<f64> = own_scaled
            .iter()
            .map(|&q| q as f64 / scale / walks_per_node as f64)
            .collect();
        CountProgram {
            me,
            n,
            own,
            own_scaled,
            cols: vec![0.0; n * degree],
            degree,
            value_bits,
            fractional_bits,
            k: walks_per_node,
            sent: 0,
            received_rounds: 0,
            received_per_neighbor: vec![0; degree],
            strict_delivery: false,
            missing: 0,
            dead_peers: Vec::new(),
            live: vec![true; degree],
            effective_n: n,
            betweenness: None,
            neighbor_ids: Vec::new(),
        }
    }

    /// Pre-seeds the set of permanently dead neighbors; their columns are
    /// written off immediately instead of being awaited. More deaths may
    /// arrive at runtime via [`NodeProgram::on_neighbor_down`].
    #[must_use]
    pub fn with_dead_neighbors(mut self, mut peers: Vec<NodeId>) -> CountProgram {
        peers.sort_unstable();
        peers.dedup();
        self.dead_peers = peers;
        self
    }

    /// Overrides the node count used by the final normalization (clamped
    /// to ≥ 2); see the `effective_n` field.
    #[must_use]
    pub fn with_effective_n(mut self, n_eff: usize) -> CountProgram {
        self.effective_n = n_eff.max(2);
        self
    }

    /// Switches to strict-delivery (position-indexed) mode; see
    /// [`CountProgram::missing`] for the trade-off. Use when the program
    /// runs behind a reliable-delivery adapter.
    #[must_use]
    pub fn with_strict_delivery(mut self, strict: bool) -> CountProgram {
        self.strict_delivery = strict;
        self
    }

    /// The locally computed RWBC of this node (`None` until the phase
    /// finishes).
    pub fn betweenness(&self) -> Option<f64> {
        self.betweenness
    }

    /// Neighbor-count cells this node never received (always 0 in
    /// strict-delivery mode, where the transport repairs losses).
    pub fn missing(&self) -> u64 {
        self.missing
    }

    fn send_next(&mut self, ctx: &mut Context<'_, CountMsg>) {
        if self.sent < self.n {
            let msg = CountMsg {
                scaled: self.own_scaled[self.sent],
                value_bits: self.value_bits,
            };
            ctx.broadcast(msg);
            self.sent += 1;
        }
    }

    fn all_counts_received(&self) -> bool {
        if self.strict_delivery {
            // Only live slots owe a full column: a dead neighbor's column
            // would otherwise be awaited forever.
            self.sent == self.n
                && self
                    .received_per_neighbor
                    .iter()
                    .zip(&self.live)
                    .all(|(&r, &alive)| !alive || r >= self.n)
        } else {
            self.received_rounds == self.n
        }
    }

    fn finish_if_done(&mut self, ctx: &mut Context<'_, CountMsg>) {
        if self.all_counts_received() && self.betweenness.is_none() {
            let expected = (self.degree * self.n) as u64;
            let received: u64 = self.received_per_neighbor.iter().map(|&r| r as u64).sum();
            self.missing = expected.saturating_sub(received);
            let inner = node_net_flow_sorted_strided(self.me, &self.own, &self.cols, self.degree);
            let nf = self.effective_n as f64;
            self.betweenness = Some((inner + (nf - 1.0)) / (nf * (nf - 1.0) / 2.0));
            if ctx.tracing() {
                // The value doubles as a per-node completion marker: the
                // event's round is when this node finished evaluating.
                ctx.trace(TraceEvent::App {
                    round: ctx.round(),
                    node: self.me,
                    key: "count_missing".to_string(),
                    value: self.missing,
                });
            }
        }
    }
}

// Checkpoint encoding: everything but `neighbor_ids`, a lazily-filled
// topology cache that `on_round` rebuilds on first use after a restore —
// excluding it keeps the bytes of a restored-and-resumed run identical to
// an uninterrupted one.
impl congest_sim::wire::WireState for CountProgram {
    fn encode_state(&self, w: &mut congest_sim::wire::BitWriter) {
        self.me.encode_state(w);
        self.n.encode_state(w);
        self.own.encode_state(w);
        self.own_scaled.encode_state(w);
        self.cols.encode_state(w);
        self.degree.encode_state(w);
        self.value_bits.encode_state(w);
        self.fractional_bits.encode_state(w);
        self.k.encode_state(w);
        self.sent.encode_state(w);
        self.received_rounds.encode_state(w);
        self.received_per_neighbor.encode_state(w);
        self.strict_delivery.encode_state(w);
        self.missing.encode_state(w);
        self.dead_peers.encode_state(w);
        self.live.encode_state(w);
        self.effective_n.encode_state(w);
        self.betweenness.encode_state(w);
    }

    fn decode_state(r: &mut congest_sim::wire::BitReader<'_>) -> Option<CountProgram> {
        Some(CountProgram {
            me: usize::decode_state(r)?,
            n: usize::decode_state(r)?,
            own: Vec::decode_state(r)?,
            own_scaled: Vec::decode_state(r)?,
            cols: Vec::decode_state(r)?,
            degree: usize::decode_state(r)?,
            value_bits: u8::decode_state(r)?,
            fractional_bits: u8::decode_state(r)?,
            k: usize::decode_state(r)?,
            sent: usize::decode_state(r)?,
            received_rounds: usize::decode_state(r)?,
            received_per_neighbor: Vec::decode_state(r)?,
            strict_delivery: bool::decode_state(r)?,
            missing: u64::decode_state(r)?,
            dead_peers: Vec::decode_state(r)?,
            live: Vec::decode_state(r)?,
            effective_n: usize::decode_state(r)?,
            betweenness: Option::decode_state(r)?,
            neighbor_ids: Vec::new(),
        })
    }
}

impl NodeProgram for CountProgram {
    type Msg = CountMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, CountMsg>) {
        self.send_next(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, CountMsg>, inbox: &[Incoming<CountMsg>]) {
        if self.neighbor_ids.len() != ctx.degree() {
            self.neighbor_ids.clear();
            self.neighbor_ids.extend(ctx.neighbors());
        }
        if !self.dead_peers.is_empty() {
            for p in &self.dead_peers {
                if let Ok(slot) = self.neighbor_ids.binary_search(p) {
                    self.live[slot] = false;
                }
            }
        }
        if self.strict_delivery || self.received_rounds < self.n {
            // `* inv_scale` is bit-identical to `/ scale` (both exact:
            // power-of-two scaling), so hoisting it out of the loop trades
            // one of the two per-message divisions for a multiply without
            // perturbing a single result.
            let inv_scale = 1.0 / f64::from(1u32 << self.fractional_bits);
            let k_f = self.k as f64;
            // In a clean lockstep round the inbox is exactly the (sorted)
            // neighbor list, so a cursor resolves every slot in O(1); the
            // binary search only runs when faults thin or reorder arrivals.
            let mut cursor = 0usize;
            for m in inbox {
                let slot = if cursor < self.degree && self.neighbor_ids[cursor] == m.from {
                    cursor
                } else {
                    self.neighbor_ids
                        .binary_search(&m.from)
                        .expect("messages only arrive from neighbors")
                };
                cursor = slot + 1;
                // Lockstep: the inbox of round r carries the neighbors'
                // counts for source r − 1 (the source id travels for free
                // in the round number). Strict delivery: an in-order
                // exactly-once transport decouples arrival rounds from
                // send rounds, so the arrival *position* implies the
                // source instead. Under raw fault injection a message may
                // be missing; its cell keeps the zero default — a graceful
                // undercount, tallied in `missing` — rather than a
                // protocol failure.
                let source = if self.strict_delivery {
                    self.received_per_neighbor[slot]
                } else {
                    self.received_rounds
                };
                if source < self.n {
                    self.cols[source * self.degree + slot] = m.msg.scaled as f64 * inv_scale / k_f;
                    self.received_per_neighbor[slot] += 1;
                }
            }
            if self.received_rounds < self.n {
                self.received_rounds += 1;
            }
        }
        self.send_next(ctx);
        self.finish_if_done(ctx);
    }

    fn is_terminated(&self) -> bool {
        self.betweenness.is_some()
    }

    fn on_neighbor_down(&mut self, peer: rwbc_graph::NodeId) {
        if let Err(pos) = self.dead_peers.binary_search(&peer) {
            self.dead_peers.insert(pos, peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{SimConfig, Simulator};
    use rwbc_graph::generators::{cycle, path};

    /// Runs phase 2 alone with synthetic integer counts and returns the
    /// per-node betweenness.
    fn run_counts(
        g: &rwbc_graph::Graph,
        counts: &[Vec<u64>],
        k: usize,
        f: u8,
    ) -> (Vec<f64>, congest_sim::RunStats) {
        let n = g.node_count();
        let max = counts.iter().flatten().copied().max().unwrap_or(1);
        let value_bits = (congest_sim::bits_for_count(max) + f as usize) as u8;
        let mut sim = Simulator::new(g, SimConfig::default().with_bandwidth_coeff(16), |v| {
            CountProgram::new(
                v,
                n,
                g.degree(v),
                &SourceTally::from_dense(&counts[v]),
                k,
                value_bits,
                f,
            )
        });
        let stats = sim.run().unwrap();
        let b = (0..n)
            .map(|v| sim.program(v).betweenness().expect("phase finished"))
            .collect();
        (b, stats)
    }

    #[test]
    fn phase2_takes_n_plus_one_rounds() {
        let g = cycle(8).unwrap();
        let counts = vec![vec![1u64; 8]; 8];
        let (_, stats) = run_counts(&g, &counts, 1, 8);
        // Pipelined: the source-s counts sent in round s arrive in round
        // s + 1, so the phase completes in exactly n rounds (Lemma 3).
        assert_eq!(stats.rounds, 8);
    }

    #[test]
    fn combine_matches_centralized_formula() {
        // Hand-feed exact potentials (times K * d(v), inverted by the
        // program) and compare against combine_potentials.
        let g = path(4).unwrap();
        let n = 4;
        let k = 2;
        // Synthetic counts: xi[v][s] = (v + 2 s + 1), scaled by nothing.
        let counts: Vec<Vec<u64>> = (0..n)
            .map(|v| (0..n).map(|s| (v + 2 * s + 1) as u64).collect())
            .collect();
        let (b, _) = run_counts(&g, &counts, k, 16);

        // Centralized reference with the same quantization (F = 16 is fine
        // to treat as exact for integer inputs of this size).
        let x: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                (0..n)
                    .map(|s| counts[v][s] as f64 / g.degree(v) as f64 / k as f64)
                    .collect()
            })
            .collect();
        let reference =
            crate::flow_sum::combine_potentials(&g, &x, crate::flow_sum::PairSumMethod::Sorted);
        for v in 0..n {
            assert!(
                (b[v] - reference[v]).abs() < 1e-3,
                "node {v}: {} vs {}",
                b[v],
                reference[v]
            );
        }
    }

    #[test]
    fn quantization_error_shrinks_with_fractional_bits() {
        let g = cycle(5).unwrap();
        let counts: Vec<Vec<u64>> = (0..5)
            .map(|v| (0..5).map(|s| ((7 * v + 3 * s) % 11) as u64).collect())
            .collect();
        let (coarse, _) = run_counts(&g, &counts, 3, 2);
        let (fine, _) = run_counts(&g, &counts, 3, 16);
        let x: Vec<Vec<f64>> = (0..5)
            .map(|v| {
                (0..5)
                    .map(|s| counts[v][s] as f64 / g.degree(v) as f64 / 3.0)
                    .collect()
            })
            .collect();
        let reference =
            crate::flow_sum::combine_potentials(&g, &x, crate::flow_sum::PairSumMethod::Sorted);
        let err = |b: &[f64]| -> f64 {
            b.iter()
                .zip(&reference)
                .map(|(a, r)| (a - r).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&fine) <= err(&coarse));
        assert!(err(&fine) < 1e-3);
    }
}
