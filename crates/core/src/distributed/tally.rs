//! Sparse per-source walk tallies.
//!
//! In Algorithm 1 node `v` tallies `ξ_v^s` only for the sources `s` whose
//! walks reach it — typically a few hundred per node where `n` is in the
//! thousands. A
//! [`SourceTally`] stores exactly those: `(source, count)` runs sorted by
//! source, with absent sources counting zero. Memory is one run per
//! distinct source seen, never a length-`n` row.
//!
//! While walks are in flight a node builds its tallies in a [`TallyLog`]:
//! each visit is appended to a log, and the log is folded into the runs
//! once it outgrows them. Appending touches one cache line where a sorted
//! insert would chase a binary search through cold memory on every visit,
//! and the log never holds more entries than there are runs (plus a small
//! constant), so memory stays proportional to the distinct sources.

use congest_sim::wire::{BitReader, BitWriter};
use rwbc_graph::NodeId;

/// A sparse per-source tally: `(source, count)` runs sorted by source,
/// every count non-zero. Absent sources count zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceTally {
    runs: Vec<(NodeId, u64)>,
}

impl SourceTally {
    /// An empty tally.
    pub fn new() -> SourceTally {
        SourceTally::default()
    }

    /// The tally of a dense row (`row[s]` is source `s`'s count).
    #[cfg(test)]
    pub(crate) fn from_dense(row: &[u64]) -> SourceTally {
        SourceTally {
            runs: row
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c != 0)
                .map(|(s, &c)| (s, c))
                .collect(),
        }
    }

    /// The dense row of length `n` (sources at or past `n` are dropped).
    pub fn to_dense(&self, n: usize) -> Vec<u64> {
        let mut row = vec![0u64; n];
        for &(s, c) in self.runs.iter().take_while(|&&(s, _)| s < n) {
            row[s] = c;
        }
        row
    }

    /// Adds `by` to `source`'s count: a binary search, then an increment
    /// or a sorted insert.
    #[inline]
    pub fn add(&mut self, source: NodeId, by: u64) {
        if by == 0 {
            return;
        }
        match self.runs.binary_search_by_key(&source, |&(s, _)| s) {
            Ok(i) => self.runs[i].1 += by,
            Err(i) => self.runs.insert(i, (source, by)),
        }
    }

    /// `source`'s count (0 when absent).
    pub fn get(&self, source: NodeId) -> u64 {
        self.runs
            .binary_search_by_key(&source, |&(s, _)| s)
            .map_or(0, |i| self.runs[i].1)
    }

    /// The `(source, count)` runs, ascending by source.
    pub fn runs(&self) -> &[(NodeId, u64)] {
        &self.runs
    }

    /// Number of sources with a non-zero count.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether every source counts zero.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.runs.iter().map(|&(_, c)| c).sum()
    }

    /// Resets every count to zero.
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// Adds every count of `other` to this tally.
    pub fn merge_add(&mut self, other: SourceTally) {
        if self.runs.is_empty() {
            *self = other;
        } else {
            let len = other.runs.len();
            self.merge_in_place(other.runs.into_iter(), len);
        }
    }

    /// Adds the `len` runs of `other`, sorted and distinct by source. The
    /// merge walks both lists back to front and writes in place, so it
    /// allocates only when the runs outgrow their capacity.
    fn merge_in_place(
        &mut self,
        other: impl DoubleEndedIterator<Item = (NodeId, u64)>,
        len: usize,
    ) {
        let runs = &mut self.runs;
        let old = runs.len();
        runs.resize(old + len, (0, 0));
        // `runs[..i]` are the unread old runs and `runs[w..]` the merged
        // ones; `w - i` is the number of added runs left plus the merges
        // so far, so writes never overtake reads.
        let (mut i, mut w) = (old, runs.len());
        let mut added = other.rev().peekable();
        while let Some(&(s, c)) = added.peek() {
            w -= 1;
            runs[w] = match i.checked_sub(1).map(|j| runs[j]) {
                Some((r, rc)) if r > s => {
                    i -= 1;
                    (r, rc)
                }
                Some((r, rc)) if r == s => {
                    i -= 1;
                    added.next();
                    (s, rc + c)
                }
                _ => {
                    added.next();
                    (s, c)
                }
            };
        }
        // Each merge left one slot unused between the two halves.
        runs.drain(i..w);
    }

    /// Writes the tally in the wire form of a dense `Vec<u64>` of length
    /// `n` (the 64-bit length, then every count, zeros included), without
    /// building the row.
    pub fn encode_dense(&self, n: usize, w: &mut BitWriter) {
        w.write_bits(n as u64, 64);
        let mut next = 0;
        for &(s, c) in self.runs.iter().take_while(|&&(s, _)| s < n) {
            for _ in next..s {
                w.write_bits(0, 64);
            }
            w.write_bits(c, 64);
            next = s + 1;
        }
        for _ in next..n {
            w.write_bits(0, 64);
        }
    }

    /// Reads back what [`SourceTally::encode_dense`] (or a dense
    /// `Vec<u64>`) wrote, keeping only the non-zero counts. Returns the
    /// row length and the tally; `None` on truncated input.
    pub fn decode_dense(r: &mut BitReader<'_>) -> Option<(usize, SourceTally)> {
        let n = usize::try_from(r.read_bits(64)?).ok()?;
        // Same guard as `Vec::decode_state`: a corrupt length must not
        // claim more elements than there are bits left.
        if n > r.remaining_bits() {
            return None;
        }
        let mut runs = Vec::new();
        for s in 0..n {
            let c = r.read_bits(64)?;
            if c != 0 {
                runs.push((s, c));
            }
        }
        Some((n, SourceTally { runs }))
    }
}

/// Log entries a [`TallyLog`] always accepts before folding, so small
/// tallies do not fold on every visit.
const MIN_LOG: usize = 64;

/// A [`SourceTally`] under construction: unit increments go to an
/// append-only log that is folded into the runs whenever it holds at least
/// as many entries as the runs do (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct TallyLog {
    tally: SourceTally,
    /// Sources of increments not yet folded into `tally`, in arrival order.
    log: Vec<NodeId>,
}

impl TallyLog {
    /// An empty log.
    pub fn new() -> TallyLog {
        TallyLog::default()
    }

    /// Adds one to `source`'s count.
    #[inline]
    pub fn bump(&mut self, source: NodeId) {
        self.log.push(source);
        if self.log.len() >= self.tally.len().max(MIN_LOG) {
            self.fold();
        }
    }

    /// Adds `by` to `source`'s count directly in the runs.
    pub fn add(&mut self, source: NodeId, by: u64) {
        self.tally.add(source, by);
    }

    /// Folds the log into the runs: sort it, then merge its groups of
    /// equal sources in as runs.
    fn fold(&mut self) {
        if self.log.is_empty() {
            return;
        }
        self.log.sort_unstable();
        let groups = self.log.chunk_by(|a, b| a == b);
        let len = groups.clone().count();
        self.tally
            .merge_in_place(groups.map(|g| (g[0], g.len() as u64)), len);
        self.log.clear();
    }

    /// The finished tally.
    pub fn into_tally(mut self) -> SourceTally {
        self.fold();
        self.tally
    }

    /// A copy of the tally so far.
    pub fn snapshot(&self) -> SourceTally {
        self.clone().into_tally()
    }
}

impl From<SourceTally> for TallyLog {
    fn from(tally: SourceTally) -> TallyLog {
        TallyLog {
            tally,
            log: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::wire::WireState;
    use proptest::collection;
    use proptest::prelude::*;

    /// Rows that are mostly zeros, with small and full-width counts.
    fn dense_strategy() -> impl Strategy<Value = Vec<u64>> {
        collection::vec((0u8..5, 1u64..5, any::<u64>()), 0..40).prop_map(|cells| {
            cells
                .into_iter()
                .map(|(pick, small, big)| match pick {
                    0..=2 => 0,
                    3 => small,
                    _ => big,
                })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn adds_match_a_dense_row(ops in collection::vec((0usize..32, 0u64..4), 0..200)) {
            let mut dense = vec![0u64; 32];
            let mut tally = SourceTally::new();
            for &(s, by) in &ops {
                dense[s] += by;
                tally.add(s, by);
            }
            prop_assert_eq!(tally.to_dense(32), dense.clone());
            prop_assert_eq!(&tally, &SourceTally::from_dense(&dense));
            prop_assert!(tally.runs().windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(tally.runs().iter().all(|&(_, c)| c > 0));
            prop_assert_eq!(tally.total(), dense.iter().sum::<u64>());
            for (s, &c) in dense.iter().enumerate() {
                prop_assert_eq!(tally.get(s), c);
            }
        }

        #[test]
        fn logged_bumps_match_direct_adds(sources in collection::vec(0usize..300, 0..1000)) {
            let mut log = TallyLog::new();
            let mut direct = SourceTally::new();
            for (i, &s) in sources.iter().enumerate() {
                log.bump(s);
                direct.add(s, 1);
                // The log stays within its bound at every step.
                prop_assert!(log.log.len() < log.tally.len().max(MIN_LOG), "step {}", i);
            }
            prop_assert_eq!(log.snapshot(), direct.clone());
            prop_assert_eq!(log.into_tally(), direct);
        }

        #[test]
        fn merge_add_is_elementwise_sum(
            a in collection::vec(0u64..4, 24),
            b in collection::vec(0u64..4, 24),
        ) {
            let mut merged = SourceTally::from_dense(&a);
            merged.merge_add(SourceTally::from_dense(&b));
            let sum: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            prop_assert_eq!(merged, SourceTally::from_dense(&sum));
        }

        #[test]
        fn dense_wire_form_is_the_vec_form(row in dense_strategy()) {
            let tally = SourceTally::from_dense(&row);
            let mut sparse = BitWriter::new();
            tally.encode_dense(row.len(), &mut sparse);
            let mut dense = BitWriter::new();
            row.encode_state(&mut dense);
            let bytes = sparse.finish();
            prop_assert_eq!(&bytes, &dense.finish());
            let (n, back) = SourceTally::decode_dense(&mut BitReader::new(&bytes)).unwrap();
            prop_assert_eq!(n, row.len());
            prop_assert_eq!(back, tally);
        }
    }

    #[test]
    fn decode_rejects_truncated_and_oversized_rows() {
        let mut w = BitWriter::new();
        vec![1u64, 0, 7].encode_state(&mut w);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            assert!(SourceTally::decode_dense(&mut BitReader::new(&bytes[..cut])).is_none());
        }
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        let bytes = w.finish();
        assert!(SourceTally::decode_dense(&mut BitReader::new(&bytes)).is_none());
    }
}

/// The count phases built from sparse runs against the dense-row
/// constructors they replaced.
#[cfg(test)]
mod handoff_tests {
    use super::*;
    use std::sync::Arc;

    use crate::distributed::messages::{count_field_bits, len_field_bits};
    use crate::distributed::sketch::sketch_field_bits;
    use crate::distributed::{CongestionDiscipline, CountProgram, SketchCountProgram, WalkProgram};
    use congest_sim::wire::WireState;
    use congest_sim::{NodeProgram, SimConfig, Simulator};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rwbc_graph::generators::connected_gnp;
    use rwbc_graph::Graph;

    const K: usize = 6;
    const L: usize = 16;

    /// One walk phase on a random graph: the graph and every node's runs.
    fn walk_tallies(n: usize, graph_seed: u64, seed: u64) -> (Graph, Vec<SourceTally>) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let g = connected_gnp(n, 0.25, 100, &mut rng).unwrap();
        let target = seed as usize % n;
        let mut sim = Simulator::new(&g, SimConfig::default().with_seed(seed), |v| {
            WalkProgram::new(
                v,
                n,
                target,
                K,
                L,
                len_field_bits(L),
                CongestionDiscipline::HoldAndResend,
            )
            .with_draw_seed(seed)
        });
        sim.run().unwrap();
        let tallies = sim
            .into_programs()
            .into_iter()
            .map(|p| p.into_tallies().0)
            .collect();
        (g, tallies)
    }

    fn encode<P: WireState>(p: &P) -> Vec<u8> {
        let mut w = BitWriter::new();
        p.encode_state(&mut w);
        w.finish()
    }

    /// Runs a count phase to completion and returns the engine image,
    /// which holds every node's result and the run's traffic.
    fn finish<P>(g: &Graph, programs: Vec<P>) -> Vec<u8>
    where
        P: NodeProgram + Send + WireState,
        P::Msg: congest_sim::Message + WireState,
    {
        let mut programs = programs.into_iter();
        let cfg = SimConfig::default().with_bandwidth_coeff(16);
        let mut sim = Simulator::new(g, cfg, |_| programs.next().unwrap());
        sim.run().unwrap();
        sim.checkpoint()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn count_programs_from_runs_equal_the_dense_reference(
            n in 4usize..40,
            graph_seed in 0u64..1000,
            seed in 0u64..1000,
            f in 1u8..17,
            precision in 2u8..7,
        ) {
            let (g, tallies) = walk_tallies(n, graph_seed, seed);
            let vb = count_field_bits(K, L, f);
            let sb = sketch_field_bits(K, L, n, f);
            let weights = SketchCountProgram::combine_weights(n, precision);
            let (mut exact, mut exact_ref, mut sketch, mut sketch_ref) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            for (v, runs) in tallies.iter().enumerate() {
                let (d, dense) = (g.degree(v), runs.to_dense(n));
                let e = CountProgram::new(v, n, d, runs, K, vb, f);
                let e_ref = CountProgram::from_dense(v, n, d, dense.clone(), K, vb, f);
                prop_assert_eq!(encode(&e), encode(&e_ref));
                let mut s = SketchCountProgram::new(v, n, d, runs, K, precision, sb, f);
                s.set_combine_weights(Arc::clone(&weights));
                let s_ref = SketchCountProgram::from_dense(v, n, d, &dense, K, precision, sb, f);
                prop_assert_eq!(encode(&s), encode(&s_ref));
                exact.push(e);
                exact_ref.push(e_ref);
                sketch.push(s);
                sketch_ref.push(s_ref);
            }
            // Shared combine weights and the per-node ones agree bit for bit.
            prop_assert_eq!(finish(&g, exact), finish(&g, exact_ref));
            prop_assert_eq!(finish(&g, sketch), finish(&g, sketch_ref));
        }
    }
}
