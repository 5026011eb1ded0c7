//! Shared pair-summation machinery for net-flow betweenness.
//!
//! Every RWBC computation in this crate — exact, Monte-Carlo, and the
//! distributed algorithm's local combine step (paper Algorithm 2 line 3) —
//! ends with the same reduction: given per-node "potential" columns
//! `x[v][s] ≈ T_vs` (expected degree-scaled visits of an absorbing walk from
//! `s` at `v`), node `i`'s throughput summed over all source/target pairs is
//!
//! ```text
//!   Σ_{s<t, i∉{s,t}}  I_i^{(st)}
//!     = (1/2) Σ_{j ∈ N(i)} Σ_{s<t, i∉{s,t}} |z_s − z_t|,   z_k = x[i][k] − x[j][k]
//! ```
//!
//! (paper Eq. 6). The naive pair loop is `Θ(n²)` per edge; sorting `z` turns
//! the inner double sum into `Σ_k (2k − n + 1) z_(k)` — `O(n log n)` per
//! edge (the Brandes–Fleischer trick). Excluded pairs (those with
//! `i ∈ {s, t}`) are handled by subtracting `Σ_t |z_i − z_t|`, computable
//! from the same sorted array with prefix sums.
//!
//! Both the direct and the sorted reductions are implemented and
//! cross-checked by tests; callers choose via [`PairSumMethod`].
//!
//! The distributed combine ([`node_net_flow_sorted_strided`],
//! [`node_net_flow_weighted_strided`]) runs once per node over every
//! neighbor slot, so it sorts with reusable [`CombineScratch`] buffers
//! and integer keys instead of a fresh comparison-sorted column per slot.
//! The keys reproduce the stable `partial_cmp` order exactly (see
//! [`CombineScratch::sort_kept`]), so each sum adds the same terms in the
//! same order and the result is bit-identical.

use rwbc_graph::Graph;

/// Which pair-summation algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PairSumMethod {
    /// `O(n log n)` per edge via sorting (Brandes–Fleischer).
    #[default]
    Sorted,
    /// `Θ(n²)` per edge, literally Eq. 6. Kept as the obviously-correct
    /// oracle and as the ablation baseline (bench `ablation_solver`).
    Direct,
}

/// A sorted view of a difference column with prefix sums, supporting the two
/// queries the reduction needs.
#[derive(Debug)]
pub(crate) struct SortedColumn {
    sorted: Vec<f64>,
    /// `prefix[k] = Σ_{j<k} sorted[j]`.
    prefix: Vec<f64>,
}

impl SortedColumn {
    pub(crate) fn new(z: &[f64]) -> SortedColumn {
        let mut sorted = z.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("potentials must not be NaN"));
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        for &v in &sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        SortedColumn { sorted, prefix }
    }

    /// `Σ_{s<t} |z_s − z_t|` over all unordered pairs.
    pub(crate) fn pair_sum(&self) -> f64 {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(k, &v)| (2.0 * k as f64 - n + 1.0) * v)
            .sum()
    }

    /// `Σ_t |c − z_t|` over all entries.
    pub(crate) fn abs_sum_around(&self, c: f64) -> f64 {
        // Number of entries <= c via binary search on the sorted array.
        let k = self.sorted.partition_point(|&v| v <= c);
        let below = c * k as f64 - self.prefix[k];
        let total = *self.prefix.last().unwrap();
        let above = (total - self.prefix[k]) - c * (self.sorted.len() - k) as f64;
        below + above
    }
}

/// Net-flow sum of node `me` over pairs excluding `me`, given its own
/// potential column and each neighbor's column (sorted method).
pub(crate) fn node_net_flow_sorted<'a>(
    me: usize,
    own: &[f64],
    neighbor_cols: impl Iterator<Item = &'a [f64]>,
) -> f64 {
    let mut acc = 0.0;
    for nb in neighbor_cols {
        debug_assert_eq!(own.len(), nb.len());
        let z: Vec<f64> = own.iter().zip(nb).map(|(a, b)| a - b).collect();
        let col = SortedColumn::new(&z);
        // All pairs, minus the pairs that involve `me`.
        acc += col.pair_sum() - col.abs_sum_around(z[me]);
    }
    acc / 2.0
}

/// Order-preserving integer image of a non-NaN `f64`: `a < b` exactly
/// when `key(a) < key(b)`. −0.0 maps to +0.0's image, so two values get
/// equal keys exactly when `partial_cmp` calls them equal.
///
/// Branch-free: the potentials' signs are data, so a branch on them would
/// be mispredicted about half the time.
fn order_bits(v: f64) -> u64 {
    // `-0.0 + 0.0 == +0.0`; every other value is unchanged.
    let bits = (v + 0.0).to_bits();
    // Negative: flip every bit; non-negative: set the sign bit.
    bits ^ ((bits as i64 >> 63) as u64 | 1 << 63)
}

/// Reusable buffers of the distributed combine, one set per node: every
/// neighbor slot's reduction reuses them, so after the first slot the
/// combine allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct CombineScratch {
    /// The node's own column (sketch combine: its bucket averages).
    own: Vec<f64>,
    /// The current slot's difference column `z`.
    z: Vec<f64>,
    /// `order_bits(z[i])` for every entry.
    bits: Vec<u64>,
    /// After [`CombineScratch::sort_kept`]: the kept entries in sorted
    /// order, each as its truncated key with the entry index in the low
    /// bits.
    keys: Vec<u64>,
    /// The sorted values (exact combine) or `(value, weight)` pairs
    /// (sketch combine).
    values: Vec<f64>,
    pairs: Vec<(f64, f64)>,
    /// `prefix[k]`: the running sum of the first `k` sorted values, or of
    /// their weights.
    prefix: Vec<f64>,
    /// `prefix_wv[k] = Σ_{j<k} weight_j · value_j` (sketch combine).
    prefix_wv: Vec<f64>,
}

impl CombineScratch {
    /// Sorts the entries `i` of `self.z` with `keep(i)` into `self.keys`
    /// in exactly the order a stable `partial_cmp` sort gives them: by
    /// value, and equal values (±0.0 included) in index order. Returns
    /// the mask that extracts an entry index from a key.
    ///
    /// Each key is `order_bits(z[i])` with its low bits replaced by `i`,
    /// so one `sort_unstable` of plain `u64`s orders the entries by value
    /// and breaks ties by index. Distinct values that agree in all but
    /// those low bits (rounding siblings of one another, common in real
    /// columns) come out in index order; a final pass finds each such
    /// inversion with one comparison per entry and moves the entry back
    /// by insertion on the full `(order_bits, index)` key. The pass is
    /// linear unless many distinct values agree to within a relative
    /// 2^-40 or so.
    ///
    /// # Panics
    ///
    /// Panics with "potentials must not be NaN" if a kept entry is NaN
    /// and at least two entries are kept — exactly when the comparison
    /// sort would have compared the NaN.
    fn sort_kept(&mut self, keep: impl Fn(usize) -> bool) -> u64 {
        let index_bits = usize::BITS - self.z.len().saturating_sub(1).leading_zeros();
        let mask = (1u64 << index_bits) - 1;
        self.bits.clear();
        self.keys.clear();
        let mut nan = false;
        for (i, &v) in self.z.iter().enumerate() {
            let bits = order_bits(v);
            self.bits.push(bits);
            if keep(i) {
                nan |= v.is_nan();
                self.keys.push(bits & !mask | i as u64);
            }
        }
        assert!(!nan || self.keys.len() < 2, "potentials must not be NaN");
        self.keys.sort_unstable();
        let bits = &self.bits;
        let full = |key: u64| (bits[(key & mask) as usize], key & mask);
        let keys = &mut self.keys;
        let Some(&first) = keys.first() else {
            return mask;
        };
        // `prev`: the largest value bits of the fixed prefix. Equal bits
        // mean equal values, already in index order.
        let mut prev = full(first).0;
        for i in 1..keys.len() {
            let key = keys[i];
            let (value, index) = full(key);
            if prev <= value {
                prev = value;
                continue;
            }
            let mut j = i;
            while j > 0 && full(keys[j - 1]) > (value, index) {
                keys[j] = keys[j - 1];
                j -= 1;
            }
            keys[j] = key;
        }
        mask
    }

    /// [`SortedColumn`]'s `pair_sum() − abs_sum_around(z[me])` for the
    /// current `z`, with the same arithmetic in the same order.
    fn sorted_flow(&mut self, me: usize) -> f64 {
        let mask = self.sort_kept(|_| true);
        let z = &self.z;
        self.values.clear();
        self.prefix.clear();
        self.prefix.push(0.0);
        let mut sum = 0.0;
        for &key in &self.keys {
            let v = z[(key & mask) as usize];
            sum += v;
            self.values.push(v);
            self.prefix.push(sum);
        }
        let sorted = &self.values;
        let prefix = &self.prefix;
        let n = sorted.len() as f64;
        let pair_sum: f64 = sorted
            .iter()
            .enumerate()
            .map(|(k, &v)| (2.0 * k as f64 - n + 1.0) * v)
            .sum();
        let c = z[me];
        let k = sorted.partition_point(|&v| v <= c);
        let below = c * k as f64 - prefix[k];
        let total = *prefix.last().unwrap();
        let above = (total - prefix[k]) - c * (sorted.len() - k) as f64;
        pair_sum - (below + above)
    }

    /// [`WeightedColumn`]'s `pair_sum() − abs_sum_around(z[me_bucket])`
    /// for the current `z` and `weights`, with the same arithmetic in
    /// the same order; zero-weight entries are skipped as there.
    fn weighted_flow(&mut self, me_bucket: usize, weights: &[f64]) -> f64 {
        let mask = self.sort_kept(|b| weights[b] > 0.0);
        let z = &self.z;
        self.pairs.clear();
        self.prefix.clear();
        self.prefix_wv.clear();
        self.prefix.push(0.0);
        self.prefix_wv.push(0.0);
        let (mut sum_w, mut sum_wv) = (0.0, 0.0);
        for &key in &self.keys {
            let b = (key & mask) as usize;
            let (v, w) = (z[b], weights[b]);
            sum_w += w;
            sum_wv += w * v;
            self.pairs.push((v, w));
            self.prefix.push(sum_w);
            self.prefix_wv.push(sum_wv);
        }
        let sorted = &self.pairs;
        let prefix_w = &self.prefix;
        let prefix_wv = &self.prefix_wv;
        let total_w = *prefix_w.last().unwrap();
        let pair_sum: f64 = sorted
            .iter()
            .enumerate()
            .map(|(k, &(v, w))| v * w * (2.0 * prefix_w[k] + w - total_w))
            .sum();
        let c = z[me_bucket];
        let k = sorted.partition_point(|&(v, _)| v <= c);
        let below = c * prefix_w[k] - prefix_wv[k];
        let total_wv = *prefix_wv.last().unwrap();
        let above = (total_wv - prefix_wv[k]) - c * (total_w - prefix_w[k]);
        pair_sum - (below + above)
    }
}

/// [`node_net_flow_sorted`] over columns stored row-major: neighbor
/// `slot`'s column lives at `flat[s * deg + slot]` for `s = 0..n`. Same
/// arithmetic in the same order — results are bit-identical; only the
/// storage walk and the sort keys differ (see [`CombineScratch`]).
pub(crate) fn node_net_flow_sorted_strided(
    me: usize,
    own: &[f64],
    flat: &[f64],
    deg: usize,
) -> f64 {
    debug_assert_eq!(flat.len(), own.len() * deg);
    let mut scratch = CombineScratch::default();
    let mut acc = 0.0;
    for slot in 0..deg {
        scratch.z.clear();
        scratch.z.extend(
            own.iter()
                .enumerate()
                .map(|(s, o)| o - flat[s * deg + slot]),
        );
        acc += scratch.sorted_flow(me);
    }
    acc / 2.0
}

/// The per-slot allocating form of [`node_net_flow_sorted_strided`],
/// kept as the reference it must match bit for bit.
#[cfg(test)]
pub(crate) fn node_net_flow_sorted_strided_reference(
    me: usize,
    own: &[f64],
    flat: &[f64],
    deg: usize,
) -> f64 {
    debug_assert_eq!(flat.len(), own.len() * deg);
    let mut acc = 0.0;
    let mut z = vec![0.0; own.len()];
    for slot in 0..deg {
        for (s, (zs, o)) in z.iter_mut().zip(own).enumerate() {
            *zs = o - flat[s * deg + slot];
        }
        let col = SortedColumn::new(&z);
        acc += col.pair_sum() - col.abs_sum_around(z[me]);
    }
    acc / 2.0
}

/// A weighted sorted column: entry `k` stands for `weight[k]` identical
/// copies of `value[k]`. This is the sketch-mode combine primitive — a
/// bucket of `c_b` sources collapses to one entry of weight `c_b`, and
/// the pair sum over the expanded multiset is recovered exactly from the
/// weighted prefix sums, in `O(B log B)` instead of `O(n log n)`.
///
/// The sketch combine computes the same sums in [`CombineScratch`]; this
/// allocating form is kept as its reference.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct WeightedColumn {
    /// `(value, weight)` sorted by value; zero-weight entries dropped.
    sorted: Vec<(f64, f64)>,
    /// `prefix_w[k] = Σ_{j<k} weight_j`.
    prefix_w: Vec<f64>,
    /// `prefix_wv[k] = Σ_{j<k} weight_j · value_j`.
    prefix_wv: Vec<f64>,
}

#[cfg(test)]
impl WeightedColumn {
    pub(crate) fn new(z: &[f64], weights: &[f64]) -> WeightedColumn {
        debug_assert_eq!(z.len(), weights.len());
        let mut sorted: Vec<(f64, f64)> = z
            .iter()
            .zip(weights)
            .filter(|(_, &w)| w > 0.0)
            .map(|(&v, &w)| (v, w))
            .collect();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("potentials must not be NaN"));
        let mut prefix_w = Vec::with_capacity(sorted.len() + 1);
        let mut prefix_wv = Vec::with_capacity(sorted.len() + 1);
        prefix_w.push(0.0);
        prefix_wv.push(0.0);
        for &(v, w) in &sorted {
            prefix_w.push(prefix_w.last().unwrap() + w);
            prefix_wv.push(prefix_wv.last().unwrap() + w * v);
        }
        WeightedColumn {
            sorted,
            prefix_w,
            prefix_wv,
        }
    }

    /// `Σ_{s<t} |z_s − z_t|` over all unordered pairs of the *expanded*
    /// multiset. An entry of weight `w` at cumulative position `P`
    /// occupies expanded ranks `P..P+w`, and summing the sorted-rank
    /// identity `(2k − W + 1)·v` over that run gives `v·w·(2P + w − W)`.
    pub(crate) fn pair_sum(&self) -> f64 {
        let total = *self.prefix_w.last().unwrap();
        self.sorted
            .iter()
            .enumerate()
            .map(|(k, &(v, w))| v * w * (2.0 * self.prefix_w[k] + w - total))
            .sum()
    }

    /// `Σ_t weight_t · |c − z_t|` over all entries.
    pub(crate) fn abs_sum_around(&self, c: f64) -> f64 {
        let k = self.sorted.partition_point(|&(v, _)| v <= c);
        let below = c * self.prefix_w[k] - self.prefix_wv[k];
        let total_w = *self.prefix_w.last().unwrap();
        let total_wv = *self.prefix_wv.last().unwrap();
        let above = (total_wv - self.prefix_wv[k]) - c * (total_w - self.prefix_w[k]);
        below + above
    }
}

/// Sketch-mode analogue of [`node_net_flow_sorted_strided`]: columns are
/// bucket averages (`B` entries) and each bucket carries its preimage
/// weight. The columns arrive as the fixed-point bucket sums node `me`
/// holds — its own in `own`, neighbor `slot`'s at `cols[b * deg + slot]`
/// — and `avg(sum, weights[b])` turns one into bucket `b`'s average; they
/// are read in place, with no floating-point copy. `me_bucket` is the
/// bucket node `me` hashes into; its average stands in for `z_me` in the
/// excluded-pair correction.
pub(crate) fn node_net_flow_weighted_strided(
    me_bucket: usize,
    own: &[u64],
    cols: &[u64],
    weights: &[f64],
    avg: impl Fn(u64, f64) -> f64,
) -> f64 {
    debug_assert_eq!(weights.len(), own.len());
    debug_assert_eq!(cols.len() % own.len().max(1), 0);
    let deg = cols.len() / own.len().max(1);
    let mut scratch = CombineScratch::default();
    scratch
        .own
        .extend(own.iter().zip(weights).map(|(&s, &w)| avg(s, w)));
    let mut acc = 0.0;
    for slot in 0..deg {
        scratch.z.clear();
        scratch.z.extend(
            scratch
                .own
                .iter()
                .zip(weights)
                .enumerate()
                .map(|(b, (o, &w))| o - avg(cols[b * deg + slot], w)),
        );
        acc += scratch.weighted_flow(me_bucket, weights);
    }
    acc / 2.0
}

/// The per-slot allocating form of [`node_net_flow_weighted_strided`],
/// over the floating-point copies it used to take (`own[b]`, and
/// `flat[b * deg + slot]`), kept as the reference it must match bit for
/// bit.
#[cfg(test)]
pub(crate) fn node_net_flow_weighted_strided_reference(
    me_bucket: usize,
    own: &[f64],
    flat: &[f64],
    deg: usize,
    weights: &[f64],
) -> f64 {
    debug_assert_eq!(flat.len(), own.len() * deg);
    debug_assert_eq!(weights.len(), own.len());
    let mut acc = 0.0;
    let mut z = vec![0.0; own.len()];
    for slot in 0..deg {
        for (b, (zb, o)) in z.iter_mut().zip(own).enumerate() {
            *zb = o - flat[b * deg + slot];
        }
        let col = WeightedColumn::new(&z, weights);
        acc += col.pair_sum() - col.abs_sum_around(z[me_bucket]);
    }
    acc / 2.0
}

/// Net-flow sum of node `me` over pairs excluding `me` — the literal Eq. 6
/// double loop. `Θ(n²)` per neighbor.
pub(crate) fn node_net_flow_direct<'a>(
    me: usize,
    own: &[f64],
    neighbor_cols: impl Iterator<Item = &'a [f64]>,
) -> f64 {
    let cols: Vec<&[f64]> = neighbor_cols.collect();
    let n = own.len();
    let mut acc = 0.0;
    for s in 0..n {
        for t in (s + 1)..n {
            if s == me || t == me {
                continue;
            }
            for nb in &cols {
                acc += (own[s] - own[t] - nb[s] + nb[t]).abs();
            }
        }
    }
    acc / 2.0
}

/// Combines potential columns into normalized betweenness (paper Eqs. 6–8):
///
/// * inner flows from the pair sums above;
/// * endpoint flows `I_s^{(st)} = I_t^{(st)} = 1` (Eq. 7) contribute
///   `n − 1` per node (one per pair it belongs to);
/// * normalization by `n (n − 1) / 2` pairs (Eq. 8).
///
/// `x[v]` is node `v`'s potential column (`x[v][s] ≈ T_vs`).
pub(crate) fn combine_potentials(graph: &Graph, x: &[Vec<f64>], method: PairSumMethod) -> Vec<f64> {
    let n = graph.node_count();
    debug_assert_eq!(x.len(), n);
    let pairs = n as f64 * (n as f64 - 1.0) / 2.0;
    (0..n)
        .map(|i| {
            let neighbors = graph.neighbor_slice(i).iter().map(|&j| x[j].as_slice());
            let inner = match method {
                PairSumMethod::Sorted => node_net_flow_sorted(i, &x[i], neighbors),
                PairSumMethod::Direct => node_net_flow_direct(i, &x[i], neighbors),
            };
            (inner + (n as f64 - 1.0)) / pairs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rwbc_graph::generators::{complete, cycle};

    #[test]
    fn pair_sum_matches_brute_force() {
        let z = [3.0, -1.0, 2.0, 2.0, 0.5];
        let col = SortedColumn::new(&z);
        let mut brute = 0.0;
        for s in 0..z.len() {
            for t in (s + 1)..z.len() {
                brute += (z[s] - z[t]).abs();
            }
        }
        assert!((col.pair_sum() - brute).abs() < 1e-12);
    }

    #[test]
    fn abs_sum_around_matches_brute_force() {
        let z = [3.0, -1.0, 2.0, 2.0, 0.5];
        let col = SortedColumn::new(&z);
        for &c in &[-5.0, -1.0, 0.0, 2.0, 2.5, 10.0] {
            let brute: f64 = z.iter().map(|v| (c - v).abs()).sum();
            assert!(
                (col.abs_sum_around(c) - brute).abs() < 1e-12,
                "c = {c}: {} vs {brute}",
                col.abs_sum_around(c)
            );
        }
    }

    #[test]
    fn sorted_equals_direct_on_random_potentials() {
        let mut rng = StdRng::seed_from_u64(17);
        for graph in [cycle(7).unwrap(), complete(6).unwrap()] {
            let n = graph.node_count();
            let x: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let a = combine_potentials(&graph, &x, PairSumMethod::Sorted);
            let b = combine_potentials(&graph, &x, PairSumMethod::Direct);
            for (l, r) in a.iter().zip(&b) {
                assert!((l - r).abs() < 1e-9, "{l} vs {r}");
            }
        }
    }

    #[test]
    fn weighted_pair_sum_matches_expanded_multiset() {
        let z = [3.0, -1.0, 2.0, 0.5];
        let w = [2.0, 1.0, 3.0, 2.0];
        let col = WeightedColumn::new(&z, &w);
        // Expand each entry into `w` copies and brute-force the pairs.
        let mut expanded = Vec::new();
        for (v, c) in z.iter().zip(&w) {
            for _ in 0..*c as usize {
                expanded.push(*v);
            }
        }
        let mut brute = 0.0;
        for s in 0..expanded.len() {
            for t in (s + 1)..expanded.len() {
                brute += (expanded[s] - expanded[t]).abs();
            }
        }
        assert!((col.pair_sum() - brute).abs() < 1e-12);
        for &c in &[-2.0, 0.5, 1.7, 4.0] {
            let brute_abs: f64 = expanded.iter().map(|v| (c - v).abs()).sum();
            assert!((col.abs_sum_around(c) - brute_abs).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_weights_reduce_to_sorted_column() {
        let z = [3.0, -1.0, 2.0, 2.0, 0.5];
        let w = [1.0; 5];
        let plain = SortedColumn::new(&z);
        let weighted = WeightedColumn::new(&z, &w);
        assert!((plain.pair_sum() - weighted.pair_sum()).abs() < 1e-12);
        for &c in &[-5.0, 0.0, 2.0, 10.0] {
            assert!((plain.abs_sum_around(c) - weighted.abs_sum_around(c)).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_weight_entries_are_inert() {
        let z = [3.0, 99.0, 2.0];
        let w = [2.0, 0.0, 1.0];
        let col = WeightedColumn::new(&z, &w);
        let dense = WeightedColumn::new(&[3.0, 2.0], &[2.0, 1.0]);
        assert!((col.pair_sum() - dense.pair_sum()).abs() < 1e-12);
        assert!((col.abs_sum_around(1.0) - dense.abs_sum_around(1.0)).abs() < 1e-12);
    }

    /// A value pool with what stresses an exact-order sort: exact ties,
    /// both zeros, and rounding siblings — distinct values that agree in
    /// all but their last few bits, so they share a truncated sort key.
    fn tie_heavy_pool(rng: &mut StdRng) -> Vec<f64> {
        let mut pool = vec![0.0, -0.0];
        for _ in 0..6 {
            let v: f64 = rng.gen_range(-4.0..4.0);
            pool.push(v);
            pool.push(f64::from_bits(v.to_bits() + rng.gen_range(1u64..600)));
            pool.push(f64::from(rng.gen_range(-8i32..8)) / 8.0);
        }
        pool
    }

    /// `len` draws from the pool, as pool indices.
    fn draws(rng: &mut StdRng, pool: &[f64], len: usize) -> Vec<u64> {
        (0..len)
            .map(|_| rng.gen_range(0..pool.len() as u64))
            .collect()
    }

    fn look_up(pool: &[f64], picks: &[u64]) -> Vec<f64> {
        picks.iter().map(|&i| pool[i as usize]).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn weighted_kernel_matches_its_reference_bit_for_bit(
            seed in any::<u64>(),
            buckets in 1usize..300,
            deg in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = tie_heavy_pool(&mut rng);
            // A fifth of the weights zero, the rest fractional (the
            // sketch's are integers): with fractional weights the prefix
            // sums show any reordering, even among equal values.
            let weights: Vec<f64> = (0..buckets)
                .map(|_| if rng.gen_range(0..5) == 0 { 0.0 } else { rng.gen_range(0.1..20.0) })
                .collect();
            let own = draws(&mut rng, &pool, buckets);
            let cols = draws(&mut rng, &pool, buckets * deg);
            let me_bucket = rng.gen_range(0..buckets);
            // The kernel reads pool indices through `avg`; the reference
            // gets the looked-up values.
            let got = node_net_flow_weighted_strided(me_bucket, &own, &cols, &weights, |x, _| {
                pool[x as usize]
            });
            let want = node_net_flow_weighted_strided_reference(
                me_bucket,
                &look_up(&pool, &own),
                &look_up(&pool, &cols),
                deg,
                &weights,
            );
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }

        #[test]
        fn weighted_kernel_matches_its_reference_on_sketch_averages(
            seed in any::<u64>(),
            precision in 1u8..9,
            deg in 1usize..6,
        ) {
            // The sketch combine's own inputs: fixed-point bucket sums,
            // many of them zero, averaged as `finish_if_done` does.
            let mut rng = StdRng::seed_from_u64(seed);
            let buckets = 1usize << precision;
            let weights: Vec<f64> = (0..buckets)
                .map(|_| f64::from(rng.gen_range(0u32..6)))
                .collect();
            let mut sum = || if rng.gen_range(0..3) == 0 { 0 } else { rng.gen_range(0u64..400) };
            let own: Vec<u64> = (0..buckets).map(|_| sum()).collect();
            let cols: Vec<u64> = (0..buckets * deg).map(|_| sum()).collect();
            let avg = |scaled: u64, w: f64| {
                if w > 0.0 {
                    scaled as f64 * (1.0 / 4096.0) / 8.0 / w
                } else {
                    0.0
                }
            };
            let me_bucket = rng.gen_range(0..buckets);
            let got = node_net_flow_weighted_strided(me_bucket, &own, &cols, &weights, avg);
            let own_f: Vec<f64> = own.iter().zip(&weights).map(|(&s, &w)| avg(s, w)).collect();
            let flat: Vec<f64> = (0..buckets * deg)
                .map(|i| avg(cols[i], weights[i / deg]))
                .collect();
            let want = node_net_flow_weighted_strided_reference(me_bucket, &own_f, &flat, deg, &weights);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }

        #[test]
        fn sorted_kernel_matches_its_reference_bit_for_bit(
            seed in any::<u64>(),
            n in 1usize..600,
            deg in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = tie_heavy_pool(&mut rng);
            let own = look_up(&pool, &draws(&mut rng, &pool, n));
            let flat = look_up(&pool, &draws(&mut rng, &pool, n * deg));
            let me = rng.gen_range(0..n);
            let got = node_net_flow_sorted_strided(me, &own, &flat, deg);
            let want = node_net_flow_sorted_strided_reference(me, &own, &flat, deg);
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn order_bits_orders_like_partial_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -3.5,
            -f64::MIN_POSITIVE,
            -1e-310,
            -0.0,
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            f64::INFINITY,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    order_bits(a).cmp(&order_bits(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "potentials must not be NaN")]
    fn weighted_kernel_rejects_nan() {
        let pool = [0.5, f64::NAN, -1.0];
        node_net_flow_weighted_strided(0, &[0, 1, 2], &[2, 0, 1], &[1.0; 3], |x, _| {
            pool[x as usize]
        });
    }

    #[test]
    #[should_panic(expected = "potentials must not be NaN")]
    fn sorted_kernel_rejects_nan() {
        node_net_flow_sorted_strided(0, &[0.5, f64::NAN, -1.0], &[1.0, 0.0, 2.0], 1);
    }

    #[test]
    fn a_lone_nan_is_never_compared() {
        // One kept entry: a comparison sort compares nothing, so neither
        // the reference nor the kernel panics.
        let got = node_net_flow_weighted_strided(0, &[0, 0], &[0, 0], &[1.0, 0.0], |_, _| f64::NAN);
        let want =
            node_net_flow_weighted_strided_reference(0, &[f64::NAN; 2], &[0.0; 2], 1, &[1.0, 0.0]);
        assert!(got.is_nan() && want.is_nan());
    }

    #[test]
    fn degenerate_single_pair() {
        // n = 2: the only pair is (0, 1); both are endpoints everywhere, so
        // b = (0 + 1) / 1 = 1 for both nodes.
        let g = rwbc_graph::Graph::from_edges(2, [(0, 1)]).unwrap();
        let x = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let b = combine_potentials(&g, &x, PairSumMethod::Sorted);
        assert_eq!(b, vec![1.0, 1.0]);
    }

    #[test]
    fn constant_columns_produce_endpoint_only_flow() {
        // If every node has the same potential column, all differences are
        // zero and only the endpoint terms (n - 1) survive: b = 2 / n.
        let g = cycle(5).unwrap();
        let x = vec![vec![1.0; 5]; 5];
        let b = combine_potentials(&g, &x, PairSumMethod::Sorted);
        for v in b {
            assert!((v - 2.0 / 5.0).abs() < 1e-12);
        }
    }
}
