//! Regression coverage for the engine's allocation-free round path.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Fan-out ≡ reference path.** The commit fan-out — the engine's
//!    one round path, run inline at one worker and on scoped threads at
//!    more — and the double-buffered inboxes must be observationally
//!    identical to the reference implementation behind
//!    `Simulator::with_reference_delivery`: node programs in ascending
//!    order, then a per-group-allocating commit with its own
//!    sort/group/validate code. Same stats, same trace event sequence,
//!    same checkpoint bytes — under link outages, corruption and random
//!    faults, at any thread count, and across checkpoint/restore
//!    boundaries. Runs with only the outage schedule take the fan-out's
//!    scatter mode, where wave 1 skips a downed link's messages and the
//!    spine books the drops; the reference path has no scatter mode.
//! 2. **Version-1 checkpoints still decode.** The buffer-reuse refactor
//!    must not disturb the wire format: a hand-encoded v1 image (the
//!    layout that predates `RunStats::peak_edge`) restores and replays
//!    exactly like a fresh run.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use congest_sim::algorithms::Flood;
use congest_sim::wire::{BitWriter, WireState};
use congest_sim::{
    node_rng, FaultPlan, LinkOutage, MemoryTracer, RunStats, SimConfig, SimError, Simulator,
    TraceEvent,
};
use rwbc_graph::generators::random_tree;
use rwbc_graph::Graph;

/// Strategy: a random connected graph big enough (n >= 64) that
/// `threads > 1` really splits the fan-out across workers.
fn arb_large_graph() -> impl Strategy<Value = Graph> {
    (64usize..96, 0u64..200, 0usize..40).prop_map(|(n, seed, extra)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_tree(n, &mut rng).unwrap();
        let mut edges = tree.edge_vec();
        let mut tries = 0;
        while edges.len() < tree.edge_count() + extra && tries < 256 {
            tries += 1;
            let u = rand::Rng::gen_range(&mut rng, 0..n);
            let v = rand::Rng::gen_range(&mut rng, 0..n);
            let key = if u < v { (u, v) } else { (v, u) };
            if u != v && !edges.contains(&key) {
                edges.push(key);
            }
        }
        Graph::from_edges(n, edges).unwrap()
    })
}

/// One complete traced run; returns (stats, events, final checkpoint).
fn full_run(
    g: &Graph,
    cfg: SimConfig,
    reference: bool,
) -> (congest_sim::RunStats, Vec<TraceEvent>, Vec<u8>) {
    let mut tracer = MemoryTracer::new();
    let mut sim = Simulator::new(g, cfg, |v| Flood::new(v, 0))
        .with_reference_delivery(reference)
        .with_tracer(&mut tracer);
    let stats = sim.run().unwrap();
    let image = sim.checkpoint();
    drop(sim);
    let mut events = tracer.into_events();
    for e in &mut events {
        e.strip_wall_clock();
    }
    (stats, events, image)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The commit fan-out must be byte-identical to the reference
    /// delivery implementation: aggregate stats, the full trace event
    /// sequence, and the end-of-run checkpoint image, under a link
    /// outage with and without random faults, at 1, 4, and 8 threads.
    #[test]
    fn fast_path_matches_reference_delivery(
        g in arb_large_graph(),
        seed in 0u64..50,
        noisy in any::<bool>(),
        (drop_p, dup_p, delay_p, corrupt_p) in
            (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.2, 0.0f64..0.2),
        (edge, outage_from, outage_len) in (any::<usize>(), 0usize..3, 1usize..4),
    ) {
        let (u, v) = g.edge_vec()[edge % g.edge_count()];
        let outage = LinkOutage {
            u,
            v,
            from_round: outage_from,
            until_round: outage_from + outage_len,
        };
        // Without the random faults the plan draws no per-message
        // randomness, and the fan-out scatters instead of routing.
        let p = |x: f64| if noisy { x } else { 0.0 };
        let faults = FaultPlan::default()
            .with_link_outage(outage)
            .with_drop_probability(p(drop_p))
            .with_duplicate_probability(p(dup_p))
            .with_delay_probability(p(delay_p))
            .with_corrupt_probability(p(corrupt_p));
        prop_assert!(noisy || !faults.uses_rng());
        let cfg = |threads: usize| {
            SimConfig::default()
                .with_seed(seed)
                .with_threads(threads)
                // Chunks of 4 nodes: even at 8 threads on a 64-node
                // graph every worker really runs.
                .with_granularity(4)
                .with_faults(faults.clone())
        };
        let (ref_stats, ref_events, ref_image) = full_run(&g, cfg(1), true);
        for threads in [1usize, 4, 8] {
            let (stats, events, image) = full_run(&g, cfg(threads), false);
            prop_assert_eq!(&ref_stats, &stats, "stats diverge at {} threads", threads);
            prop_assert_eq!(ref_events.len(), events.len());
            for (i, (a, b)) in ref_events.iter().zip(&events).enumerate() {
                prop_assert_eq!(a, b, "event {} diverges at {} threads", i, threads);
            }
            prop_assert_eq!(&ref_image, &image, "checkpoints diverge at {} threads", threads);
        }
    }

    /// A checkpoint written mid-run by the reference implementation must
    /// restore and finish identically under the fan-out (and vice
    /// versa): the scratch buffers are invisible at round boundaries.
    #[test]
    fn mid_run_checkpoints_cross_between_implementations(
        g in arb_large_graph(),
        seed in 0u64..50,
        drop_p in 0.0f64..0.3,
    ) {
        let faults = FaultPlan::default().with_drop_probability(drop_p);
        let cfg = SimConfig::default().with_seed(seed).with_faults(faults);
        let finish = |mut sim: Simulator<'_, Flood>| -> (RunStats, Vec<u8>) {
            let stats = sim.run().unwrap();
            (stats, sim.checkpoint())
        };
        // Reference run, interrupted after (up to) two rounds — under
        // heavy drops an unreliable flood can die out even sooner.
        let interrupt = |sim: &mut Simulator<'_, Flood>| {
            let mut steps = 0;
            while steps < 2 && !sim.step().unwrap() {
                steps += 1;
            }
        };
        let mut first = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0))
            .with_reference_delivery(true);
        interrupt(&mut first);
        let image = first.checkpoint();
        let (ref_stats, ref_final) = finish(first);
        // ...finishes the same on the one-worker fan-out (restore
        // defaults to it)...
        let resumed = Simulator::<Flood>::restore(&g, cfg.clone(), &image).unwrap();
        let (fast_stats, fast_final) = finish(resumed);
        prop_assert_eq!(&ref_stats, &fast_stats);
        prop_assert_eq!(&ref_final, &fast_final);
        // ...finishes the same when the t1 image resumes under the
        // 8-worker fan-out (thread count is a policy knob a
        // restore may change freely)...
        let wide = cfg.clone().with_threads(8).with_granularity(4);
        let resumed = Simulator::<Flood>::restore(&g, wide, &image).unwrap();
        let (wide_stats, wide_final) = finish(resumed);
        prop_assert_eq!(&ref_stats, &wide_stats);
        prop_assert_eq!(&ref_final, &wide_final);
        // ...and the fan-out emits the very same mid-run image.
        let mut fast = Simulator::new(&g, cfg.clone(), |v| Flood::new(v, 0));
        interrupt(&mut fast);
        prop_assert_eq!(&image, &fast.checkpoint());
    }
}

/// Hand-encodes a **version 1** checkpoint image of a fresh (round 0, not
/// yet started) `Flood` simulation, using the layout that shipped before
/// `RunStats::peak_edge` existed: magic, version, n, seed, round, started,
/// v1 stats (no peak-edge field), per-node RNGs, fault RNG, programs, and
/// `n` empty pending + `n` empty delayed inboxes.
fn v1_fresh_image(g: &Graph, cfg: &SimConfig, source: usize) -> Vec<u8> {
    let n = g.node_count();
    let mut w = BitWriter::new();
    w.write_bits(0xC4EC_5A7E, 64); // CHECKPOINT_MAGIC
    w.write_bits(1, 64); // version 1
    n.encode_state(&mut w);
    cfg.seed.encode_state(&mut w);
    0usize.encode_state(&mut w); // round
    false.encode_state(&mut w); // started

    // v1 RunStats layout: the current field order minus `peak_edge`.
    0usize.encode_state(&mut w); // rounds
    0u64.encode_state(&mut w); // total_messages
    0u64.encode_state(&mut w); // total_bits
    0usize.encode_state(&mut w); // max_bits_edge_round
    0usize.encode_state(&mut w); // max_messages_edge_round
    cfg.budget_bits(n).encode_state(&mut w); // budget_bits
    for _ in 0..10 {
        // violations, dropped, duplicated, delayed, retransmissions,
        // duplicates_suppressed, dead_links_declared,
        // undeliverable_messages, crashed_node_rounds,
        // delivery_overhead_rounds
        0u64.encode_state(&mut w);
    }
    0u64.encode_state(&mut w); // cut.messages
    0u64.encode_state(&mut w); // cut.bits
    for v in 0..n {
        for word in node_rng(cfg.seed, v).state() {
            word.encode_state(&mut w);
        }
    }
    for word in node_rng(cfg.seed ^ 0xFA_17, usize::MAX / 2).state() {
        word.encode_state(&mut w);
    }
    for v in 0..n {
        Flood::new(v, source).encode_state(&mut w);
    }
    for _ in 0..(2 * n) {
        Vec::<congest_sim::Incoming<()>>::new().encode_state(&mut w);
    }
    w.finish()
}

/// A version-1 image — the pre-`peak_edge` stats layout — must still
/// restore, and the resumed run must replay exactly like a fresh one
/// (the v1 decoder only loses the peak-edge *location*, which a fresh
/// image never had anyway).
#[test]
fn v1_checkpoint_images_still_restore_and_replay() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_tree(24, &mut rng).unwrap();
    let cfg = SimConfig::default().with_seed(17);
    let image = v1_fresh_image(&g, &cfg, 0);

    let mut restored = Simulator::<Flood>::restore(&g, cfg.clone(), &image).unwrap();
    let restored_stats = restored.run().unwrap();

    let mut fresh = Simulator::new(&g, cfg, |v| Flood::new(v, 0));
    let fresh_stats = fresh.run().unwrap();

    assert_eq!(restored_stats, fresh_stats);
    for v in 0..g.node_count() {
        assert_eq!(
            restored.program(v).informed_at(),
            fresh.program(v).informed_at(),
            "node {v}"
        );
    }
    // And the end states agree bit for bit.
    assert_eq!(restored.checkpoint(), fresh.checkpoint());
}

/// Images from outside the supported version window are rejected with a
/// typed error, not misdecoded.
#[test]
fn out_of_window_checkpoint_versions_are_rejected() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = random_tree(8, &mut rng).unwrap();
    let cfg = SimConfig::default().with_seed(17);
    let mut image = v1_fresh_image(&g, &cfg, 0);
    // The version lives in bytes 8..16 of the image (bit-packed u64 right
    // after the magic); rewrite it by re-encoding the whole header is
    // overkill — just rebuild with a bad version word instead.
    let mut w = BitWriter::new();
    w.write_bits(0xC4EC_5A7E, 64);
    w.write_bits(999, 64);
    let bad_version = w.finish();
    image.splice(..bad_version.len(), bad_version.iter().copied());
    assert!(matches!(
        Simulator::<Flood>::restore(&g, cfg, &image),
        Err(SimError::CorruptCheckpoint { .. })
    ));
}
