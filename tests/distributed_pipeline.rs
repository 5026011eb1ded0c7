//! End-to-end properties of the distributed pipeline that only show up
//! across phases: round accounting, discipline equivalence, parameter
//! theory, and reproducibility.

use rand::rngs::StdRng;
use rand::SeedableRng;

use rwbc_repro::graph::generators::{connected_gnp, cycle, grid_2d};
use rwbc_repro::rwbc::accuracy::mean_relative_error;
use rwbc_repro::rwbc::distributed::{
    approximate, collect_and_solve, CongestionDiscipline, DistributedConfig,
};
use rwbc_repro::rwbc::exact::newman;
use rwbc_repro::rwbc::monte_carlo::TargetStrategy;
use rwbc_repro::rwbc::params::ApproxParams;

#[test]
fn round_budget_matches_lemma_2_and_3() {
    // Lemma 2: phase 1 is O(Kn + l); Lemma 3: phase 2 is exactly n rounds.
    let n = 24;
    let g = cycle(n).unwrap();
    let k = 8;
    let l = 2 * n;
    let cfg = DistributedConfig::builder()
        .walks(k)
        .length(l)
        .seed(1)
        .build()
        .unwrap();
    let run = approximate(&g, &cfg).unwrap();
    assert_eq!(run.count_stats.rounds, n);
    assert!(run.walk_stats.rounds >= 1);
    // Lemma 2's bound is asymptotic; hold-and-resend congestion adds a
    // seed-dependent additive overhead on top of the idealized Kn + l
    // (observed 195-246 rounds across seeds here), so allow the length
    // term a factor-2 slack.
    assert!(
        run.walk_stats.rounds <= k * n + 2 * l,
        "phase 1 rounds {} exceed Kn + 2l = {}",
        run.walk_stats.rounds,
        k * n + 2 * l
    );
}

#[test]
fn disciplines_agree_statistically() {
    let mut rng = StdRng::seed_from_u64(2);
    let g = connected_gnp(20, 0.3, 100, &mut rng).unwrap();
    let exact = newman(&g).unwrap();
    let mut errors = Vec::new();
    for discipline in [
        CongestionDiscipline::HoldAndResend,
        CongestionDiscipline::Batched,
    ] {
        let cfg = DistributedConfig::builder()
            .walks(600)
            .length(200)
            .seed(3)
            .target(TargetStrategy::Fixed(0))
            .discipline(discipline)
            .build()
            .unwrap();
        let run = approximate(&g, &cfg).unwrap();
        errors.push(mean_relative_error(&run.centrality, &exact));
    }
    for (i, e) in errors.iter().enumerate() {
        assert!(*e < 0.08, "discipline {i} error {e}");
    }
}

#[test]
fn batched_discipline_reduces_walk_rounds() {
    let g = grid_2d(5, 5).unwrap();
    let mut rounds = Vec::new();
    for discipline in [
        CongestionDiscipline::HoldAndResend,
        CongestionDiscipline::Batched,
    ] {
        let cfg = DistributedConfig::builder()
            .walks(32)
            .length(25)
            .seed(4)
            .discipline(discipline)
            .build()
            .unwrap();
        rounds.push(approximate(&g, &cfg).unwrap().walk_stats.rounds);
    }
    assert!(
        rounds[1] <= rounds[0],
        "batched {} should not exceed hold-and-resend {}",
        rounds[1],
        rounds[0]
    );
}

#[test]
fn batched_discipline_sizes_batches_from_the_run_budget() {
    // n = 25 and l = 25: a token is 5 id + 5 length bits, a batch adds a
    // 4-bit count, and the budget is c · 5 bits. So coefficient 4 fits one
    // token, 8 three, 16 seven, and 64 would fit 31 but the 4-bit count
    // caps a batch at 15. Coefficient 8 is the default.
    let g = grid_2d(5, 5).unwrap();
    let run_at = |coeff: usize| {
        let mut cfg = DistributedConfig::builder()
            .walks(32)
            .length(25)
            .seed(4)
            .discipline(CongestionDiscipline::Batched)
            .build()
            .unwrap();
        cfg.sim = cfg.sim.clone().with_bandwidth_coeff(coeff);
        approximate(&g, &cfg).unwrap_or_else(|e| panic!("coefficient {coeff}: {e}"))
    };
    let default = run_at(8);
    let walk = &default.walk_stats;
    assert_eq!(
        (walk.rounds, walk.total_messages, walk.total_bits),
        (81, 5165, 152_420),
        "the default-coefficient fingerprint"
    );
    let mut rounds = vec![walk.rounds];
    for (coeff, widest) in [(4, 1), (16, 7), (64, 15)] {
        let run = run_at(coeff);
        let stats = &run.walk_stats;
        assert!(stats.congest_compliant(), "coefficient {coeff}");
        // Token forwarding is contended at every size, so some batch
        // fills to the limit.
        assert_eq!(
            stats.max_bits_edge_round,
            4 + widest * 10,
            "coefficient {coeff}"
        );
        if coeff > 8 {
            // Schedule invariance: wider batches change the timing, not
            // the visit counts.
            assert_eq!(run.centrality, default.centrality, "coefficient {coeff}");
            rounds.push(stats.rounds);
        }
    }
    assert!(
        rounds.windows(2).all(|w| w[1] < w[0]),
        "walk rounds {rounds:?}"
    );
}

#[test]
fn theory_parameters_give_usable_accuracy() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = connected_gnp(20, 0.35, 100, &mut rng).unwrap();
    let exact = newman(&g).unwrap();
    let params = ApproxParams::from_theory(g.node_count(), 0.05, 0.1).unwrap();
    let cfg = DistributedConfig::builder()
        .walks(params.walks_per_node)
        .length(params.walk_length)
        .seed(6)
        .build()
        .unwrap();
    let run = approximate(&g, &cfg).unwrap();
    let err = mean_relative_error(&run.centrality, &exact);
    assert!(err < 0.25, "theory-parameter error {err}");
    // The top node is identified correctly.
    assert_eq!(run.centrality.argmax(), exact.argmax());
}

#[test]
fn approximation_beats_collection_on_rounds_for_dense_graphs() {
    // The paper's core claim: O(n log n) rounds vs the trivial O(m). On a
    // dense graph (m >> n log n) the approximation must win.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 48;
    let g = connected_gnp(n, 0.6, 100, &mut rng).unwrap();
    assert!(g.edge_count() > 500);
    let k = (n as f64).log2().ceil() as usize;
    let cfg = DistributedConfig::builder()
        .walks(k)
        .length(n)
        .seed(8)
        .build()
        .unwrap();
    let approx = approximate(&g, &cfg).unwrap();
    let collect = collect_and_solve(&g, 0, rwbc_repro::congest::SimConfig::default()).unwrap();
    assert!(
        approx.total_rounds() < collect.stats.rounds,
        "approx {} rounds vs collect {}",
        approx.total_rounds(),
        collect.stats.rounds
    );
}

#[test]
fn runs_replay_exactly() {
    let g = grid_2d(4, 4).unwrap();
    let cfg = DistributedConfig::builder()
        .walks(16)
        .length(32)
        .seed(9)
        .build()
        .unwrap();
    let a = approximate(&g, &cfg).unwrap();
    let b = approximate(&g, &cfg).unwrap();
    assert_eq!(a, b);
    let different = DistributedConfig::builder()
        .walks(16)
        .length(32)
        .seed(10)
        .build()
        .unwrap();
    let c = approximate(&g, &different).unwrap();
    assert_ne!(a.centrality, c.centrality);
}

#[test]
fn estimator_degrades_gracefully_under_message_loss() {
    // Failure injection: the CONGEST model is reliable, but a lossy
    // network only *undercounts* visits (tokens vanish mid-walk), so the
    // estimate degrades smoothly rather than collapsing.
    use rwbc_repro::congest::SimConfig;
    let mut rng = StdRng::seed_from_u64(40);
    let g = connected_gnp(18, 0.3, 100, &mut rng).unwrap();
    let exact = newman(&g).unwrap();
    let run_with_loss = |p: f64| {
        let mut cfg = DistributedConfig::builder()
            .walks(500)
            .length(120)
            .seed(41)
            .target(TargetStrategy::Fixed(0))
            .build()
            .unwrap();
        cfg.sim = SimConfig::default().with_drop_probability(p);
        let run = approximate(&g, &cfg).unwrap();
        (
            mean_relative_error(&run.centrality, &exact),
            run.walk_stats.dropped + run.count_stats.dropped,
        )
    };
    let (err_clean, dropped_clean) = run_with_loss(0.0);
    let (err_lossy, dropped_lossy) = run_with_loss(0.02);
    assert_eq!(dropped_clean, 0);
    assert!(dropped_lossy > 0);
    assert!(err_clean < 0.1, "clean error {err_clean}");
    // 2% loss should not push the estimate off a cliff.
    assert!(err_lossy < 0.35, "lossy error {err_lossy}");
    assert!(err_lossy >= err_clean * 0.5, "loss can only hurt, roughly");
}
