//! Golden values for the distributed pipeline driver: every run mode's
//! `(rounds, messages, bits)` fingerprint, a bit-exact digest of the
//! centrality, and a digest of the full run record (per-phase stats,
//! degradation report, target, fixed-point width).
//!
//! The first six cases are the committed `BENCH_*-t1.json` scenarios;
//! their fingerprints match the artifacts. The rest cover modes no
//! artifact does: walk relaunch under drops, the elected target, sketch
//! counting behind the reliable layer, and partition-tolerant runs (a
//! killed target that forces a redraw, and a severed link).

use rwbc_bench::perf::{Mode, Scenario, Topology};
use rwbc_repro::congest::{FaultPlan, LinkOutage, NodeCrash, SimConfig};
use rwbc_repro::graph::generators::fig1_graph;
use rwbc_repro::graph::Graph;
use rwbc_repro::rwbc::distributed::{approximate, CountMode, DistributedConfig, DistributedRun};
use rwbc_repro::rwbc::monte_carlo::TargetStrategy;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(rounds, messages, bits, centrality digest, run-record digest)`.
type Golden = (usize, u64, u64, u64, u64);

fn golden_of(run: &DistributedRun) -> Golden {
    let messages = run.election_stats.as_ref().map_or(0, |s| s.total_messages)
        + run.walk_stats.total_messages
        + run.count_stats.total_messages;
    let bits = run.election_stats.as_ref().map_or(0, |s| s.total_bits)
        + run.walk_stats.total_bits
        + run.count_stats.total_bits;
    let values = fnv1a(
        run.centrality
            .as_slice()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    let record = format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}|{}",
        run.election_stats,
        run.walk_stats,
        run.count_stats,
        run.degradation,
        run.target,
        run.fixed_point_bits,
        run.count_mode,
        run.sketch_suppressed
    );
    (
        run.total_rounds(),
        messages,
        bits,
        values,
        fnv1a(record.into_bytes()),
    )
}

fn check(name: &str, graph: &Graph, config: &DistributedConfig, want: Golden) -> DistributedRun {
    let run = approximate(graph, config).expect("golden run");
    let got = golden_of(&run);
    assert_eq!(
        got, want,
        "{name}: got ({}, {}, {}, {:#018x}, {:#018x})",
        got.0, got.1, got.2, got.3, got.4
    );
    run
}

fn check_scenario(mode: Mode, n: usize, want: Golden) {
    let s = Scenario::new(mode, Topology::Er, n, 1);
    check(&s.name(), &s.build_graph(), &s.build_config(), want);
}

#[test]
fn clean_er_n1024_matches_its_artifact() {
    check_scenario(
        Mode::Clean,
        1024,
        (
            1114,
            10_889_783,
            271_218_307,
            0x18cf_9505_fd51_96ba,
            0x845e_3d41_780f_1d1e,
        ),
    );
}

#[test]
fn sketch_er_n1024_matches_its_artifact() {
    check_scenario(
        Mode::Sketch,
        1024,
        (
            346,
            1_743_903,
            69_343_355,
            0x8481_79dd_dc0e_7c9d,
            0x2938_3deb_922b_3593,
        ),
    );
}

#[test]
fn sketch_er_n4096_matches_its_artifact() {
    check_scenario(
        Mode::Sketch,
        4096,
        (
            344,
            8_927_441,
            378_797_535,
            0x5f4f_a23f_3f75_ec48,
            0x1e4b_50e2_9597_98df,
        ),
    );
}

#[test]
fn reliable_er_n256_matches_its_artifact() {
    check_scenario(
        Mode::Reliable,
        256,
        (
            1943,
            1_453_684,
            38_972_200,
            0xadca_525c_5c5b_6176,
            0x8d2c_1dd6_8daf_3ca5,
        ),
    );
}

#[test]
fn corrupt_er_n256_matches_its_artifact() {
    check_scenario(
        Mode::Corrupt,
        256,
        (
            2069,
            1_471_506,
            87_172_992,
            0xadca_525c_5c5b_6176,
            0xaf2b_f395_eab4_4422,
        ),
    );
}

#[test]
fn chaos_er_n256_matches_its_artifact() {
    check_scenario(
        Mode::Chaos,
        256,
        (
            339,
            575_220,
            14_185_500,
            0x9918_f059_9b38_a8a4,
            0xb552_0001_937a_4262,
        ),
    );
}

/// A clean n=128 scenario, for the modes no artifact covers.
fn small() -> (Graph, DistributedConfig) {
    let s = Scenario::new(Mode::Clean, Topology::Er, 128, 1);
    (s.build_graph(), s.build_config())
}

#[test]
fn walk_retries_under_drops() {
    let (g, mut c) = small();
    c.walk_retries = 2;
    c.sim = SimConfig::default().with_faults(FaultPlan::default().with_drop_probability(0.05));
    let run = check(
        "walk-retries",
        &g,
        &c,
        (
            339,
            136_922,
            3_267_412,
            0x97d9_76dd_8a2d_ad1c,
            0x6ea4_a22b_e3d0_99ad,
        ),
    );
    assert_eq!(run.degradation.walk_subphases, 3, "every retry must run");
    assert!(run.degradation.walks_relaunched > 0);
}

#[test]
fn elected_target() {
    let (g, mut c) = small();
    c.elect_target = true;
    let run = check(
        "elect-target",
        &g,
        &c,
        (
            349,
            143_247,
            3_343_002,
            0xc734_11e9_fa17_87bf,
            0x2a39_b525_9a61_c626,
        ),
    );
    assert!(run.election_stats.is_some());
}

#[test]
fn sketch_behind_reliable_delivery() {
    let (g, mut c) = small();
    c.reliable = true;
    c.count_mode = CountMode::Sketch { precision: 5 };
    c.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(FaultPlan::default().with_drop_probability(0.02));
    let run = check(
        "sketch-reliable",
        &g,
        &c,
        (
            503,
            100_621,
            2_745_145,
            0x9812_3acc_02af_9cfd,
            0x215a_2f2d_db46_bf18,
        ),
    );
    assert!(run.walk_stats.retransmissions > 0 && run.count_stats.retransmissions > 0);
}

fn partition_tolerant(seed: u64, plan: FaultPlan) -> (Graph, DistributedConfig) {
    let (g, _) = fig1_graph(3).unwrap();
    let mut c = DistributedConfig::builder()
        .walks(100)
        .length(50)
        .seed(seed)
        .target(TargetStrategy::Fixed(0))
        .partition_tolerant(true)
        .walk_retries(3)
        .build()
        .unwrap();
    c.sim = SimConfig::default()
        .with_bandwidth_coeff(16)
        .with_faults(plan);
    (g, c)
}

#[test]
fn partition_tolerant_target_kill_redraws() {
    let (g, c) = partition_tolerant(
        11,
        FaultPlan::default().with_node_crash(NodeCrash {
            node: 0,
            crash_round: 20,
            recover_round: None,
        }),
    );
    let run = check(
        "pt-target-kill",
        &g,
        &c,
        (
            1784,
            37_148,
            827_796,
            0x0c7a_d277_7df8_52b2,
            0xdb73_dec8_0e7f_1c4c,
        ),
    );
    assert!(
        run.degradation.target_redraws >= 1,
        "the kill must force a redraw"
    );
}

#[test]
fn partition_tolerant_severed_link() {
    let (g, l) = fig1_graph(3).unwrap();
    let (_, c) = partition_tolerant(
        13,
        FaultPlan::default().with_link_outage(LinkOutage {
            u: l.left[0],
            v: l.left[1],
            from_round: 0,
            until_round: usize::MAX,
        }),
    );
    let run = check(
        "pt-severed-link",
        &g,
        &c,
        (
            925,
            19_416,
            413_802,
            0xbbca_3d15_752d_60fd,
            0x66a1_1c79_1571_39f4,
        ),
    );
    assert_eq!(run.degradation.dead_links_detected.len(), 1);
}
