//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! must list the same names; a test checks that it does.

/// Printed with `--trace 0`: what a user of the library or the daemon
/// sees. The query latencies are printed with the per-layer metrics:
/// on a shared 2-vCPU host their run-to-run spread (0.26 to 0.53 of the
/// median over ten seeds) is wider than any bound the benchmark may set.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rounds", "count"),
    ("bits", "bits"),
    ("ready_s", "s"),
    ("recover_s", "s"),
];

/// Spans whose self time the traced run reports, as `self_s.<span>`.
pub const SPAN_NAMES: &[&str] = &[
    "run",
    "graph.build",
    "approximate",
    "stepwise.solve",
    "stepwise.new",
    "walk_phase.round",
    "handoff",
    "count_phase.round",
    "harvest",
    "checkpoint.encode",
    "checkpoint.restore",
    "serve.ready",
    "serve.request",
    "serve.recover",
];

/// Printed with `--trace 1`: one layer each, measured from outside by
/// timing the benchmark's own calls into it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("stepwise.new_s", "s"),
    ("handoff.s", "s"),
    ("harvest.s", "s"),
    ("rss.after_new_mb", "MB"),
    ("rss.after_walk_mb", "MB"),
    ("rss.after_handoff_mb", "MB"),
    ("rss.after_count_mb", "MB"),
    ("walk_phase.rounds", "count"),
    ("walk_phase.busy_s", "s"),
    ("walk_phase.round_p50_ms", "ms"),
    ("walk_phase.round_p99_ms", "ms"),
    ("walk_phase.messages", "count"),
    ("walk_phase.bits", "bits"),
    ("walk_phase.ns_per_message", "ns"),
    ("count_phase.rounds", "count"),
    ("count_phase.busy_s", "s"),
    ("count_phase.round_p50_ms", "ms"),
    ("count_phase.round_p99_ms", "ms"),
    ("count_phase.messages", "count"),
    ("count_phase.bits", "bits"),
    ("count_phase.ns_per_message", "ns"),
    ("sketch_count.suppressed_ratio", "ratio"),
    ("checkpoint.count", "count"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.image_mb", "MB"),
    ("checkpoint.mb_per_s", "MB/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("serve.checkpoint_overhead_s", "s"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.not_ready", "count"),
    ("serve.queue_depth_max", "count"),
    ("trace.overhead_frac", "ratio"),
    ("self_s.run", "s"),
    ("self_s.graph.build", "s"),
    ("self_s.approximate", "s"),
    ("self_s.stepwise.solve", "s"),
    ("self_s.stepwise.new", "s"),
    ("self_s.walk_phase.round", "s"),
    ("self_s.handoff", "s"),
    ("self_s.count_phase.round", "s"),
    ("self_s.harvest", "s"),
    ("self_s.checkpoint.encode", "s"),
    ("self_s.checkpoint.restore", "s"),
    ("self_s.serve.ready", "s"),
    ("self_s.serve.request", "s"),
    ("self_s.serve.recover", "s"),
];
