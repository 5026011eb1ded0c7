//! `rwbc-bench` reports each scenario's own peak RSS: a small scenario
//! run after a large one in the same process must read about what it
//! reads alone, not the large one's high-water mark.

use std::path::{Path, PathBuf};
use std::process::Command;

use congest_sim::trace::json::Json;

const LARGE: &str = "clean-er-n1024-t1";
const SMALL: &str = "clean-er-n256-t1";

/// Runs `scenarios` in one `rwbc-bench` process writing under `out_dir`.
fn bench(out_dir: &Path, scenarios: &[&str]) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rwbc-bench"));
    for s in scenarios {
        cmd.args(["--scenario", s]);
    }
    let status = cmd
        .args(["--trials", "1", "--warmup", "0", "--out-dir"])
        .arg(out_dir)
        .status()
        .expect("spawn rwbc-bench");
    assert!(status.success(), "rwbc-bench {scenarios:?} failed");
}

fn peak_rss(out_dir: &Path, scenario: &str) -> u64 {
    let path = out_dir.join(format!("BENCH_{scenario}.json"));
    let text = std::fs::read_to_string(&path).expect("artifact written");
    let doc = Json::parse(&text).expect("artifact parses");
    doc.get("peak_rss_bytes")
        .and_then(Json::as_u64)
        .expect("peak_rss_bytes recorded")
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rwbc-bench-rss-{tag}-{}", std::process::id()))
}

#[test]
fn small_scenario_after_a_large_one_reports_its_own_peak() {
    // Without a resettable mark every scenario inherits the process-wide
    // peak; there is nothing to check.
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        return;
    }
    let (after_dir, solo_dir) = (scratch_dir("after"), scratch_dir("solo"));
    bench(&after_dir, &[LARGE, SMALL]);
    bench(&solo_dir, &[SMALL]);
    let large = peak_rss(&after_dir, LARGE);
    let after = peak_rss(&after_dir, SMALL);
    let solo = peak_rss(&solo_dir, SMALL);
    let _ = std::fs::remove_dir_all(&after_dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
    // The large scenario's count store alone is several times the small
    // one's whole footprint, so inheriting its mark cannot pass.
    assert!(large > 4 * solo, "large {large} vs small {solo}");
    // Memory the large scenario freed but the allocator kept still counts
    // toward the small one's RSS, so the reading need not equal the solo
    // one; it must sit within a quarter of the gap between the two.
    let bound = solo + (large - solo) / 4;
    assert!(
        after <= bound,
        "{SMALL} after {LARGE} peaked at {after} bytes, alone at {solo} (bound {bound})"
    );
}
