//! The benchmark's own checks: its metric catalog agrees with
//! `BENCHMARK.json`, every workload runs at smoke size, and the gate
//! notices a perturbed result.

use std::fs;
use std::path::{Path, PathBuf};

use congest_sim::trace::json::Json;
use rwbc::distributed::approximate;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::gate::{digest, pinned, same, Fingerprint, Gate};
use crate::host::HostStamp;
use crate::run::execute;
use crate::spans::Spans;
use crate::workload::{Workload, WORKLOADS};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_valid_and_have_units() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "{name} has unit {unit:?}"
        );
    }
    let mut all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "duplicate names"
    );
}

#[test]
fn catalog_matches_benchmark_json() {
    let doc = benchmark_json();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), own(END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), own(PER_LAYER));
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads");
    };
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("name");
        assert!(Workload::by_name(name).is_some(), "unknown workload {name}");
    }
}

/// A work directory for one test, inside the package's target dir.
fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/test-work")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create test work dir");
    dir
}

fn smoke_run(workload: Workload, traced: bool) {
    let dir = work_dir(&format!("{}-{traced}", workload.name));
    let mut spans = Spans::new(traced, 1);
    let outcome = execute(&workload.smoke(), 7, None, 0.2, &mut spans, &dir).expect("smoke run");
    assert!(
        outcome.gate.failures.is_empty(),
        "{:?}",
        outcome.gate.failures
    );
    assert!(outcome.gate.attempted > 0);
    let names = if traced { PER_LAYER } else { END_TO_END };
    for (name, _) in names {
        let value = outcome.values.get(*name);
        assert!(value.is_some_and(|v| v.is_finite()), "{name} = {value:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn smoke_sketch_runs() {
    smoke_run(WORKLOADS[0], false);
    smoke_run(WORKLOADS[0], true);
}

#[test]
fn smoke_serve_runs() {
    smoke_run(WORKLOADS[1], false);
    smoke_run(WORKLOADS[1], true);
}

#[test]
fn gate_rejects_a_perturbed_fingerprint_or_digest() {
    let w = WORKLOADS[1].smoke();
    let run = approximate(&w.graph(), &w.config(3)).expect("solve");
    let fp = Fingerprint::of(&run);
    assert!(same(&fp, &fp).is_ok());
    for perturbed in [
        Fingerprint {
            rounds: fp.rounds + 1,
            ..fp
        },
        Fingerprint {
            messages: fp.messages - 1,
            ..fp
        },
        Fingerprint {
            bits: fp.bits ^ 1,
            ..fp
        },
        Fingerprint {
            digest: fp.digest ^ (1 << 63),
            ..fp
        },
    ] {
        assert!(same(&fp, &perturbed).is_err(), "{perturbed:?} passed");
        let mut gate = Gate::default();
        gate.op("perturbed", same(&fp, &perturbed));
        assert_eq!((gate.attempted, gate.failed()), (1, 1));
    }

    // One flipped low bit in one value changes the digest.
    let mut values = run.centrality.as_slice().to_vec();
    values[1] = f64::from_bits(values[1].to_bits() ^ 1);
    assert_ne!(digest(&values), fp.digest);

    // The pins apply at seed 42 only, and a smoke-size result is not one.
    assert!(pinned(WORKLOADS[1].name, 43).is_none());
    let pin = pinned(WORKLOADS[1].name, 42).expect("pinned");
    assert!(same(&pin, &fp).is_err());
}

#[test]
fn differing_host_stamps_are_flagged() {
    let host = HostStamp {
        nproc: 2,
        cpu_model: "cpu".to_string(),
        calibration_ms: 70.0,
    };
    let roundtrip = HostStamp::from_json(&host.to_json()).expect("stamp");
    assert_eq!(host.mismatch(&roundtrip), None);
    let within_noise = HostStamp {
        calibration_ms: 75.0,
        ..host.clone()
    };
    assert_eq!(host.mismatch(&within_noise), None);
    for other in [
        HostStamp {
            nproc: 8,
            ..host.clone()
        },
        HostStamp {
            cpu_model: "other".to_string(),
            ..host.clone()
        },
        HostStamp {
            calibration_ms: 90.0,
            ..host.clone()
        },
    ] {
        assert!(host.mismatch(&other).is_some(), "{other:?} not flagged");
    }
}
