//! Golden checkpoint images: the byte stream a `StepSolver` writes is a
//! frozen format. Stepping the daemon's default exact-count workload and
//! checkpointing at its cadence must reproduce a pinned image count,
//! total length and digest, so any change to the wire codec that alters
//! a single byte fails here, not in a resumed production solve.

use rwbc::distributed::StepSolver;
use rwbc_serve::SolverConfig;

/// Rounds between images, the cadence `rwbc-replay` runs the daemon at.
const EVERY: usize = 16;

/// Pinned values for `SolverConfig::new(256, 42)`: graph seed 42, walk
/// seed 42, 1 engine thread, exact count.
const IMAGES: usize = 22;
const TOTAL_BYTES: usize = 96_091_271;
const DIGEST: u64 = 0x3d7e_112f_9235_9520;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn checkpoint_images_match_the_pinned_stream() {
    let workload = SolverConfig::new(256, 42);
    let graph = workload.graph.build();
    let config = workload.distributed_config();
    let mut solver = StepSolver::new(&graph, config.clone()).expect("valid workload");
    let mut images = Vec::new();
    loop {
        let done = solver.step().expect("clean step");
        if done || solver.rounds_completed().is_multiple_of(EVERY) {
            images.push(solver.checkpoint().expect("checkpointable"));
        }
        if done {
            break;
        }
    }

    let total: usize = images.iter().map(Vec::len).sum();
    let digest = images
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, image| fnv1a(h, image));
    assert_eq!(
        (images.len(), total, digest),
        (IMAGES, TOTAL_BYTES, DIGEST),
        "image stream drifted: {} images, {total} bytes, digest {digest:016x}",
        images.len()
    );

    for (i, image) in images.iter().enumerate() {
        let restored = StepSolver::restore(&graph, config.clone(), image).expect("restorable");
        let again = restored.checkpoint().expect("checkpointable");
        assert!(again == *image, "image {i} does not survive restore");
    }
}
