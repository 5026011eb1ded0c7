//! `rwbc-replay --spawn` checkpoints its in-process daemon to a scratch
//! image under the temp dir; the image and its `.tmp` staging sibling
//! must be gone when the process exits, on success and on failure.

use std::path::{Path, PathBuf};
use std::process::Command;

const N: usize = 40;

/// The scratch image path `rwbc-replay` picks for process `pid`.
fn scratch_image(pid: u32) -> PathBuf {
    std::env::temp_dir().join(format!("rwbc-replay-{pid}-n{N}.ckpt"))
}

/// Runs a short self-hosted replay writing its artifact under
/// `out_dir`; returns whether it succeeded and its process id.
fn replay(out_dir: &Path) -> (bool, u32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rwbc-replay"))
        .args(["--spawn", "--n", &N.to_string(), "--duration-s", "0.2"])
        .args(["--out-dir", &out_dir.display().to_string()])
        .spawn()
        .expect("spawn rwbc-replay");
    let pid = child.id();
    let ok = child.wait().expect("replay exits").success();
    (ok, pid)
}

fn assert_no_scratch(pid: u32) {
    let image = scratch_image(pid);
    assert!(!image.exists(), "{} left behind", image.display());
    assert!(!image.with_extension("tmp").exists());
}

#[test]
fn spawn_removes_its_scratch_image_on_success() {
    let out_dir = std::env::temp_dir().join(format!("rwbc-replay-ok-{}", std::process::id()));
    let (ok, pid) = replay(&out_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(ok, "replay run failed");
    assert_no_scratch(pid);
}

#[test]
fn spawn_removes_its_scratch_image_on_error() {
    // The artifact directory cannot be created under a regular file, so
    // the run fails after the daemon solved and checkpointed.
    let blocker = std::env::temp_dir().join(format!("rwbc-replay-err-{}", std::process::id()));
    std::fs::write(&blocker, b"").expect("create blocker file");
    let (ok, pid) = replay(&blocker.join("out"));
    let _ = std::fs::remove_file(&blocker);
    assert!(!ok, "an unwritable artifact directory must fail the run");
    assert_no_scratch(pid);
}
