//! The correctness gate: every solve, stepped solve and daemon answer
//! must reproduce one fingerprint.

use rwbc::distributed::DistributedRun;

/// The paper's cost counters plus a digest of the centrality bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub digest: u64,
}

impl Fingerprint {
    pub fn of(run: &DistributedRun) -> Fingerprint {
        Fingerprint {
            rounds: run.total_rounds() as u64,
            messages: run.walk_stats.total_messages + run.count_stats.total_messages,
            bits: run.walk_stats.total_bits + run.count_stats.total_bits,
            digest: digest(run.centrality.as_slice()),
        }
    }
}

/// FNV-1a over the IEEE-754 bits of every value, in node order.
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// Known-good fingerprints at seed 42. The sketch counters match the
/// committed `BENCH_sketch-er-n4096-t1.json`.
pub fn pinned(workload: &str, seed: u64) -> Option<Fingerprint> {
    if seed != 42 {
        return None;
    }
    let (rounds, messages, bits, digest) = match workload {
        "sketch-er-n4096" => (344, 8_927_441, 378_797_535, 0x5F4F_A23F_3F75_EC48),
        "serve-er-n256" => (347, 600_704, 14_669_696, 0xADCA_525C_5C5B_6176),
        _ => return None,
    };
    Some(Fingerprint {
        rounds,
        messages,
        bits,
        digest,
    })
}

/// Records every check; a run is correct only if none failed.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// `Ok` when `got` equals `expected` in every field.
pub fn same(expected: &Fingerprint, got: &Fingerprint) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("fingerprint {got:?} != expected {expected:?}"))
    }
}
