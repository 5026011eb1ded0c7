//! Host identity and process memory, read from `/proc`.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use congest_sim::trace::json::Json;

/// Iterations of the calibration loop: about 70 ms on a 2-core Xeon.
const CALIBRATION_ITERS: u64 = 20_000_000;
/// Calibration times within this share of each other count as one host.
const CALIBRATION_TOLERANCE: f64 = 0.10;

/// What a result was measured on. Wall-clock numbers are only
/// comparable between results whose stamps match.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    /// Median time of a fixed integer loop, milliseconds.
    pub calibration_ms: f64,
}

impl HostStamp {
    pub fn measure() -> HostStamp {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let samples: Vec<f64> = (0..3).map(|_| calibration_loop_ms()).collect();
        HostStamp {
            nproc,
            cpu_model,
            calibration_ms: crate::median(&samples),
        }
    }

    /// Why two stamps name different hosts, or `None` when they match.
    pub fn mismatch(&self, other: &HostStamp) -> Option<String> {
        if self.nproc != other.nproc {
            return Some(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.cpu_model != other.cpu_model {
            return Some(format!(
                "cpu model {:?} vs {:?}",
                self.cpu_model, other.cpu_model
            ));
        }
        let ratio = self.calibration_ms / other.calibration_ms;
        if (ratio - 1.0).abs() > CALIBRATION_TOLERANCE {
            return Some(format!(
                "calibration {:.1} ms vs {:.1} ms",
                self.calibration_ms, other.calibration_ms
            ));
        }
        None
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Int(self.nproc as i64)),
            ("cpu_model".into(), Json::Str(self.cpu_model.clone())),
            ("calibration_ms".into(), Json::Float(self.calibration_ms)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<HostStamp> {
        Some(HostStamp {
            nproc: doc.get("nproc")?.as_usize()?,
            cpu_model: doc.get("cpu_model")?.as_str()?.to_string(),
            calibration_ms: crate::json_f64(doc.get("calibration_ms")?)?,
        })
    }
}

fn calibration_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(CALIBRATION_ITERS) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= z ^ (z >> 27);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Current resident set of this process, in MB. Reads `statm`, which
/// is cheap enough to sample after every round of a traced solve.
pub fn current_rss_mb() -> Option<f64> {
    let statm = fs::read_to_string("/proc/self/statm").ok()?;
    let pages: f64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096.0 / 1e6)
}

/// Hands the allocator's free memory back to the kernel, so the resident
/// set read after it counts only live data, as in a fresh process.
/// glibc keeps freed heap pages resident, so without this a solve run
/// after another one reads the earlier solve's high-water mark.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and has no preconditions;
    // glibc serialises it against concurrent allocation internally.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_memory() {}

/// `(steal, total)` CPU jiffies of the whole machine so far: the time the
/// hypervisor ran something else while this guest wanted the CPU.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
