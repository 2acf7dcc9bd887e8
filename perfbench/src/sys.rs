//! What the benchmark reads about its host and checkout: peak resident
//! memory, load average, core count and the git revision.

use std::path::Path;

/// Restarts the kernel's resident high-water mark (`VmHWM`) from the
/// current resident size, so a phase's peak excludes earlier phases.
pub fn reset_peak_rss() {
    // "5" resets the peak RSS counters (Documentation/filesystems/proc).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB, or `NaN` where `/proc` lacks it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The 1/5/15-minute load averages as `/proc/loadavg` prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit and whether the tree differs from it, read
/// from `.git` when the benchmark runs inside a repository.
pub fn git_revision() -> (String, Option<bool>) {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return ("none (not a git checkout)".to_owned(), None),
    };
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => resolve_ref(reference).unwrap_or_else(|| head.clone()),
        None => head,
    };
    let dirty = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| !out.stdout.is_empty());
    (commit, dirty)
}

fn resolve_ref(reference: &str) -> Option<String> {
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}
