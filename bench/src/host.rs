//! Process counters and run provenance.

use mc_json::Json;

/// Kernel clock ticks per second for `/proc/self/stat` times (Linux's
/// fixed `USER_HZ`).
const CLOCK_TICKS: f64 = 100.0;

/// The worker count every workload runs with.
pub const JOBS: usize = 2;

/// The worker count of set-up's own checks. Reports are identical at any
/// worker count, and a single-threaded set-up leaves the same heap behind
/// on every run, so `peak_rss_mb` does not depend on how set-up's threads
/// interleaved.
pub const SETUP_JOBS: usize = 1;

/// User plus system CPU seconds this process (all threads) has used.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| "/proc/self/stat: missing cpu time".to_string())
    };
    Ok((tick(11)? + tick(12)?) / CLOCK_TICKS)
}

/// Returns the heap's free pages to the kernel, then resets this process's
/// peak resident set size to its current size, so that the next
/// [`peak_rss_mb`] covers only what runs after this call, and not memory
/// that earlier work freed but the allocator kept.
///
/// # Errors
///
/// Returns a message when the kernel refuses the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("/proc/self/clear_refs: cannot reset the peak RSS: {e}"))
}

/// Hands the heap's free pages back to the kernel (a no-op off glibc).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only hands free heap pages
    // back to the kernel; glibc allows the call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Hands the heap's free pages back to the kernel (a no-op off glibc).
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// Peak resident set size (`VmHWM`) of this process in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuses to measure on a host with fewer cores than the fixed worker
/// count: the numbers would describe oversubscription, not the product.
///
/// # Errors
///
/// Returns the message to print before exiting.
pub fn guard() -> Result<(), String> {
    let n = nproc();
    if n < JOBS {
        return Err(format!(
            "this host offers {n} core(s); the benchmark runs --jobs {JOBS} and needs at least {JOBS}"
        ));
    }
    Ok(())
}

/// The commit checked out in the working directory, read from `.git`
/// without leaving it; `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result was measured.
pub fn provenance(seed: u64) -> Json {
    mc_json::object(vec![
        ("nproc", Json::Int(nproc() as i64)),
        ("jobs", Json::Int(JOBS as i64)),
        ("rustc", Json::Str(env!("MC_BENCH_RUSTC").into())),
        ("git", Json::Str(git_revision())),
        ("seed", Json::Int(seed as i64)),
    ])
}
