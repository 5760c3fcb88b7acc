//! `mcheck --watch`: the one watch loop. It snapshots the input files,
//! waits for an edit burst to settle, and asks a backend for the check —
//! an in-process [`Session`], or with `--daemon-socket` an `mcheckd`
//! daemon's session over its socket. Both print the same output.

use crate::{render, Checked, CliError, Options, Session};
use mc_driver::RunStats;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// A watched file's last observed state: its stat signature (cheap to
/// re-read every poll) and a hash of its contents (consulted only when the
/// stat changed, so a `touch` that rewrites identical bytes does not
/// trigger a re-check).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FileSnap {
    stat: Option<(SystemTime, u64)>,
    hash: u64,
}

fn stat_of(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

fn snap_of(path: &Path) -> FileSnap {
    let stat = stat_of(path);
    let hash = std::fs::read(path)
        .map(|bytes| mc_ast::fnv1a(&bytes))
        .unwrap_or(0);
    FileSnap { stat, hash }
}

/// One watch poll: returns `true` when any file's *content* changed since
/// the snapshots were taken, updating the snapshots. Transient I/O errors
/// (a file mid-save, briefly missing) never trigger: the old hash is kept
/// until the file is readable again with different bytes.
fn poll_changed(files: &[PathBuf], snaps: &mut [FileSnap]) -> bool {
    let mut changed = false;
    for (file, snap) in files.iter().zip(snaps.iter_mut()) {
        let stat = stat_of(file);
        if stat == snap.stat {
            continue;
        }
        snap.stat = stat;
        if let Ok(bytes) = std::fs::read(file) {
            let hash = mc_ast::fnv1a(&bytes);
            if hash != snap.hash {
                snap.hash = hash;
                changed = true;
            }
        }
    }
    changed
}

/// Blocks until the watched files change *and then stop changing*: after
/// the first detected change, polling continues until one full interval
/// passes with no further change, so a burst of rapid edits (an editor
/// save immediately followed by a formatter rewrite) coalesces into a
/// single re-check of the final content instead of one per write.
fn wait_for_settled_change(files: &[PathBuf], snaps: &mut [FileSnap], interval: Duration) {
    loop {
        std::thread::sleep(interval);
        if poll_changed(files, snaps) {
            break;
        }
    }
    loop {
        std::thread::sleep(interval);
        if !poll_changed(files, snaps) {
            return;
        }
    }
}

/// One watch cycle's check of `opts.files`.
type Backend<'a> = Box<dyn FnMut() -> Result<(Checked, RunStats), CliError> + 'a>;

/// The backend `opts` asks for: the daemon on `--daemon-socket`, an
/// in-process [`Session`] otherwise.
fn backend(opts: &Options) -> Result<Backend<'_>, CliError> {
    #[cfg(unix)]
    if let Some(socket) = &opts.daemon_socket {
        let mut remote = crate::daemon::Remote::connect(opts, socket)?;
        return Ok(Box::new(move || remote.check(opts)));
    }
    let mut session = Session::new(opts)?;
    Ok(Box::new(move || session.check(&opts.files, None)))
}

/// Runs `mcheck --watch`: check, report, then poll the files and re-check
/// on every content change through one long-lived check session, so
/// unchanged functions are never re-checked. Each cycle prints one
/// `[watch] checked ...` header and then the reports in `opts.format`.
/// Parse, read and request errors are reported and watched through — a
/// broken intermediate save does not kill the loop.
///
/// Output goes to `out` (stdout in `main`; a buffer in tests). Runs until
/// killed, or after `opts.watch_iterations` check cycles when set.
///
/// # Errors
///
/// Returns [`CliError`] only for setup failures: unreadable spec/checker
/// files, an unusable cache directory, or a daemon that cannot be reached
/// or spawned.
pub fn run_watch(opts: &Options, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let mut check = backend(opts)?;
    let interval = Duration::from_millis(opts.watch_interval_ms.max(1));
    let mut cycles = 0usize;
    let mut snaps: Vec<FileSnap> = opts.files.iter().map(|f| snap_of(f)).collect();
    loop {
        match check() {
            Ok((c, stats)) => {
                let _ = writeln!(
                    out,
                    "[watch] checked {} file(s) ({} re-checked, {} replayed): {} report(s)",
                    stats.units,
                    stats.units_checked,
                    stats.units.saturating_sub(stats.units_checked),
                    c.reports.len()
                );
                render(
                    opts.format,
                    &c.reports,
                    &c.sources,
                    c.suppressed,
                    c.refuted,
                    out,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
            }
        }
        let _ = out.flush();
        cycles += 1;
        if opts.watch_iterations.is_some_and(|n| cycles >= n) {
            return Ok(());
        }
        wait_for_settled_change(&opts.files, &mut snaps, interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;

    fn args(s: &[&str]) -> Result<Options, CliError> {
        parse_args(s.iter().map(|s| s.to_string()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcheck_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn watch_single_cycle_reports_and_returns() {
        let dir = temp_dir("watch");
        let src = dir.join("w.c");
        std::fs::write(&src, "void w(void) { MISCBUS_READ_DB(a, b); }").unwrap();
        let mut opts = args(&["--builtin", "--watch", src.to_str().unwrap()]).unwrap();
        opts.watch_iterations = Some(1);
        let mut out = Vec::new();
        run_watch(&opts, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("[watch] checked 1 file(s)"), "{text}");
        assert!(text.contains("wait_for_db"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Regression (debounce): an editor save immediately followed by a
    // formatter rewrite must coalesce into ONE re-check that sees the
    // final content — not one re-check per write.
    #[test]
    fn watch_coalesces_rapid_edit_bursts() {
        let dir = temp_dir("debounce");
        let src = dir.join("d.c");
        std::fs::write(&src, "void d(void) { a(); }").unwrap();
        let mut opts = args(&["--builtin", "--watch", src.to_str().unwrap()]).unwrap();
        opts.watch_interval_ms = 50;
        opts.watch_iterations = Some(2);
        let src2 = src.clone();
        let writer = std::thread::spawn(move || {
            // The save...
            std::thread::sleep(std::time::Duration::from_millis(150));
            std::fs::write(&src2, "void d(void) { b(); }").unwrap();
            // ...and the formatter rewrite, well inside the next poll
            // interval.
            std::thread::sleep(std::time::Duration::from_millis(20));
            std::fs::write(&src2, "void d(void) { MISCBUS_READ_DB(a, b); }").unwrap();
        });
        let mut out = Vec::new();
        run_watch(&opts, &mut out).unwrap();
        writer.join().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text.matches("[watch] checked").count(),
            2,
            "initial check + one coalesced re-check: {text}"
        );
        assert!(
            text.contains("wait_for_db"),
            "the re-check saw the burst's final content: {text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_poll_detects_content_changes_only() {
        let dir = temp_dir("poll");
        let src = dir.join("p.c");
        std::fs::write(&src, "void p(void) { a(); }").unwrap();
        let files = vec![src.clone()];
        let mut snaps = vec![snap_of(&src)];

        assert!(!poll_changed(&files, &mut snaps), "no change yet");

        // Rewrite with identical bytes (a `touch`): stat changes, content
        // does not — no re-check.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&src, "void p(void) { a(); }").unwrap();
        assert!(!poll_changed(&files, &mut snaps), "identical bytes");

        // A transiently missing file does not trigger.
        std::fs::remove_file(&src).unwrap();
        assert!(!poll_changed(&files, &mut snaps), "missing file");

        // Real content change triggers once.
        std::fs::write(&src, "void p(void) { b(); }").unwrap();
        assert!(poll_changed(&files, &mut snaps), "content changed");
        assert!(!poll_changed(&files, &mut snaps), "already seen");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
