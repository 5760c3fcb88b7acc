//! End-to-end tests for the `mcheckd` daemon: real binaries, a real unix
//! socket, and the contract that every transport — daemon `check`,
//! `--watch --daemon-socket`, and batch `mcheck` — reports the same
//! thing byte for byte.
#![cfg(unix)]

use mc_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

const MCHECKD: &str = env!("CARGO_BIN_EXE_mcheckd");
const MCHECK: &str = env!("CARGO_BIN_EXE_mcheck");

/// A fresh scratch directory plus a socket path short enough for
/// `sockaddr_un` (the temp dir keeps paths well under the limit).
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mcheckd_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    (dir, socket)
}

/// The planted-bug source every test checks: one raw read, one double
/// free.
fn write_buggy_source(dir: &std::path::Path) -> PathBuf {
    let src = dir.join("h.c");
    std::fs::write(
        &src,
        "void h(void) { MISCBUS_READ_DB(a, b); DB_FREE(); DB_FREE(); }\n",
    )
    .unwrap();
    src.canonicalize().unwrap()
}

fn connect_with_retry(socket: &std::path::Path) -> UnixStream {
    for _ in 0..100 {
        if let Ok(s) = UnixStream::connect(socket) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("daemon never came up on {}", socket.display());
}

fn shutdown(socket: &std::path::Path) {
    let _ = Command::new(MCHECKD)
        .args(["shutdown", "--socket"])
        .arg(socket)
        .output();
}

/// `mcheckd check` with no daemon running: the client spawns one
/// (fall-back path), and the envelope it prints is byte-identical to
/// batch `mcheck --format json` over the same file.
#[test]
fn daemon_check_spawns_and_matches_batch_output() {
    let (dir, socket) = scratch("spawn");
    let src = write_buggy_source(&dir);

    let daemon_out = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    shutdown(&socket);
    assert_eq!(
        daemon_out.status.code(),
        Some(1),
        "reports were emitted: {}",
        String::from_utf8_lossy(&daemon_out.stderr)
    );

    let batch_out = Command::new(MCHECK)
        .args(["--builtin", "--format", "json"])
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(batch_out.status.code(), Some(1));

    let daemon_env = Json::parse(std::str::from_utf8(&daemon_out.stdout).unwrap()).unwrap();
    let batch_env = Json::parse(std::str::from_utf8(&batch_out.stdout).unwrap()).unwrap();
    assert_eq!(
        daemon_env.get("schema").and_then(Json::as_str),
        Some("mcheck-reports")
    );
    assert_eq!(
        daemon_env, batch_env,
        "daemon transport changed the reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second `serve` on a live socket is refused; a stale socket file
/// (its daemon long dead) is reaped and rebound.
#[test]
fn serve_refuses_live_socket_and_reaps_stale_one() {
    let (dir, socket) = scratch("stale");
    let src = write_buggy_source(&dir);

    // Plant a stale socket file: bind and immediately drop the listener.
    // The file stays behind, but nothing accepts on it.
    drop(UnixListener::bind(&socket).unwrap());
    assert!(socket.exists(), "stale socket file planted");

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    drop(connect_with_retry(&socket)); // reaped + rebound

    let second = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(second.status.code(), Some(2), "double-bind must be refused");
    assert!(
        String::from_utf8_lossy(&second.stderr).contains("already listening"),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );

    shutdown(&socket);
    let _ = daemon.wait();
    assert!(!socket.exists(), "shutdown removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `subscribe` connections receive a push `diagnostics` notification —
/// the same mcheck-reports envelope — whenever any other client checks.
#[test]
fn subscribers_get_push_diagnostics() {
    let (dir, socket) = scratch("subscribe");
    let src = write_buggy_source(&dir);

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut sub = connect_with_retry(&socket);
    writeln!(sub, r#"{{"id": 7, "method": "subscribe"}}"#).unwrap();
    let mut reader = BufReader::new(sub.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp = Json::parse(line.trim()).unwrap();
    assert_eq!(resp.get("id").and_then(Json::as_i64), Some(7));
    assert_eq!(
        resp.get("result")
            .and_then(|r| r.get("ok"))
            .and_then(Json::as_bool),
        Some(true)
    );

    // Another client triggers a check; the subscriber gets the push.
    let check = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(check.status.code(), Some(1));
    let mut push = String::new();
    reader.read_line(&mut push).unwrap();
    let note = Json::parse(push.trim()).unwrap();
    assert_eq!(
        note.get("method").and_then(Json::as_str),
        Some("diagnostics")
    );
    let envelope = note.get("params").unwrap();
    assert_eq!(
        envelope.get("schema").and_then(Json::as_str),
        Some("mcheck-reports")
    );
    assert!(
        !envelope
            .get("reports")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "the planted bugs ride the push"
    );

    shutdown(&socket);
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `invalidate` drops the memo tables (observable only as a still-correct
/// next check), and `shutdown` against a dead socket exits 0.
#[test]
fn invalidate_then_recheck_and_idempotent_shutdown() {
    let (dir, socket) = scratch("invalidate");
    let src = write_buggy_source(&dir);

    let first = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(first.status.code(), Some(1));

    let inv = Command::new(MCHECKD)
        .args(["invalidate", "--socket"])
        .arg(&socket)
        .output()
        .unwrap();
    assert_eq!(inv.status.code(), Some(0), "{:?}", inv);

    let second = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .output()
        .unwrap();
    assert_eq!(second.status.code(), Some(1));
    assert_eq!(
        Json::parse(std::str::from_utf8(&first.stdout).unwrap()).unwrap(),
        Json::parse(std::str::from_utf8(&second.stdout).unwrap()).unwrap(),
        "invalidation must not change the reports"
    );

    shutdown(&socket);
    // Second shutdown: nothing is listening; still exit 0.
    let again = Command::new(MCHECKD)
        .args(["shutdown", "--socket"])
        .arg(&socket)
        .output()
        .unwrap();
    assert_eq!(again.status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `check` request may carry a per-request `jobs` hint: the daemon
/// applies it for that run, echoes the effective count in the stats, and
/// the reports stay byte-identical at every worker count — the hint
/// trades latency, never output.
#[test]
fn check_jobs_hint_is_applied_and_echoed() {
    let (dir, socket) = scratch("jobs");
    let src = write_buggy_source(&dir);

    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .arg("--builtin")
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let conn = connect_with_retry(&socket);
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut conn = conn;
    let mut ask = |id: i64, params: &str| -> Json {
        writeln!(
            conn,
            r#"{{"id": {id}, "method": "check", "params": {params}}}"#
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(id));
        resp
    };

    let file = format!(r#"["{}"]"#, src.display());
    let with_hint = ask(1, &format!(r#"{{"files": {file}, "jobs": 2}}"#));
    let result = with_hint.get("result").expect("check succeeds");
    assert_eq!(
        result
            .get("stats")
            .and_then(|s| s.get("jobs"))
            .and_then(Json::as_i64),
        Some(2),
        "the hint is echoed back: {with_hint:?}"
    );

    let without = ask(2, &format!(r#"{{"files": {file}}}"#));
    let default_jobs = without
        .get("result")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("jobs"))
        .and_then(Json::as_i64)
        .unwrap();
    assert!(default_jobs >= 1, "hint-less requests use the default");
    assert_eq!(
        with_hint.get("result").and_then(|r| r.get("reports")),
        without.get("result").and_then(|r| r.get("reports")),
        "the worker count must never change report bytes"
    );

    let bad = ask(3, &format!(r#"{{"files": {file}, "jobs": 0}}"#));
    assert!(
        bad.get("error")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("jobs")),
        "a zero hint is a request error: {bad:?}"
    );

    shutdown(&socket);
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mcheck --watch --daemon-socket` runs the one watch loop against the
/// daemon (spawned via `MCHECKD_BIN`): the same `[watch]` header as the
/// in-process loop, then the reports in the requested `--format`.
#[test]
fn watch_through_daemon_socket_prints_daemon_reports() {
    let (dir, socket) = scratch("watch");
    let src = write_buggy_source(&dir);
    let watch = |format: &str, socket: Option<&std::path::Path>| {
        let mut cmd = Command::new(MCHECK);
        cmd.env("MCHECKD_BIN", MCHECKD)
            .args(["--builtin", "--watch", "--watch-iterations", "1"])
            .args(["--format", format]);
        if let Some(socket) = socket {
            cmd.arg("--daemon-socket").arg(socket);
        }
        let out = cmd.arg(&src).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };

    let (json, stderr) = watch("json", Some(&socket));
    assert!(
        json.starts_with("[watch] checked 1 file(s) (1 re-checked, 0 replayed): 2 report(s)\n"),
        "{json}\nstderr: {stderr}"
    );
    assert!(json.contains("mcheck-reports"), "{json}");
    assert!(json.contains("wait_for_db"), "{json}");

    // `--format` is honoured over the socket: text through the (now warm)
    // daemon renders exactly what the in-process loop renders.
    let (text, _) = watch("text", Some(&socket));
    shutdown(&socket);
    let (local, _) = watch("text", None);
    let body = |s: &str| s.split_once('\n').map(|(_, rest)| rest.to_string());
    assert!(
        local.contains("wait_for_db") && local.contains(" | "),
        "{local}"
    );
    assert_eq!(
        body(&text),
        body(&local),
        "socket and in-process text differ"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon serving other options is refused, naming both suite keys,
/// instead of answering with its own configuration's reports.
#[test]
fn daemon_with_a_different_suite_key_is_refused() {
    let (dir, socket) = scratch("suite_key");
    let src = write_buggy_source(&dir);
    let mut daemon = Command::new(MCHECKD)
        .args(["serve", "--socket"])
        .arg(&socket)
        .args(["--builtin", "--no-refute"])
        .arg(&src)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    drop(connect_with_retry(&socket));

    let check = Command::new(MCHECKD)
        .args(["check", "--socket"])
        .arg(&socket)
        .args(["--builtin", "--refute"])
        .arg(&src)
        .output()
        .unwrap();
    let watch = Command::new(MCHECK)
        .args(["--builtin", "--watch", "--watch-iterations", "1"])
        .arg("--daemon-socket")
        .arg(&socket)
        .arg(&src)
        .output()
        .unwrap();
    shutdown(&socket);
    let _ = daemon.wait();

    let key = |opts: &[&str]| {
        let mut args = vec!["--builtin"];
        args.extend(opts);
        args.push("h.c");
        let opts = mc_cli::parse_args(args.iter().map(|s| s.to_string())).unwrap();
        format!("{:016x}", mc_cli::build_driver(&opts).unwrap().suite_key())
    };
    let (daemon_key, client_key) = (key(&["--no-refute"]), key(&["--refute"]));
    assert_ne!(daemon_key, client_key);
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert_eq!(check.status.code(), Some(2), "{stderr}");
    assert!(check.stdout.is_empty(), "no reports from the wrong daemon");
    assert!(
        stderr.contains(&daemon_key) && stderr.contains(&client_key),
        "{stderr}"
    );
    // The watch refuses at setup, before its loop: exit 2, nothing on
    // stdout, both keys on stderr.
    let stderr = String::from_utf8_lossy(&watch.stderr);
    assert_eq!(watch.status.code(), Some(2), "{stderr}");
    assert!(
        watch.stdout.is_empty(),
        "no watch cycle against the wrong daemon"
    );
    assert!(
        stderr.contains(&daemon_key) && stderr.contains(&client_key),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `shutdown` stops an in-process `serve`: the thread returns `Ok`, and
/// the socket file is gone.
#[test]
fn shutdown_returns_from_an_in_process_serve() {
    let (dir, socket) = scratch("shutdown");
    let src = write_buggy_source(&dir);
    let opts = mc_cli::parse_args(["--builtin".to_string(), src.display().to_string()]).unwrap();
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || mc_cli::daemon::serve(&opts, &socket))
    };
    drop(connect_with_retry(&socket));
    let mut client = mc_cli::daemon::Client::connect(&socket).unwrap();
    client.request("shutdown", Json::Null).unwrap();
    assert!(server.join().unwrap().is_ok());
    assert!(!socket.exists(), "shutdown removes the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}
