//! The `mcheckd` check daemon: a persistent server that keeps one check
//! session (a driver and a hot `CheckEngine`) in memory so every editor
//! save and CI query pays only the function-granular red/green re-check,
//! never process startup or a cold cache.
//!
//! ## Protocol
//!
//! Newline-delimited JSON-RPC over a unix domain socket. Each request is
//! one line:
//!
//! ```json
//! {"id": 1, "method": "check", "params": {"files": ["/abs/path.c"]}}
//! ```
//!
//! and each response is one line, `{"id": 1, "result": ...}` on success
//! or `{"id": 1, "error": "message"}` on failure. Methods:
//!
//! * `check` — check the given files (absolute paths; defaults to the
//!   files the daemon was started with). An optional `"jobs"` hint sets
//!   the worker count for this request only (the daemon's configured
//!   count otherwise); the effective value is echoed back in the stats.
//!   Worker count never affects report bytes, only latency. The result
//!   carries the `mcheck-reports` envelope under `"reports"`, engine
//!   counters under `"stats"`, the batch exit code under `"exit"`, and
//!   the daemon's checker-suite key (16 hex digits) under `"suite_key"`.
//! * `suite_key` — the daemon's checker-suite key alone, as
//!   `{"suite_key": "<16 hex digits>"}`. Clients ask for it on connect,
//!   before any check, and refuse a daemon whose key differs from theirs:
//!   it would check with a different configuration.
//! * `invalidate` — drop the engine's in-memory memo tables (the disk
//!   cache, if any, is untouched); the next check revalidates everything.
//! * `subscribe` — register this connection for push diagnostics: after
//!   every completed check (from any client) the daemon writes one line
//!   `{"method": "diagnostics", "params": <envelope>}` to it.
//! * `shutdown` — after responding, stop accepting, unlink the socket and
//!   return from [`serve`].
//!
//! The reports in every envelope are byte-identical to a cold one-shot
//! `mcheck` run over the same files — the daemon is a transport, never a
//! second analysis pipeline.
//!
//! ## Socket lifecycle
//!
//! `serve` refuses to start when another daemon is alive on the socket
//! (connecting succeeds), and silently reaps a stale socket file whose
//! daemon died (connecting fails). Clients that find no listener fall
//! back to spawning `mcheckd serve` themselves (`connect_or_spawn`), so
//! the first `--watch` or `mcheckd check` of a session transparently
//! becomes the daemon's parent.

use crate::{
    build_driver, engine_for, json_envelope, read_sources, Checked, CliError, Options, Session,
};
use mc_driver::{Report, RunStats};
use mc_json::{FromJson, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Usage text for the `mcheckd` binary.
pub const DAEMON_USAGE: &str = "\
usage: mcheckd <serve|check|invalidate|shutdown> --socket <path> [OPTIONS] [file.c...]

  serve       run the daemon: bind the socket, keep a hot CheckEngine,
              answer JSON-RPC requests until `shutdown`. Takes the same
              options as mcheck (--builtin, --checker, --cache-dir, ...);
              they fix the daemon's checker configuration.
  check       send a check request for the given files (spawns a daemon
              with the same options when none is listening). Prints the
              mcheck-reports JSON envelope; exits 0/1 like mcheck. A
              daemon checking with different options is refused (exit 2).
  invalidate  drop the daemon's in-memory memo tables
  shutdown    stop the daemon and remove the socket (exit 0 if none runs)

exit codes: 0 ran clean, 1 reports were emitted, 2 usage or I/O error";

/// Shared server state: the check session (the analysis identity of this
/// daemon, fixed at `serve` time; one request runs at a time), its suite
/// key in hex, the subscriber list, and the flag a `shutdown` raises.
struct State {
    session: Mutex<Session>,
    suite_key: String,
    socket: PathBuf,
    subscribers: Mutex<Vec<Arc<Mutex<UnixStream>>>>,
    stopping: AtomicBool,
}

/// Binds `socket`, refusing when a live daemon already owns it and
/// reaping it when its owner died.
fn bind_socket(socket: &Path) -> Result<UnixListener, CliError> {
    match UnixListener::bind(socket) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(CliError(format!(
                    "{}: an mcheckd daemon is already listening here",
                    socket.display()
                )));
            }
            // The socket file outlived its daemon: reap and rebind.
            std::fs::remove_file(socket)
                .map_err(|e| CliError(format!("{}: {e}", socket.display())))?;
            UnixListener::bind(socket).map_err(|e| CliError(format!("{}: {e}", socket.display())))
        }
        Err(e) => Err(CliError(format!("{}: {e}", socket.display()))),
    }
}

/// Runs the daemon on `socket` until a client sends `shutdown`, then
/// unlinks the socket and returns `Ok(())`. The options fix the checker
/// suite and cache directory for every request this daemon will serve.
///
/// # Errors
///
/// Returns [`CliError`] when the socket cannot be bound (including a live
/// daemon already owning it) or the options describe an unbuildable
/// driver.
pub fn serve(opts: &Options, socket: &Path) -> Result<(), CliError> {
    let listener = bind_socket(socket)?;
    let session = Session::new(opts)?;
    let state = Arc::new(State {
        suite_key: format!("{:016x}", session.driver.suite_key()),
        session: Mutex::new(session),
        socket: socket.to_path_buf(),
        subscribers: Mutex::new(Vec::new()),
        stopping: AtomicBool::new(false),
    });
    for conn in listener.incoming() {
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(conn) = conn else { continue };
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve_client(conn, &state));
    }
    let _ = std::fs::remove_file(socket);
    Ok(())
}

/// One client connection: read request lines, write response lines. The
/// write half is shared (via `Arc<Mutex<_>>`) with the diagnostics
/// pusher once the client subscribes, so responses and pushes never
/// interleave mid-line.
fn serve_client(conn: UnixStream, state: &Arc<State>) {
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(conn));
    for line in BufReader::new(read_half).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (id, outcome, shutdown) = dispatch(&line, state, &writer);
        let response = match outcome {
            Ok(result) => Json::Object(vec![("id".into(), id), ("result".into(), result)]),
            Err(msg) => Json::Object(vec![("id".into(), id), ("error".into(), Json::Str(msg))]),
        };
        {
            let mut w = writer.lock().unwrap();
            if writeln!(w, "{}", response.to_compact()).is_err() {
                break;
            }
            let _ = w.flush();
        }
        if shutdown {
            // Wake the accept loop so it sees the flag.
            state.stopping.store(true, Ordering::SeqCst);
            let _ = UnixStream::connect(&state.socket);
            break;
        }
    }
}

/// Parses and executes one request line. Returns the echoed id, the
/// result-or-error, and whether the daemon should stop after replying.
fn dispatch(
    line: &str,
    state: &Arc<State>,
    writer: &Arc<Mutex<UnixStream>>,
) -> (Json, Result<Json, String>, bool) {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return (Json::Null, Err(format!("bad request: {e}")), false),
    };
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let method = req.get("method").and_then(Json::as_str).unwrap_or("");
    match method {
        "check" => (id, do_check(state, req.get("params")), false),
        "invalidate" => {
            let mut session = state.session.lock().unwrap();
            match engine_for(&session.opts) {
                Ok(fresh) => {
                    session.engine = fresh;
                    (id, Ok(ok_result()), false)
                }
                Err(e) => (id, Err(e.to_string()), false),
            }
        }
        "subscribe" => {
            state.subscribers.lock().unwrap().push(Arc::clone(writer));
            (id, Ok(ok_result()), false)
        }
        "suite_key" => {
            let key = Json::Str(state.suite_key.clone());
            (id, Ok(mc_json::object(vec![("suite_key", key)])), false)
        }
        "shutdown" => (id, Ok(ok_result()), true),
        other => (id, Err(format!("unknown method `{other}`")), false),
    }
}

fn ok_result() -> Json {
    Json::Object(vec![("ok".into(), Json::Bool(true))])
}

/// Executes a `check` request: run the session over the requested files
/// and package the envelope, stats and suite key. Pushes the envelope to
/// every subscriber before replying.
fn do_check(state: &Arc<State>, params: Option<&Json>) -> Result<Json, String> {
    let files: Option<Vec<PathBuf>> = match params.and_then(|p| p.get("files")) {
        None => None,
        Some(v) => v
            .as_array()
            .and_then(|items| {
                items
                    .iter()
                    .map(|f| f.as_str().map(PathBuf::from))
                    .collect()
            })
            .map(Some)
            .ok_or("params.files must be an array of strings")?,
    };
    // An optional per-request worker-count hint; the daemon's configured
    // count (its serve-time --jobs, or the parallelism default) applies
    // when absent. Invalid hints are request errors, not silently ignored.
    let jobs_hint = match params.and_then(|p| p.get("jobs")) {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_i64() {
            Some(n) if n >= 1 => Some(n as usize),
            _ => return Err("params.jobs must be a positive integer".into()),
        },
    };
    let (checked, stats, jobs) = {
        let mut session = state.session.lock().unwrap();
        let files = files.unwrap_or_else(|| session.opts.files.clone());
        if files.is_empty() {
            return Err("no files to check".into());
        }
        let (checked, stats) = session
            .check(&files, jobs_hint)
            .map_err(|e| e.to_string())?;
        (checked, stats, session.driver.effective_jobs())
    };
    let envelope = json_envelope(&checked.reports, checked.suppressed, checked.refuted);
    push_diagnostics(state, &envelope);
    let int = |n: usize| Json::Int(n as i64);
    let stats = mc_json::object(vec![
        ("units", int(stats.units)),
        ("units_checked", int(stats.units_checked)),
        ("functions_rechecked", int(stats.functions_rechecked)),
        ("functions_replayed", int(stats.functions_replayed)),
        ("jobs", int(jobs)),
    ]);
    Ok(mc_json::object(vec![
        ("reports", envelope),
        ("stats", stats),
        ("exit", Json::Int(i64::from(!checked.reports.is_empty()))),
        ("suite_key", Json::Str(state.suite_key.clone())),
    ]))
}

/// Writes one `diagnostics` notification line to every subscriber,
/// dropping subscribers whose connection is gone.
fn push_diagnostics(state: &Arc<State>, envelope: &Json) {
    let note = Json::Object(vec![
        ("method".into(), Json::Str("diagnostics".into())),
        ("params".into(), envelope.clone()),
    ])
    .to_compact();
    state.subscribers.lock().unwrap().retain(|sub| {
        let mut w = sub.lock().unwrap();
        writeln!(w, "{note}").and_then(|()| w.flush()).is_ok()
    });
}

/// A connected client: line-oriented request/response over the socket.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: i64,
}

impl Client {
    /// Connects to a daemon already listening on `socket`.
    ///
    /// # Errors
    ///
    /// Propagates the connect error (no listener, permissions, ...).
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// Connects to `socket`, spawning `mcheckd serve` (configured from
    /// `opts`) first when nothing is listening — the fall-back that makes
    /// the daemon self-hosting: whoever asks first becomes its parent.
    ///
    /// The daemon binary is `$MCHECKD_BIN` when set, the current
    /// executable when it *is* mcheckd, or an `mcheckd` sibling of the
    /// current executable otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when spawning fails or the daemon does not
    /// come up within the grace period.
    pub fn connect_or_spawn(socket: &Path, opts: &Options) -> Result<Client, CliError> {
        if let Ok(client) = Client::connect(socket) {
            return Ok(client);
        }
        let bin = daemon_binary()?;
        let mut cmd = std::process::Command::new(&bin);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(config_args(opts))
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        cmd.spawn()
            .map_err(|e| CliError(format!("spawning {}: {e}", bin.display())))?;
        // The daemon builds its driver before binding; give it a moment.
        for _ in 0..100 {
            std::thread::sleep(std::time::Duration::from_millis(50));
            if let Ok(client) = Client::connect(socket) {
                return Ok(client);
            }
        }
        Err(CliError(format!(
            "{}: daemon did not come up after spawn",
            socket.display()
        )))
    }

    /// Sends one request and reads its response line. Returns the
    /// `result` value, or an error carrying the daemon's `error` string.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] on transport failure, an unparsable response,
    /// or a daemon-side error.
    pub fn request(&mut self, method: &str, params: Json) -> Result<Json, CliError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Json::Object(vec![
            ("id".into(), Json::Int(id)),
            ("method".into(), Json::Str(method.into())),
            ("params".into(), params),
        ]);
        writeln!(self.writer, "{}", req.to_compact())
            .and_then(|()| self.writer.flush())
            .map_err(|e| CliError(format!("daemon request: {e}")))?;
        // Skip any interleaved push notifications (they carry no "id").
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| CliError(format!("daemon response: {e}")))?;
            if n == 0 {
                return Err(CliError("daemon closed the connection".into()));
            }
            let resp = Json::parse(line.trim())
                .map_err(|e| CliError(format!("bad daemon response: {e}")))?;
            if resp.get("id").and_then(Json::as_i64) != Some(id) {
                continue;
            }
            if let Some(msg) = resp.get("error").and_then(Json::as_str) {
                return Err(CliError(format!("daemon: {msg}")));
            }
            return resp
                .get("result")
                .cloned()
                .ok_or_else(|| CliError("daemon response has no result".into()));
        }
    }
}

/// Resolves the daemon binary for spawn fall-back: `$MCHECKD_BIN`, the
/// current executable when it is mcheckd itself, or its `mcheckd`
/// sibling (the cargo layout installs both binaries side by side).
fn daemon_binary() -> Result<PathBuf, CliError> {
    if let Some(bin) = std::env::var_os("MCHECKD_BIN") {
        return Ok(PathBuf::from(bin));
    }
    let exe = std::env::current_exe().map_err(|e| CliError(format!("locating mcheckd: {e}")))?;
    if exe.file_stem().is_some_and(|s| s == "mcheckd") {
        return Ok(exe);
    }
    let sibling = exe.with_file_name("mcheckd");
    if sibling.exists() {
        return Ok(sibling);
    }
    Err(CliError(format!(
        "mcheckd binary not found next to {} (set MCHECKD_BIN)",
        exe.display()
    )))
}

/// Reconstructs the configuration flags a spawned daemon needs so its
/// driver (suite key, config epoch, cache) matches the client's options —
/// the transport must never change what gets checked.
fn config_args(opts: &Options) -> Vec<std::ffi::OsString> {
    let mut args: Vec<std::ffi::OsString> = Vec::new();
    for checker in &opts.checkers {
        args.push("--checker".into());
        args.push(checker.into());
    }
    if opts.builtin {
        args.push("--builtin".into());
    }
    if let Some(spec) = &opts.spec {
        args.push("--spec".into());
        args.push(spec.into());
    }
    if opts.exhaustive {
        args.push("--mode".into());
        args.push("exhaustive".into());
    }
    if let Some(jobs) = opts.jobs {
        args.push("--jobs".into());
        args.push(jobs.to_string().into());
    }
    args.push(if opts.prune { "--prune" } else { "--no-prune" }.into());
    args.push(
        if opts.interproc {
            "--interproc"
        } else {
            "--no-interproc"
        }
        .into(),
    );
    args.push(
        if opts.refute {
            "--refute"
        } else {
            "--no-refute"
        }
        .into(),
    );
    if let Some(dir) = &opts.cache_dir {
        args.push("--cache-dir".into());
        args.push(dir.into());
    }
    if opts.no_cache {
        args.push("--no-cache".into());
    }
    if let Some(cap) = opts.cache_cap_bytes {
        args.push("--cache-cap-bytes".into());
        args.push(cap.to_string().into());
    }
    for file in &opts.files {
        args.push(file.into());
    }
    args
}

/// Builds a `check` request's params: the files plus the client's
/// `--jobs` as a per-request worker-count hint when set, so a client's
/// parallelism preference survives the hop into a daemon that was started
/// with different (or no) `--jobs`.
fn check_params(opts: &Options, files: &[String]) -> Json {
    let files = files.iter().map(|f| Json::Str(f.clone())).collect();
    let mut fields = vec![("files", Json::Array(files))];
    if let Some(jobs) = opts.jobs {
        fields.push(("jobs", Json::Int(jobs as i64)));
    }
    mc_json::object(fields)
}

/// The client side of the daemon's check session. [`Remote::check`]
/// returns what an in-process session's check returns, so `--watch` and
/// `mcheckd check` render its reports like any other check's.
pub(crate) struct Remote {
    client: Client,
}

impl Remote {
    /// Connects to the daemon on `socket`, spawning one configured from
    /// `opts` when none is listening. A daemon whose suite key differs from
    /// the one `opts` produce would check with other options, so it is
    /// refused here, before it checks anything.
    pub(crate) fn connect(opts: &Options, socket: &Path) -> Result<Remote, CliError> {
        let ours = format!("{:016x}", build_driver(opts)?.suite_key());
        let mut client = Client::connect_or_spawn(socket, opts)?;
        let result = client.request("suite_key", Json::Null)?;
        let theirs = result.get("suite_key").and_then(Json::as_str);
        if theirs != Some(ours.as_str()) {
            return Err(CliError(format!(
                "the daemon checks with suite key {}, these options have suite key {ours}; \
                 stop it with `mcheckd shutdown` or use another socket",
                theirs.unwrap_or("(none)")
            )));
        }
        Ok(Remote { client })
    }

    /// Asks the daemon to check `opts.files` and decodes its reply. The
    /// files travel as absolute paths, since the daemon's working directory
    /// is its own; report locations come back under the names `opts.files`
    /// gives them. The sources for excerpts are read once, before the
    /// request is sent, as an in-process check reads them before checking.
    pub(crate) fn check(&mut self, opts: &Options) -> Result<(Checked, RunStats), CliError> {
        let mut sent = Vec::new();
        for f in &opts.files {
            let abs =
                std::fs::canonicalize(f).map_err(|e| CliError(format!("{}: {e}", f.display())))?;
            sent.push(abs.display().to_string());
        }
        let mut sources = read_sources(&opts.files)?;
        sources.extend(read_sources(&opts.checkers)?);
        let result = self.client.request("check", check_params(opts, &sent))?;
        let bad = |what: String| CliError(format!("bad daemon response: {what}"));
        let envelope = result.get("reports");
        let mut reports = envelope
            .and_then(|e| e.get("reports"))
            .and_then(Json::as_array)
            .ok_or_else(|| bad("no reports".into()))?
            .iter()
            .map(Report::from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| bad(e.to_string()))?;
        let rename = |file: &mut String| {
            if let Some(i) = sent.iter().position(|s| s == file) {
                *file = opts.files[i].display().to_string();
            }
        };
        for r in &mut reports {
            rename(&mut r.file);
            r.steps.iter_mut().for_each(|step| rename(&mut step.file));
        }
        let count = |v: Option<&Json>, key: &str| {
            v.and_then(|v| v.get(key))
                .and_then(Json::as_i64)
                .unwrap_or(0) as usize
        };
        let stats = result.get("stats");
        let checked = Checked {
            reports,
            suppressed: count(envelope, "suppressed"),
            refuted: count(envelope, "refuted"),
            sources,
        };
        let stats = RunStats {
            units: count(stats, "units"),
            units_checked: count(stats, "units_checked"),
            ..RunStats::default()
        };
        Ok((checked, stats))
    }
}

/// The `mcheckd` binary's entry point. Returns the process exit code.
pub fn cli_main<I: IntoIterator<Item = String>>(args: I) -> u8 {
    match cli_run(args) {
        Ok(code) => code,
        Err(CliError(msg)) => {
            eprintln!("mcheckd: {msg}");
            2
        }
    }
}

fn cli_run<I: IntoIterator<Item = String>>(args: I) -> Result<u8, CliError> {
    let mut rest: Vec<String> = Vec::new();
    let mut socket: Option<PathBuf> = None;
    let mut command: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let v = it.next().ok_or(CliError("--socket needs a path".into()))?;
                socket = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(CliError(DAEMON_USAGE.into())),
            "serve" | "check" | "invalidate" | "shutdown" if command.is_none() => {
                command = Some(arg);
            }
            _ => rest.push(arg),
        }
    }
    let command = command.ok_or(CliError(DAEMON_USAGE.into()))?;
    let socket = socket.ok_or(CliError(format!("{command} needs --socket <path>")))?;
    match command.as_str() {
        "serve" => {
            let opts = crate::parse_args(rest)?;
            serve(&opts, &socket)?;
            Ok(0)
        }
        "check" => {
            let opts = crate::parse_args(rest)?;
            let (c, _) = Remote::connect(&opts, &socket)?.check(&opts)?;
            let envelope = json_envelope(&c.reports, c.suppressed, c.refuted);
            println!("{}", envelope.to_pretty());
            Ok(u8::from(!c.reports.is_empty()))
        }
        "invalidate" => {
            let mut client = Client::connect(&socket)
                .map_err(|e| CliError(format!("{}: {e}", socket.display())))?;
            client.request("invalidate", Json::Null)?;
            println!("invalidated");
            Ok(0)
        }
        "shutdown" => match Client::connect(&socket) {
            Ok(mut client) => {
                client.request("shutdown", Json::Null)?;
                println!("daemon stopped");
                Ok(0)
            }
            // No listener: nothing to stop. Reap a stale socket file so
            // the next serve starts clean.
            Err(_) => {
                let _ = std::fs::remove_file(&socket);
                println!("no daemon running");
                Ok(0)
            }
        },
        _ => unreachable!("command is validated above"),
    }
}
