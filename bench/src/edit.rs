//! The `edit_loop` workload: editor saves of the seed corpus's
//! `bitvector` protocol, each followed by one `check` request to an
//! `mcheckd` served in this process over a unix socket.
//!
//! The daemon runs on its own thread via `mc_cli::daemon::serve` and is
//! never sent `shutdown` (which exits the process); it ends with the run.

use crate::harness::{
    dir_bytes, read_sources, repeat_setup, write_file, Measured, Recorder, RunConfig,
};
use crate::host::{JOBS, SETUP_JOBS};
use crate::layers::{self, FpMemo, Probe, Suite};
use crate::scripts::{Edit, EditScript, EditableFile};
use crate::trace::Tracer;
use mc_cli::daemon::{serve, Client};
use mc_cli::{
    build_driver, engine_for, json_envelope, parse_args, partition_refuted, partition_suppressed,
    CliError, Options,
};
use mc_corpus::eval::evaluate_full;
use mc_driver::{CheckEngine, Driver, Report};
use mc_json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests per pass (the unit of `kloc_per_s`).
const BLOCK: usize = 25;
/// Passes of an untraced run: 150 requests, so p90 has 15 samples beyond
/// it.
const BLOCKS: usize = 6;
/// Passes of the traced run.
const TRACE_BLOCKS: usize = 2;

/// The in-process copy of the daemon's pipeline the traced pass times.
struct Shadow {
    driver: Driver,
    engine: CheckEngine,
    suite: Suite,
    refute_off: Driver,
}

/// The set-up result.
struct Session {
    client: Client,
    files: Vec<PathBuf>,
    editable: Vec<EditableFile>,
    /// Each file's current line count.
    lines: Vec<usize>,
    params: Json,
    reference: Vec<String>,
    reference_exit: i64,
    cache_dir: PathBuf,
    shadow: Option<Shadow>,
}

/// Report fingerprints, in output order, of one `check` response.
fn fingerprints(result: &Json) -> Option<Vec<String>> {
    result
        .get("reports")?
        .get("reports")?
        .as_array()?
        .iter()
        .map(|r| {
            r.get("fingerprint")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .collect()
}

impl Session {
    /// Sends one `check` request; `true` when it answered the reference
    /// fingerprints and exit code.
    fn check(&mut self) -> Result<(bool, Json), CliError> {
        let result = self.client.request("check", self.params.clone())?;
        let ok = fingerprints(&result).as_ref() == Some(&self.reference)
            && result.get("exit").and_then(Json::as_i64) == Some(self.reference_exit);
        Ok((ok, result))
    }

    /// Applies `edit` to disk; returns the new `(source, file)` when the
    /// file's bytes changed.
    fn apply(&mut self, edit: Edit) -> Result<Option<(String, String)>, String> {
        let i = edit.file();
        let text = self.editable[i].render();
        write_file(&self.files[i], &text)?;
        self.lines[i] = text.lines().count();
        Ok((!matches!(edit, Edit::Resave { .. }))
            .then(|| (text, self.files[i].display().to_string())))
    }
}

/// Writes the protocol, makes the reference from an uncached run checked
/// against the manifest, starts the daemon and primes it.
fn setup(seed: u64, dir: &Path, traced: bool) -> Result<Session, String> {
    let proto = mc_corpus::generate_fleet(seed, 1)
        .into_iter()
        .find(|p| p.name == "bitvector")
        .ok_or("the seed corpus has no bitvector protocol")?;
    let spec_path = dir.join("spec.json");
    write_file(&spec_path, &mc_json::to_string_pretty(&proto.spec))?;
    let (mut files, mut editable, mut lines) = (Vec::new(), Vec::new(), Vec::new());
    for f in &proto.files {
        let e = EditableFile::new(f.name.trim_end_matches(".c"), &f.source);
        let path = dir.join(&f.name);
        let text = e.render();
        write_file(&path, &text)?;
        files.push(path);
        editable.push(e);
        lines.push(text.lines().count());
    }
    let file_args: Vec<String> = files.iter().map(|f| f.display().to_string()).collect();
    let base = [
        "--builtin",
        "--jobs",
        &JOBS.to_string(),
        "--spec",
        &spec_path.display().to_string(),
    ]
    .map(str::to_string);
    let cli = |extra: &[String]| {
        parse_args(base.iter().chain(extra).chain(&file_args).cloned()).map_err(|e| e.to_string())
    };

    let ref_opts = cli(&[])?;
    let single = Options {
        jobs: Some(SETUP_JOBS),
        ..ref_opts.clone()
    };
    let reports = mc_cli::run(&single).map_err(|e| e.to_string())?;
    let (kept, _) = partition_refuted(reports);
    let outcome = evaluate_full(
        &proto,
        &kept,
        ref_opts.prune,
        ref_opts.interproc,
        ref_opts.refute,
    );
    if !outcome.is_exact() {
        return Err(format!(
            "bitvector: reference run does not match the planted manifest ({} missed, {} unexpected)",
            outcome.missed.len(),
            outcome.unexpected.len()
        ));
    }
    let (kept, _) = partition_suppressed(kept, &read_sources(&files)?);
    let reference: Vec<String> = kept.iter().map(Report::fingerprint).collect();

    let cache_dir = dir.join("cache");
    let daemon_opts = cli(&["--cache-dir".into(), cache_dir.display().to_string()])?;
    let socket = dir.join("d.sock");
    // `serve` returns only when binding fails, so the handle is joined
    // only then; otherwise the thread lives until the process exits.
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || serve(&daemon_opts, &socket))
    };
    let client = connect(&socket, server)?;
    let shadow = if traced {
        let opts = cli(&[
            "--cache-dir".into(),
            dir.join("shadow").display().to_string(),
        ])?;
        let mut off = opts.clone();
        off.refute = false;
        Some(Shadow {
            driver: build_driver(&opts).map_err(|e| e.to_string())?,
            engine: engine_for(&opts).map_err(|e| e.to_string())?,
            refute_off: build_driver(&off).map_err(|e| e.to_string())?,
            suite: Suite::builtin(&proto.spec)?,
        })
    } else {
        None
    };
    let params = mc_json::object(vec![(
        "files",
        Json::Array(file_args.iter().map(|f| Json::Str(f.clone())).collect()),
    )]);
    let mut session = Session {
        client,
        files,
        editable,
        lines,
        params,
        reference_exit: i64::from(!reference.is_empty()),
        reference,
        cache_dir,
        shadow,
    };
    if !session.check().map_err(|e| e.to_string())?.0 {
        return Err("the daemon's priming check differs from the reference".into());
    }
    if let Some(shadow) = &mut session.shadow {
        let sources = read_sources(&session.files)?;
        shadow
            .engine
            .check_sources(&shadow.driver, &sources)
            .map_err(|e| e.to_string())?;
    }
    Ok(session)
}

/// Connects to the daemon thread once its socket is bound.
fn connect(
    socket: &Path,
    server: std::thread::JoinHandle<Result<(), CliError>>,
) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(client) = Client::connect(socket) {
            return Ok(client);
        }
        if server.is_finished() {
            let why = match server.join() {
                Ok(Err(e)) => e.to_string(),
                _ => "daemon thread ended".into(),
            };
            return Err(why);
        }
        if Instant::now() > deadline {
            return Err(format!("{}: daemon did not come up", socket.display()));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Runs `edit_loop`.
pub fn run(cfg: &RunConfig, dir: &Path, tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let traced = tracer.is_some();
    // An earlier set-up's daemon keeps running idle; drop its memo tables.
    let retire = |mut s: Session| {
        let _ = s.client.request("invalidate", Json::Null);
    };
    let (mut s, setups) = repeat_setup(dir, traced, |d| setup(cfg.seed, d, traced), retire)?;
    let mut script = EditScript::new(cfg.seed);

    let Some(tr) = tracer else {
        let mut rec = Recorder::new(setups)?;
        for _ in 0..BLOCKS {
            rec.begin_pass()?;
            let mut loc = 0;
            for _ in 0..BLOCK {
                let edit = script.next_edit(&mut s.editable);
                s.apply(edit)?;
                loc += s.lines.iter().sum::<usize>();
                let t = Instant::now();
                let ok = matches!(s.check(), Ok((true, _)));
                rec.op(t.elapsed().as_secs_f64() * 1e3, ok);
            }
            rec.end_pass(loc)?;
        }
        return Ok(Measured::Timed(rec));
    };

    let mut memo = FpMemo::default();
    memo.prime(&read_sources(&s.files)?)?;
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..TRACE_BLOCKS * BLOCK {
        let edit = script.next_edit(&mut s.editable);
        let changed = s.apply(edit)?;
        let before = dir_bytes(&s.cache_dir);
        tr.begin_op();
        let op = tr.op();
        let result = traced_op(tr, &mut s, changed.as_slice(), &mut memo);
        tr.end_op();
        attempted += 1;
        match result {
            Ok(ok) => failed += usize::from(!ok),
            Err(e) => {
                eprintln!("op failed: {e}");
                failed += 1;
            }
        }
        layers::count_tokens(tr, op, changed.as_slice());
        let written = dir_bytes(&s.cache_dir).saturating_sub(before);
        tr.add_to(op, "mc_driver.cache.bytes_written", written as f64);
    }
    Ok(Measured::Traced { attempted, failed })
}

/// One traced op: the daemon request, then the same check in-process
/// (`checked_reports`' steps plus the envelope) to split the request into
/// engine, confirmation, rendering and transport, then the layer probes.
fn traced_op(
    tr: &mut Tracer,
    s: &mut Session,
    changed: &[(String, String)],
    memo: &mut FpMemo,
) -> Result<bool, String> {
    let ((ok, result), request_ms) = {
        let (r, ms) = tr.timed("mc_cli.daemon.request", || s.check());
        (r.map_err(|e| e.to_string())?, ms)
    };
    let stat = |key: &str| {
        let v = result.get("stats").and_then(|st| st.get(key));
        v.and_then(Json::as_i64).unwrap_or(0) as f64
    };
    tr.count("mc_driver.engine.units_checked", stat("units_checked"));
    tr.count(
        "mc_driver.engine.functions_rechecked",
        stat("functions_rechecked"),
    );
    tr.count(
        "mc_driver.engine.functions_replayed",
        stat("functions_replayed"),
    );
    tr.count(
        "mc_driver.cache.hit_ratio",
        1.0 - stat("units_checked") / stat("units").max(1.0),
    );

    let shadow = s.shadow.as_mut().expect("traced set-up builds the shadow");
    tr.enter("mc_cli.in_process");
    let sources = tr.time("mc_cli.read", || read_sources(&s.files))?;
    let checked = tr.time("mc_driver.engine", || {
        shadow.engine.check_sources(&shadow.driver, &sources)
    });
    let (mut reports, _) = checked.map_err(|e| e.to_string())?;
    layers::post_check(tr, &shadow.driver, &mut reports, &sources);
    let (envelope, kept) = tr.time("mc_cli.render", || {
        let (reports, refuted) = partition_refuted(reports);
        let (reports, suppressed) = partition_suppressed(reports, &sources);
        let kept: Vec<String> = reports.iter().map(Report::fingerprint).collect();
        (
            json_envelope(&reports, suppressed, refuted).to_compact(),
            kept,
        )
    });
    let in_process_ms = tr.exit_ms();
    tr.count("mc_cli.render.bytes", envelope.len() as f64);
    tr.count("mc_cli.daemon.overhead.ms", request_ms - in_process_ms);

    layers::probe_layers(
        tr,
        Probe {
            driver: &shadow.driver,
            suite: &shadow.suite,
            work: changed,
            memo: Some(memo),
            refute_off: Some(&shadow.refute_off),
        },
    )?;
    Ok(ok && kept == s.reference)
}
