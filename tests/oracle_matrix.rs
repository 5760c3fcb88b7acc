//! The oracle matrix: however `mcheck` is run, it must print the same
//! bytes. For each protocol of the seed corpus plus two scale-10 fleet
//! families, `mc_cli::run_full` runs in-process over
//! {`--jobs` 1/4/8} × {uncached, cold cache, warm cache} ×
//! {single process, 1-shard and 4-shard farm folded by `merge`}, under the
//! default flags and under `--interproc` (refutation is on by default, so
//! verdicts and solver models are in every cell). Every cell's stdout and
//! exit code must equal an uncached single-process run at one worker. The
//! metal interpreter, which the driver never runs and tests register
//! through the adapter in `common`, is held to the same bytes.
//!
//! On unix the matrix has a transport axis: `--watch` in process and
//! `--watch --daemon-socket` against a `daemon::serve` thread must print,
//! after their one `[watch]` header line, exactly the bytes of `run_full`.
//! One protocol also drives a persistent daemon through an edit and its
//! revert, comparing batch output, the daemon's `check` envelope and the
//! socket watch at every step.

mod common;

use flash_mc::checkers::flash::FlashSpec;
use flash_mc::corpus::{generate_fleet, Protocol, DEFAULT_SEED};
use flash_mc::driver::Driver;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The seed corpus (family 0 of any fleet) plus two scale-10 families,
/// generated once per test binary.
fn corpus() -> &'static [Protocol] {
    static CORPUS: OnceLock<Vec<Protocol>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        generate_fleet(DEFAULT_SEED, 10)
            .into_iter()
            .enumerate()
            .filter(|(i, p)| *i < 6 || p.name == "bitvector_f3" || p.name == "dyn_ptr_f7")
            .map(|(_, p)| p)
            .collect()
    })
}

/// Writes protocol `name` under a fresh scratch directory of its own for
/// test `test` (tests run concurrently as threads of one process, so two
/// tests on one protocol must not share files, caches or sockets);
/// returns the directory, the spec path and the source paths.
fn emit(name: &str, test: &str) -> (PathBuf, String, Vec<String>) {
    let proto = corpus()
        .iter()
        .find(|p| p.name == name)
        .expect("protocol in the corpus slice");
    let dir = std::env::temp_dir().join(format!("mc-oracle-{name}-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, mc_json::to_string_pretty(&proto.spec)).unwrap();
    let files = proto
        .files
        .iter()
        .map(|f| {
            let path = dir.join(&f.name);
            std::fs::write(&path, &f.source).unwrap();
            path.display().to_string()
        })
        .collect();
    (dir, spec.display().to_string(), files)
}

/// `run_full` over `args`: the exit code and stdout bytes (stderr carries
/// only human-facing notes).
fn run(args: &[String]) -> (u8, Vec<u8>) {
    let opts = mc_cli::parse_args(args.iter().cloned()).expect("args parse");
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = mc_cli::run_full(&opts, &mut out, &mut err).expect("run succeeds");
    (code, out)
}

/// `run_full`'s output for `args` (an uncached `--builtin --spec` run)
/// with the built-in suite's metal programs run by the interpreter.
fn run_interp(args: &[String]) -> (u8, Vec<u8>) {
    let opts = mc_cli::parse_args(args.iter().cloned()).expect("args parse");
    let spec_path = opts.spec.as_ref().expect("matrix runs pass --spec");
    let spec: FlashSpec =
        mc_json::from_str(&std::fs::read_to_string(spec_path).unwrap()).expect("spec parses");
    let mut driver = Driver::new();
    driver
        .prune(opts.prune)
        .interproc(opts.interproc)
        .refute(opts.refute)
        .set_jobs(opts.jobs);
    common::interp_suite(&mut driver, &spec, None);
    let sources: Vec<(String, String)> = opts
        .files
        .iter()
        .map(|f| (std::fs::read_to_string(f).unwrap(), f.display().to_string()))
        .collect();
    let reports = driver.check_sources(&sources).expect("checks");
    let c = mc_cli::checked_reports(&driver, &opts, &sources, reports).expect("post-check");
    let mut out = Vec::new();
    mc_cli::render(
        opts.format,
        &c.reports,
        &c.sources,
        c.suppressed,
        c.refuted,
        &mut out,
    );
    (u8::from(!c.reports.is_empty()), out)
}

/// Runs the whole matrix for one protocol.
fn matrix(name: &str) {
    let (dir, spec, files) = emit(name, "matrix");
    for (tag, flags) in [
        ("default", &["--format", "json"][..]),
        ("interproc", &["--interproc", "--format", "text"][..]),
    ] {
        let args = |jobs: usize, extra: &[String]| -> Vec<String> {
            let mut a: Vec<String> = ["--builtin", "--spec", &spec, "--jobs", &jobs.to_string()]
                .iter()
                .chain(flags)
                .map(|s| s.to_string())
                .collect();
            a.extend(extra.iter().cloned());
            a.extend(files.iter().cloned());
            a
        };
        let truth = run(&args(1, &[]));
        assert!(!truth.1.is_empty(), "{name}/{tag}: empty output");
        let same = |cell: &str, got: (u8, Vec<u8>)| {
            assert!(
                got == truth,
                "{name}/{tag}: {cell} differs from the uncached single-process run"
            );
        };
        same("metal interpreter", run_interp(&args(1, &[])));
        #[cfg(unix)]
        transport::cells(&format!("{name}/{tag}"), &dir, &args(1, &[]), &truth.1);
        for jobs in [1usize, 4, 8] {
            if jobs > 1 {
                same(&format!("uncached, jobs {jobs}"), run(&args(jobs, &[])));
            }
            let cache = dir
                .join(format!("cache-{tag}-{jobs}"))
                .display()
                .to_string();
            let cached = args(jobs, &["--cache-dir".into(), cache]);
            same(&format!("cold cache, jobs {jobs}"), run(&cached));
            same(&format!("warm cache, jobs {jobs}"), run(&cached));
            for shards in [1u32, 4] {
                let cache = dir.join(format!("farm-{tag}-{jobs}-{shards}"));
                let cache_arg = ["--cache-dir".to_string(), cache.display().to_string()];
                for i in 0..shards {
                    let mut shard = cache_arg.to_vec();
                    shard.extend(["--shard".into(), format!("{i}/{shards}")]);
                    assert_eq!(run(&args(jobs, &shard)), (0, Vec::new()), "{name}/{tag}");
                }
                let mut merge = vec!["merge".to_string()];
                merge.extend(args(jobs, &cache_arg));
                let cell = format!("{shards}-shard merge, jobs {jobs}");
                same(&format!("cold {cell}"), run(&merge));
                same(&format!("warm {cell}"), run(&merge));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The transport axis: the watch loop in process and over a daemon's
/// socket, and a daemon's `check` envelope.
#[cfg(unix)]
mod transport {
    use mc_cli::daemon::{serve, Client};
    use mc_json::Json;
    use std::path::{Path, PathBuf};
    use std::thread::JoinHandle;

    /// A `daemon::serve` thread on a socket.
    pub struct Daemon {
        socket: PathBuf,
        thread: JoinHandle<Result<(), mc_cli::CliError>>,
    }

    impl Daemon {
        /// Serves `args` on `socket` and waits until it accepts.
        pub fn start(args: &[String], socket: &Path) -> Daemon {
            let opts = mc_cli::parse_args(args.iter().cloned()).expect("args parse");
            let socket = socket.to_path_buf();
            let thread = {
                let socket = socket.clone();
                std::thread::spawn(move || serve(&opts, &socket))
            };
            for _ in 0..600 {
                if Client::connect(&socket).is_ok() {
                    return Daemon { socket, thread };
                }
                assert!(!thread.is_finished(), "serve ended: {:?}", thread.join());
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            panic!("{}: daemon did not come up", socket.display());
        }

        /// The `check` envelope for `files`, pretty-printed as
        /// `--format json` prints it, and the exit code.
        pub fn check(&self, files: &[String]) -> (u8, Vec<u8>) {
            let files = files.iter().map(|f| Json::Str(f.clone())).collect();
            let params = mc_json::object(vec![("files", Json::Array(files))]);
            let mut client = Client::connect(&self.socket).expect("connect");
            let result = client.request("check", params).expect("check");
            let exit = result.get("exit").and_then(Json::as_i64).expect("exit");
            let envelope = result.get("reports").expect("envelope").to_pretty();
            (exit as u8, format!("{envelope}\n").into_bytes())
        }

        /// Sends `shutdown`; `serve` must return `Ok` and unlink its socket.
        pub fn stop(self) {
            let mut client = Client::connect(&self.socket).expect("connect");
            client.request("shutdown", Json::Null).expect("shutdown");
            self.thread.join().unwrap().expect("serve returns Ok");
            assert!(!self.socket.exists(), "the socket file is unlinked");
        }
    }

    /// One `--watch --watch-iterations 1` cycle over `args` (plus
    /// `--daemon-socket` when given): the output after its header line.
    pub fn watch(args: &[String], socket: Option<&Path>) -> Vec<u8> {
        let mut opts = mc_cli::parse_args(args.iter().cloned()).expect("args parse");
        opts.watch = true;
        opts.watch_iterations = Some(1);
        opts.daemon_socket = socket.map(Path::to_path_buf);
        let mut out = Vec::new();
        mc_cli::run_watch(&opts, &mut out).expect("watch runs");
        let newline = out.iter().position(|&b| b == b'\n').expect("a header line");
        let header = String::from_utf8_lossy(&out[..newline]);
        assert!(header.starts_with("[watch] checked "), "{header}");
        out.split_off(newline + 1)
    }

    /// The watch cells of one matrix row: each prints `truth` after its
    /// header.
    pub fn cells(row: &str, dir: &Path, args: &[String], truth: &[u8]) {
        assert!(
            watch(args, None) == truth,
            "{row}: in-process watch differs"
        );
        let daemon = Daemon::start(args, &dir.join("d.sock"));
        let socket = Some(daemon.socket.as_path());
        assert!(watch(args, socket) == truth, "{row}: socket watch differs");
        daemon.stop();
    }
}

/// A persistent daemon through an edit that plants a bug and its revert:
/// at every step batch output, the daemon's `check` envelope and the socket
/// watch print the same bytes; the edit changes them and the revert
/// restores the pristine bytes.
#[cfg(unix)]
#[test]
fn transport_edit_then_revert_through_a_persistent_daemon() {
    let (dir, spec, files) = emit("bitvector", "edit");
    let mut args: Vec<String> = ["--builtin", "--spec", &spec, "--format", "json"]
        .map(String::from)
        .to_vec();
    args.extend(files.iter().cloned());
    let socket = dir.join("d.sock");
    let daemon = transport::Daemon::start(&args, &socket);
    let step = |label: &str| {
        let batch = run(&args);
        assert!(
            daemon.check(&files) == batch,
            "{label}: daemon check differs"
        );
        let watched = transport::watch(&args, Some(&socket));
        assert!(watched == batch.1, "{label}: socket watch differs");
        batch.1
    };
    let probe = &files[0];
    let pristine_src = std::fs::read_to_string(probe).unwrap();
    let pristine = step("pristine");
    std::fs::write(
        probe,
        format!("{pristine_src}void daemon_probe(void) {{ long m; m = MISCBUS_READ_DB(a, b); }}\n"),
    )
    .unwrap();
    let edited = step("edited");
    std::fs::write(probe, &pristine_src).unwrap();
    let reverted = step("reverted");
    assert!(edited != pristine, "the planted probe bug changed nothing");
    assert!(
        reverted == pristine,
        "the revert did not restore the output"
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_bitvector() {
    matrix("bitvector");
}

#[test]
fn seed_dyn_ptr() {
    matrix("dyn_ptr");
}

#[test]
fn seed_sci() {
    matrix("sci");
}

#[test]
fn seed_coma() {
    matrix("coma");
}

#[test]
fn seed_rac() {
    matrix("rac");
}

#[test]
fn seed_common() {
    matrix("common");
}

#[test]
fn fleet_bitvector_f3() {
    matrix("bitvector_f3");
}

#[test]
fn fleet_dyn_ptr_f7() {
    matrix("dyn_ptr_f7");
}
