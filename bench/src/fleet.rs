//! The fleet workloads: one `mcheck` invocation per protocol of a
//! generated fleet, run in-process through `mc_cli::run_full`.
//!
//! * `ci_cold` — scale 3, product defaults (prune, refute, confirm), SARIF,
//!   no cache: the per-commit CI gate. 8 passes of 18 ops.
//! * `fleet_interproc` — scale 10, `--interproc --no-refute`, JSON: the
//!   front end and traversals do all the work. 5 passes of 60 ops.
//! * `cache_ci` — scale 3 with a probe in every file and one shared
//!   `--cache-dir` primed during set-up; before each pass a commit rewrites
//!   the probes of 5% of the files. 8 commits of 18 ops.
//!
//! Every run of a seed runs the same passes, so it ends in the same state.

use crate::harness::{
    dir_bytes, read_sources, repeat_setup, write_file, Measured, Recorder, RunConfig,
};
use crate::host::{self, JOBS, SETUP_JOBS};
use crate::layers::{self, FpMemo, Probe, Suite};
use crate::scripts::{CommitScript, EditableFile};
use crate::trace::Tracer;
use mc_cli::{
    build_driver, engine_for, parse_args, partition_refuted, partition_suppressed, render,
    run_full, Options,
};
use mc_corpus::eval::evaluate_full;
use mc_driver::{CheckEngine, Driver, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How one fleet workload invokes `mcheck`.
pub struct FleetSpec {
    scale: usize,
    flags: &'static [&'static str],
    format: &'static str,
    cached: bool,
    /// Passes of an untraced run.
    passes: usize,
    /// Passes of the traced run.
    trace_passes: usize,
}

/// The CI gate.
pub const CI_COLD: FleetSpec = FleetSpec {
    scale: 3,
    flags: &[],
    format: "sarif",
    cached: false,
    passes: 8,
    trace_passes: 1,
};

/// Interprocedural checking of a large fleet, refutation off.
pub const FLEET_INTERPROC: FleetSpec = FleetSpec {
    scale: 10,
    flags: &["--interproc", "--no-refute"],
    format: "json",
    cached: false,
    passes: 5,
    trace_passes: 1,
};

/// CI runners sharing a cache directory.
pub const CACHE_CI: FleetSpec = FleetSpec {
    scale: 3,
    flags: &[],
    format: "sarif",
    cached: true,
    passes: 8,
    trace_passes: 2,
};

/// What the traced pass needs per protocol beyond the argv.
struct TraceKit {
    suite: Suite,
    refute_off: Option<Driver>,
}

/// One protocol of the fleet, ready to check.
struct Proto {
    argv: Vec<String>,
    files: Vec<PathBuf>,
    reference: Vec<u8>,
    reference_exit: u8,
    kit: Option<TraceKit>,
}

/// The set-up result.
struct Fleet {
    protos: Vec<Proto>,
    /// `cache_ci` only: every file's editable state, path and protocol.
    editable: Vec<EditableFile>,
    paths: Vec<PathBuf>,
    owners: Vec<usize>,
    cache_dir: PathBuf,
}

/// Renders `reports` the way `run_full` does after its check: drop the
/// refuted, apply suppressions, render. Returns the bytes and exit code.
fn render_like_cli(
    opts: &Options,
    reports: Vec<Report>,
    sources: &[(String, String)],
) -> (Vec<u8>, u8) {
    let (reports, refuted) = partition_refuted(reports);
    let (reports, suppressed) = partition_suppressed(reports, sources);
    let mut out = Vec::new();
    render(
        opts.format,
        &reports,
        sources,
        suppressed,
        refuted,
        &mut out,
    );
    (out, u8::from(!reports.is_empty()))
}

/// Generates the fleet under `dir`, checks each protocol's uncached
/// output against its planted manifest to make the reference, and primes
/// the shared cache when the workload has one.
fn setup(spec: &FleetSpec, seed: u64, dir: &Path, traced: bool) -> Result<Fleet, String> {
    let cache_dir = dir.join("cache");
    let mut fleet = Fleet {
        protos: Vec::new(),
        editable: Vec::new(),
        paths: Vec::new(),
        owners: Vec::new(),
        cache_dir: cache_dir.clone(),
    };
    for (pi, proto) in mc_corpus::generate_fleet(seed, spec.scale)
        .into_iter()
        .enumerate()
    {
        let pdir = dir.join(&proto.name);
        let spec_path = pdir.join("spec.json");
        write_file(&spec_path, &mc_json::to_string_pretty(&proto.spec))?;
        let mut files = Vec::new();
        for f in &proto.files {
            let path = pdir.join(&f.name);
            let stem = f.name.trim_end_matches(".c");
            let text = if spec.cached {
                let editable = EditableFile::new(stem, &f.source);
                let text = editable.render();
                fleet.editable.push(editable);
                fleet.paths.push(path.clone());
                fleet.owners.push(pi);
                text
            } else {
                f.source.clone()
            };
            write_file(&path, &text)?;
            files.push(path);
        }
        let mut argv: Vec<String> = vec![
            "--builtin".into(),
            "--jobs".into(),
            JOBS.to_string(),
            "--spec".into(),
            spec_path.display().to_string(),
            "--format".into(),
            spec.format.into(),
        ];
        argv.extend(spec.flags.iter().map(|s| s.to_string()));
        let file_args = files.iter().map(|f| f.display().to_string());

        let ref_opts =
            parse_args(argv.iter().cloned().chain(file_args.clone())).map_err(|e| e.to_string())?;
        let single = Options {
            jobs: Some(SETUP_JOBS),
            ..ref_opts.clone()
        };
        let reports = mc_cli::run(&single).map_err(|e| format!("{}: {e}", proto.name))?;
        let kept: Vec<Report> = partition_refuted(reports.clone()).0;
        let outcome = evaluate_full(
            &proto,
            &kept,
            ref_opts.prune,
            ref_opts.interproc,
            ref_opts.refute,
        );
        if !outcome.is_exact() {
            return Err(format!(
                "{}: reference run does not match the planted manifest ({} missed, {} unexpected)",
                proto.name,
                outcome.missed.len(),
                outcome.unexpected.len()
            ));
        }
        let sources = read_sources(&files)?;
        let (reference, reference_exit) = render_like_cli(&ref_opts, reports, &sources);

        if spec.cached {
            argv.extend(["--cache-dir".to_string(), cache_dir.display().to_string()]);
        }
        argv.extend(file_args);
        let kit = if traced {
            let mut off = ref_opts.clone();
            off.refute = false;
            Some(TraceKit {
                suite: Suite::builtin(&proto.spec)?,
                refute_off: if ref_opts.refute {
                    Some(build_driver(&off).map_err(|e| e.to_string())?)
                } else {
                    None
                },
            })
        } else {
            None
        };
        let p = Proto {
            argv,
            files,
            reference,
            reference_exit,
            kit,
        };
        if spec.cached && !check_op(&p, Some(SETUP_JOBS)) {
            return Err(format!(
                "{}: priming run differs from the reference",
                proto.name
            ));
        }
        fleet.protos.push(p);
    }
    Ok(fleet)
}

/// One untraced op: `mcheck` parsed and run in-process, with `jobs` in
/// place of its `--jobs` when given; `true` when it succeeded with the
/// reference bytes and exit code.
fn check_op(p: &Proto, jobs: Option<usize>) -> bool {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = parse_args(p.argv.iter().cloned()).and_then(|mut opts| {
        opts.jobs = jobs.or(opts.jobs);
        run_full(&opts, &mut out, &mut err)
    });
    matches!(code, Ok(c) if c == p.reference_exit) && out == p.reference
}

/// Applies the next commit: rewrites the chosen files and returns, per
/// protocol, the `(source, file)` pairs that changed.
fn commit(
    fleet: &mut Fleet,
    script: &mut CommitScript,
) -> Result<Vec<Vec<(String, String)>>, String> {
    let mut per_proto = vec![Vec::new(); fleet.protos.len()];
    for i in script.next_commit(&mut fleet.editable) {
        let text = fleet.editable[i].render();
        write_file(&fleet.paths[i], &text)?;
        per_proto[fleet.owners[i]].push((text, fleet.paths[i].display().to_string()));
    }
    Ok(per_proto)
}

/// Runs one fleet workload.
pub fn run(
    spec: &FleetSpec,
    cfg: &RunConfig,
    dir: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<Measured, String> {
    let traced = tracer.is_some();
    let (mut fleet, setups) =
        repeat_setup(dir, traced, |d| setup(spec, cfg.seed, d, traced), drop)?;
    let mut script = CommitScript::new(cfg.seed);
    let loc: usize = fleet
        .protos
        .iter()
        .flat_map(|p| &p.files)
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .map(|t| t.lines().count())
        .sum();

    let Some(tr) = tracer else {
        let mut rec = Recorder::new(setups)?;
        for _ in 0..spec.passes {
            if spec.cached {
                commit(&mut fleet, &mut script)?;
            }
            rec.begin_pass()?;
            for p in &fleet.protos {
                // An op stands for one `mcheck` process, which starts with
                // no freed memory held back; without this the peak RSS
                // depended on how earlier ops' threads had used the heap.
                host::trim_heap();
                let t = Instant::now();
                let ok = check_op(p, None);
                rec.op(t.elapsed().as_secs_f64() * 1e3, ok);
            }
            rec.end_pass(loc)?;
        }
        return Ok(Measured::Timed(rec));
    };

    let mut memo = FpMemo::default();
    for (state, path) in fleet.editable.iter().zip(&fleet.paths) {
        memo.prime(&[(state.render(), path.display().to_string())])?;
    }
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..spec.trace_passes {
        let changed = if spec.cached {
            commit(&mut fleet, &mut script)?
        } else {
            vec![Vec::new(); fleet.protos.len()]
        };
        for (p, changed) in fleet.protos.iter().zip(&changed) {
            let before = dir_bytes(&fleet.cache_dir);
            tr.begin_op();
            let op = tr.op();
            let memo = spec.cached.then_some(&mut memo);
            let result = traced_op(tr, p, changed, memo);
            tr.end_op();
            attempted += 1;
            match result {
                Ok((ok, work)) => {
                    failed += usize::from(!ok);
                    layers::count_tokens(tr, op, &work);
                }
                Err(e) => {
                    eprintln!("op failed: {e}");
                    failed += 1;
                }
            }
            if spec.cached {
                let written = dir_bytes(&fleet.cache_dir).saturating_sub(before);
                tr.add_to(op, "mc_driver.cache.bytes_written", written as f64);
            }
        }
    }
    Ok(Measured::Traced { attempted, failed })
}

/// One traced op: `run_full`'s steps called one by one through the
/// crates' public entry points, then the layer probes. Returns whether the
/// rendered bytes match the reference, plus the probes' work set.
fn traced_op(
    tr: &mut Tracer,
    p: &Proto,
    changed: &[(String, String)],
    memo: Option<&mut FpMemo>,
) -> Result<(bool, Vec<(String, String)>), String> {
    let kit = p.kit.as_ref().expect("traced set-up builds the kit");
    let sources = tr.time("mc_cli.read", || read_sources(&p.files))?;
    let opts = parse_args(p.argv.iter().cloned()).map_err(|e| e.to_string())?;
    let driver = tr.time("mc_cli.build_driver", || build_driver(&opts));
    let driver = driver.map_err(|e| e.to_string())?;
    let checked = tr.time("mc_driver.engine", || {
        let mut engine = if opts.cache_dir.is_some() {
            engine_for(&opts)?
        } else {
            CheckEngine::in_memory()
        };
        engine
            .check_sources(&driver, &sources)
            .map_err(|e| mc_cli::CliError(e.to_string()))
    });
    let (mut reports, stats) = checked.map_err(|e| e.to_string())?;
    tr.count("mc_driver.engine.units_checked", stats.units_checked as f64);
    tr.count(
        "mc_driver.engine.functions_rechecked",
        stats.functions_rechecked as f64,
    );
    tr.count(
        "mc_driver.engine.functions_replayed",
        stats.functions_replayed as f64,
    );
    tr.count(
        "mc_driver.cache.hit_ratio",
        1.0 - stats.units_checked as f64 / stats.units.max(1) as f64,
    );
    layers::post_check(tr, &driver, &mut reports, &sources);
    let (out, exit) = tr.time("mc_cli.render", || {
        render_like_cli(&opts, reports, &sources)
    });
    tr.count("mc_cli.render.bytes", out.len() as f64);
    let ok = out == p.reference && exit == p.reference_exit;

    let work = if memo.is_some() {
        changed.to_vec()
    } else {
        sources
    };
    layers::probe_layers(
        tr,
        Probe {
            driver: &driver,
            suite: &kit.suite,
            work: &work,
            memo,
            refute_off: kit.refute_off.as_ref(),
        },
    )?;
    Ok((ok, work))
}
