//! The traced pass's layer calls: each crate's public entry point, called
//! from outside over an op's inputs.
//!
//! The product's check is one call, so the layers inside it are measured
//! by calling them again beside it: parse, CFG build, fingerprints,
//! summaries, candidate plans, traversals and each native checker's
//! function pass, all single-threaded over the op's *work set* — every
//! file for a batch op, only the files whose bytes changed for an engine
//! op, and there only the functions whose fingerprint changed. Symbolic
//! refutation has no public per-report entry point, so its cost is the
//! difference between an engine check with refutation on and one with it
//! off over the same work set. Whole-program checker passes need facts
//! the public API does not expose and are not probed.

use crate::trace::Tracer;
use mc_ast::{parse_translation_unit, Fingerprint, FnFingerprint, Function, Lexer};
use mc_cfg::{run_traversal_with, Cfg, SummaryLookup};
use mc_checkers::flash::FlashSpec;
use mc_checkers::{alloc_check, buffer_mgmt, directory, exec_restrict, lanes, send_wait};
use mc_driver::{
    CheckEngine, CheckSink, CheckedUnit, Checker, Driver, FunctionContext, Report, Summaries,
    Verdict,
};
use mc_metal::{CandidatePlan, CompiledMachine, CompiledProgram, MetalProgram};
use std::collections::HashMap;

/// The built-in checker suite as standalone objects (what
/// [`mc_checkers::all_checkers`] registers on a driver).
pub struct Suite {
    compiled: Vec<CompiledProgram>,
    native: Vec<Box<dyn Checker>>,
}

impl Suite {
    /// Compiles the built-in metal checkers and builds the native ones for
    /// `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message if an embedded metal source fails to compile.
    pub fn builtin(spec: &FlashSpec) -> Result<Suite, String> {
        let compiled = [
            mc_checkers::WAIT_FOR_DB_METAL,
            mc_checkers::MSGLEN_METAL,
            mc_checkers::REFCOUNT_BUMP_METAL,
        ]
        .iter()
        .map(|src| {
            let prog = MetalProgram::parse(src).map_err(|e| e.to_string())?;
            CompiledProgram::compile(&prog).map_err(|e| e.to_string())
        })
        .collect::<Result<_, String>>()?;
        let native: Vec<Box<dyn Checker>> = vec![
            Box::new(buffer_mgmt::BufferMgmt::new(spec.clone())),
            Box::new(lanes::Lanes::new(spec.clone())),
            Box::new(exec_restrict::ExecRestrict::new(spec.clone())),
            Box::new(alloc_check::AllocCheck::new()),
            Box::new(directory::Directory::new(spec.clone())),
            Box::new(send_wait::SendWait::new()),
        ];
        Ok(Suite { compiled, native })
    }
}

/// Each file's function fingerprints as last seen, so an engine op's
/// probes re-run only the functions the engine re-checks: those whose
/// fingerprint changed.
#[derive(Debug, Default)]
pub struct FpMemo(HashMap<String, HashMap<String, FnFingerprint>>);

impl FpMemo {
    /// Records `sources` as the current state without tracing.
    ///
    /// # Errors
    ///
    /// Returns the parse error of a malformed source.
    pub fn prime(&mut self, sources: &[(String, String)]) -> Result<(), String> {
        for (src, file) in sources {
            let unit = parse_translation_unit(src, file).map_err(|e| e.to_string())?;
            self.red(file, &unit.functions().collect::<Vec<_>>());
        }
        Ok(())
    }

    /// Which of `functions` changed since `file` was last seen; records
    /// their fingerprints.
    fn red(&mut self, file: &str, functions: &[&Function]) -> Vec<bool> {
        let now: Vec<(String, FnFingerprint)> = functions
            .iter()
            .map(|f| (f.name.clone(), Fingerprint::of_function(f)))
            .collect();
        let before = self.0.remove(file).unwrap_or_default();
        let red = now
            .iter()
            .map(|(name, fp)| before.get(name) != Some(fp))
            .collect();
        self.0.insert(file.to_string(), now.into_iter().collect());
        red
    }
}

/// What one op's probes run over.
pub struct Probe<'a> {
    /// The op's driver (traversal, interproc and refute settings).
    pub driver: &'a Driver,
    /// The same suite as standalone checkers.
    pub suite: &'a Suite,
    /// `(source, file)` pairs to re-run the layers over.
    pub work: &'a [(String, String)],
    /// Set for engine ops: restricts checking to changed functions.
    pub memo: Option<&'a mut FpMemo>,
    /// A copy of `driver` with refutation off; `None` when the workload
    /// does not refute.
    pub refute_off: Option<&'a Driver>,
}

/// Runs every layer probe inside the current op.
///
/// # Errors
///
/// Returns a message when a work source fails to parse or check.
pub fn probe_layers(tr: &mut Tracer, probe: Probe<'_>) -> Result<(), String> {
    let Probe {
        driver,
        suite,
        work,
        memo,
        refute_off,
    } = probe;
    if work.is_empty() {
        return Ok(());
    }
    let parsed = tr.time("mc_ast.parse", || {
        work.iter()
            .map(|(src, file)| parse_translation_unit(src, file))
            .collect::<Result<Vec<_>, _>>()
    });
    let parsed = parsed.map_err(|e| e.to_string())?;
    let functions: usize = parsed.iter().map(|u| u.functions().count()).sum();
    tr.count("mc_ast.parse.functions", functions as f64);
    let units: Vec<CheckedUnit> = tr.time("mc_cfg.build", || {
        parsed.into_iter().map(CheckedUnit::new).collect()
    });
    let blocks: usize = units
        .iter()
        .flat_map(|u| u.cfgs.iter().map(|c| c.blocks.len()))
        .sum();
    tr.count("mc_cfg.build.blocks", blocks as f64);

    let red: Vec<Vec<bool>> = match memo {
        None => units.iter().map(|u| vec![true; u.cfgs.len()]).collect(),
        Some(memo) => tr.time("mc_ast.fingerprint", || {
            units
                .iter()
                .zip(work)
                .map(|(u, (src, file))| {
                    std::hint::black_box(Fingerprint::new(src, &u.unit));
                    memo.red(file, &u.unit.functions().collect::<Vec<_>>())
                })
                .collect()
        }),
    };
    let fns: Vec<(&CheckedUnit, &Function, &Cfg)> = units
        .iter()
        .zip(&red)
        .flat_map(|(u, red)| {
            u.functions()
                .zip(red)
                .filter(|(_, &r)| r)
                .map(move |((f, cfg), _)| (u, f, cfg))
        })
        .collect();
    if fns.is_empty() {
        return Ok(());
    }

    let refs: Vec<&CheckedUnit> = units.iter().collect();
    let summaries = driver.needs_summaries().then(|| {
        tr.time("mc_driver.summaries", || {
            Summaries::compute(driver, &refs, driver.interproc_enabled())
        })
    });
    if let Some(s) = &summaries {
        tr.count("mc_driver.summaries.computed", s.stats().computed as f64);
        tr.count(
            "mc_driver.summaries.call_sites_resolved",
            s.stats().call_sites_resolved as f64,
        );
    }
    let local = summaries.as_ref().filter(|_| driver.interproc_enabled());
    let oracle = local.map(|s| s as &dyn SummaryLookup);
    let traversal = driver.traversal();

    let progs: Vec<&CompiledProgram> = suite.compiled.iter().collect();
    let plans: Vec<Vec<CandidatePlan<'_>>> = tr.time("mc_metal.plan", || {
        fns.iter()
            .map(|(_, _, cfg)| CandidatePlan::build_many(&progs, cfg))
            .collect()
    });
    let plan_attempts: u64 = plans.iter().flatten().map(|p| p.attempts).sum();
    tr.count("mc_metal.plan.attempts", plan_attempts as f64);
    let scanned = tr.time("mc_metal.traverse", || {
        let mut scanned = 0u64;
        for ((_, _, cfg), plans) in fns.iter().zip(&plans) {
            for (prog, plan) in progs.iter().zip(plans) {
                let mut machine = CompiledMachine::with_plan(prog, plan);
                let init = machine.start_state();
                run_traversal_with(cfg, &mut machine, init, traversal, oracle);
                scanned += machine.candidates;
            }
        }
        scanned
    });
    tr.count("mc_metal.traverse.attempts", scanned as f64);

    for checker in &suite.native {
        let name = format!("mc_checkers.{}", checker.name());
        let reports = tr.time(&name, || {
            let mut reports = 0;
            for (unit, function, cfg) in &fns {
                let ctx = FunctionContext {
                    file: &unit.unit.file,
                    unit: &unit.unit,
                    function,
                    cfg,
                    traversal,
                    summaries: local,
                };
                let mut sink = CheckSink::new();
                checker.check_function(&ctx, &mut sink);
                reports += sink.len();
            }
            reports
        });
        tr.count(&format!("{name}.reports"), reports as f64);
    }

    if let Some(off) = refute_off {
        let check = |d: &Driver| CheckEngine::in_memory().check_sources(d, work);
        let (on, on_ms) = tr.timed("mc_symx.refute.on", || check(driver));
        let (off, off_ms) = tr.timed("mc_symx.refute.off", || check(off));
        on.and(off).map_err(|e| e.to_string())?;
        tr.count("mc_symx.refute.ms", on_ms - off_ms);
    }
    Ok(())
}

/// Counts the work set's tokens into `op`'s values (outside any span:
/// lexing again is not part of the op).
pub fn count_tokens(tr: &mut Tracer, op: usize, work: &[(String, String)]) {
    let tokens: usize = work
        .iter()
        .filter_map(|(src, _)| Lexer::new(src).tokenize().ok())
        .map(|(tokens, _)| tokens.len())
        .sum();
    tr.add_to(op, "mc_ast.parse.tokens", tokens as f64);
}

/// `mc_cli`'s steps between the check and the output, as `run_full` and
/// the daemon take them: load diagnostics, confirmation (when refuting),
/// confidence order. Also records the checked reports' verdict counts.
pub fn post_check(
    tr: &mut Tracer,
    driver: &Driver,
    reports: &mut Vec<Report>,
    sources: &[(String, String)],
) {
    count_verdicts(tr, reports);
    reports.extend(driver.metal_load_diagnostics());
    if driver.refute_enabled() {
        promote(tr, reports, sources);
    }
    Report::sort_by_confidence(reports);
}

/// Records the refutation verdict counts of freshly checked reports.
fn count_verdicts(tr: &mut Tracer, reports: &[Report]) {
    let of = |v: Verdict| reports.iter().filter(|r| r.verdict == v).count() as f64;
    tr.count("mc_symx.refute.sat", of(Verdict::Sat));
    tr.count("mc_symx.refute.refuted", of(Verdict::Refuted));
}

/// Promotes `sat` reports whose model replays concretely, calling
/// `mc_sim` in the order `mc_cli`'s confirmation step does: build the
/// program once, then clone and replay it per replayable report.
fn promote(tr: &mut Tracer, reports: &mut [Report], sources: &[(String, String)]) {
    if !reports.iter().any(|r| r.verdict == Verdict::Sat) {
        return;
    }
    let Ok(program) = tr.time("mc_sim.program", || mc_sim::Program::from_sources(sources)) else {
        return;
    };
    let (mut attempts, mut confirmed) = (0, 0);
    for r in reports.iter_mut() {
        if r.verdict != Verdict::Sat || !mc_sim::replayable_checker(&r.checker) {
            continue;
        }
        let copy = tr.time("mc_sim.clone", || program.clone());
        attempts += 1;
        if tr.time("mc_sim.replay", || {
            mc_sim::replay(copy, &r.checker, &r.function, &r.model)
        }) {
            r.verdict = Verdict::Confirmed;
            r.confidence = r.confidence.saturating_add(10).min(100);
            confirmed += 1;
        }
    }
    tr.count("mc_sim.replay.attempts", f64::from(attempts));
    tr.count("mc_sim.replay.confirmed", f64::from(confirmed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_the_registered_builtin_suite() {
        let spec = FlashSpec::new();
        let suite = Suite::builtin(&spec).unwrap();
        let mut driver = Driver::new();
        mc_checkers::all_checkers(&mut driver, &spec).unwrap();
        assert_eq!(
            suite.compiled.len() + suite.native.len(),
            driver.checker_count()
        );
        let names: Vec<&str> = suite.native.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            [
                "buffer_mgmt",
                "lanes",
                "exec_restrict",
                "alloc_check",
                "directory",
                "send_wait"
            ]
        );
    }

    #[test]
    fn probes_record_the_declared_layer_metrics() {
        let proto = mc_corpus::generate_fleet(61861, 1)
            .into_iter()
            .find(|p| p.name == "bitvector")
            .unwrap();
        let mut driver = Driver::new();
        driver.refute(true);
        mc_checkers::all_checkers(&mut driver, &proto.spec).unwrap();
        let mut off = Driver::new();
        mc_checkers::all_checkers(&mut off, &proto.spec).unwrap();
        let suite = Suite::builtin(&proto.spec).unwrap();
        let work = proto.sources();
        let mut memo = FpMemo::default();
        let mut tr = Tracer::new();
        tr.begin_op();
        let (mut reports, _) = CheckEngine::in_memory()
            .check_sources(&driver, &work)
            .unwrap();
        post_check(&mut tr, &driver, &mut reports, &work);
        let probe = Probe {
            driver: &driver,
            suite: &suite,
            work: &work,
            memo: Some(&mut memo),
            refute_off: Some(&off),
        };
        probe_layers(&mut tr, probe).unwrap();
        tr.end_op();
        count_tokens(&mut tr, 0, &work);

        let spec = crate::spec::bench_spec().unwrap();
        let declared: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let internal = [
            "trace.op.ms",
            "mc_symx.refute.on.ms",
            "mc_symx.refute.off.ms",
        ];
        let recorded = tr.recorded();
        for name in &recorded {
            assert!(
                declared.contains(&name.as_str()) || internal.contains(&name.as_str()),
                "`{name}` is recorded but not a declared metric"
            );
        }
        for name in declared.iter().filter(|n| {
            [
                "mc_ast.",
                "mc_cfg.",
                "mc_metal.",
                "mc_checkers.",
                "mc_driver.summaries",
                "mc_symx.",
                "mc_sim.",
            ]
            .iter()
            .any(|p| n.starts_with(p))
                && !n.ends_with("confirm_ratio")
        }) {
            assert!(
                recorded.contains(*name),
                "`{name}` is declared but never recorded"
            );
        }
    }

    #[test]
    fn memo_marks_only_changed_functions_red() {
        let mut memo = FpMemo::default();
        let v1 = "void a(void) { x = 1; }\nvoid b(void) { y = 2; }\n";
        let v2 = "void a(void) { x = 1; }\nvoid b(void) { y = 3; }\n";
        let fns = |src: &str| parse_translation_unit(src, "f.c").unwrap();
        let u1 = fns(v1);
        assert_eq!(
            memo.red("f.c", &u1.functions().collect::<Vec<_>>()),
            [true, true]
        );
        let u2 = fns(v2);
        assert_eq!(
            memo.red("f.c", &u2.functions().collect::<Vec<_>>()),
            [false, true]
        );
        assert_eq!(
            memo.red("f.c", &u2.functions().collect::<Vec<_>>()),
            [false, false]
        );
    }
}
