//! The metal interpreter as an ordinary [`Checker`]: the reference
//! semantics the compiled engine is held to.
//!
//! The driver runs metal programs only through their compiled decision
//! programs, so a test that compares against the interpreter registers
//! [`InterpChecker`]s instead of metal sources. Each adapter does what the
//! driver does for a compiled program: it runs the machine down the
//! function's paths (resolving calls through `ctx.summaries` when present),
//! converts its reports, and contributes state transfers to summaries.

use flash_mc::cfg::{run_traversal_with, FnSummary, SummaryLookup};
use flash_mc::checkers::flash::FlashSpec;
use flash_mc::checkers::{native_checkers, METAL_SOURCES};
use flash_mc::driver::{CheckSink, Checker, Driver, FunctionContext, Report};
use flash_mc::metal::{compute_transfers, MetalMachine, MetalProgram};

/// One metal program, run by the interpreter.
struct InterpChecker(MetalProgram);

impl Checker for InterpChecker {
    fn name(&self) -> &str {
        &self.0.name
    }

    fn check_function(&self, ctx: &FunctionContext<'_>, sink: &mut CheckSink) {
        let mut machine = MetalMachine::new(&self.0);
        let init = machine.start_state();
        let oracle = ctx.summaries.map(|s| s as &dyn SummaryLookup);
        run_traversal_with(ctx.cfg, &mut machine, init, ctx.traversal, oracle);
        for r in &machine.reports {
            let (file, function) = (ctx.file, ctx.function.name.as_str());
            let mut report = if r.is_error {
                Report::error(&r.sm_name, file, function, r.span, &r.message)
            } else {
                Report::warning(&r.sm_name, file, function, r.span, &r.message)
            };
            report.steps = r.steps.clone();
            sink.push(report);
        }
    }

    fn has_program_pass(&self) -> bool {
        false
    }

    fn summarize_function(
        &self,
        ctx: &FunctionContext<'_>,
        summary: &mut FnSummary,
        transfers: bool,
    ) {
        if transfers {
            let oracle = ctx.summaries.map(|s| s as &dyn SummaryLookup);
            let t = compute_transfers(&self.0, ctx.cfg, ctx.traversal, oracle);
            if !t.is_empty() {
                summary.transfers.insert(self.0.name.clone(), t);
            }
        }
    }
}

/// Registers the built-in suite on `driver` with interpreted metal: the
/// embedded metal sources as [`InterpChecker`]s, then the native checkers,
/// in `all_checkers` order.
pub fn interp_suite(driver: &mut Driver, spec: &FlashSpec) {
    for src in METAL_SOURCES {
        let prog = MetalProgram::parse(src).expect("built-in metal parses");
        driver.add_checker(Box::new(InterpChecker(prog)));
    }
    for checker in native_checkers(spec) {
        driver.add_checker(checker);
    }
}
