//! `mc-symx` — symbolic witness refutation.
//!
//! The checkers' FactSet predicate domain prunes what it can; every
//! surviving report still carries a witness path that *might* be infeasible
//! for reasons outside the domain (multi-variable linear correlations,
//! interprocedural dataflow). This crate is the post-pass that decides:
//!
//! 1. **reconstruct** the report's rendered [`PathStep`] chain back into
//!    statements and branch decisions through the function's CFG
//!    ([`path`]);
//! 2. **slice** the path backward to the statements its conditions depend
//!    on ([`slice`](mod@slice));
//! 3. **execute** the slice symbolically, collecting the path condition as
//!    a conjunction of linear integer constraints ([`exec`]);
//! 4. **solve** with a bounded Fourier–Motzkin core ([`solver`]).
//!
//! The pipeline follows Slabý/Strejček/Trtík's *On Synergy of Metal,
//! Slicing, and Symbolic Execution*: slicing keeps the symbolic step cheap,
//! and the verdict is about the *witness*, not the program — `Refuted`
//! means "this particular path cannot execute", which is exactly the
//! false-positive shape the paper's users triaged away by hand.
//!
//! Soundness policy, applied at every stage: **unknown never refutes**. A
//! step that does not reconstruct, a value outside the linear fragment, a
//! callee we cannot inline, a system beyond the solver's budget — each
//! degrades toward [`Verdict::Unknown`] or toward *fewer* constraints,
//! never toward an unsound `Refuted`.

pub mod exec;
pub mod path;
pub mod slice;
pub mod solver;

pub use path::PathOp;
pub use slice::{for_each_child, Scope, SliceStats};

use mc_ast::Function;
use mc_cfg::{Cfg, PathStep};

/// The decision for one witness path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The path condition is UNSAT: this witness cannot execute.
    Refuted,
    /// The path condition is satisfiable. `model` holds the replayable part
    /// of a solution — initial values for plain globals the path reads
    /// before any call — and may be empty when the solver found no integer
    /// witness inside its budget or the inputs are not plain globals.
    Sat {
        /// `(global, initial value)` pairs, sorted by name.
        model: Vec<(String, i64)>,
    },
    /// The path could not be decided (reconstruction failed, or the solver
    /// hit its budget). Never used to drop a report.
    Unknown,
}

/// Size accounting for one analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Operations in the reconstructed path (0 when reconstruction failed).
    pub total_ops: usize,
    /// Operations the backward slice kept.
    pub kept_ops: usize,
    /// Linear constraints handed to the solver.
    pub constraints: usize,
}

/// The result of analyzing one witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathAnalysis {
    /// The decision.
    pub verdict: Verdict,
    /// Size accounting.
    pub stats: AnalysisStats,
}

impl PathAnalysis {
    fn unknown() -> PathAnalysis {
        PathAnalysis {
            verdict: Verdict::Unknown,
            stats: AnalysisStats::default(),
        }
    }
}

/// What the executor may ask about the program around the path: callee
/// bodies (for straight-line inlining) and manifest-constant values.
pub trait World {
    /// The definition of `name`, if known.
    fn function(&self, name: &str) -> Option<&Function>;
    /// The value of manifest constant `name`, if known.
    fn constant(&self, name: &str) -> Option<i64>;
}

/// A [`World`] that knows nothing: every callee havocs, every unknown
/// constant stays symbolic.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyWorld;

impl World for EmptyWorld {
    fn function(&self, _name: &str) -> Option<&Function> {
        None
    }
    fn constant(&self, _name: &str) -> Option<i64> {
        None
    }
}

/// Analyzes one report's witness: reconstructs `steps` through `func`'s
/// CFG, slices, executes, and solves. Anything that cannot be replayed
/// symbolically is [`Verdict::Unknown`].
pub fn analyze_witness(func: &Function, steps: &[PathStep], world: &dyn World) -> PathAnalysis {
    if steps.is_empty() {
        return PathAnalysis::unknown();
    }
    let cfg = Cfg::build(func);
    let Some(ops) = path::reconstruct(&cfg, steps) else {
        return PathAnalysis::unknown();
    };
    let scope = Scope::of(func);
    analyze_ops(&ops, &scope, world)
}

/// Analyzes an already-reconstructed path. Exposed for tests and for the
/// property harness (random loop-free paths never go through step
/// rendering).
pub fn analyze_ops(ops: &[PathOp], scope: &Scope, world: &dyn World) -> PathAnalysis {
    let (kept, slice_stats) = slice::backward_slice(ops, scope);
    let (verdict, constraints) = exec::run(&kept, scope, world);
    PathAnalysis {
        verdict,
        stats: AnalysisStats {
            total_ops: slice_stats.total_ops,
            kept_ops: slice_stats.kept_ops,
            constraints,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::TranslationUnit;

    /// A [`World`] backed by one parsed unit.
    struct UnitWorld {
        unit: TranslationUnit,
        constants: Vec<(String, i64)>,
    }

    impl UnitWorld {
        fn parse(src: &str) -> UnitWorld {
            UnitWorld {
                unit: mc_ast::parse_translation_unit(src, "w.c").expect("parse"),
                constants: Vec::new(),
            }
        }
    }

    impl World for UnitWorld {
        fn function(&self, name: &str) -> Option<&Function> {
            self.unit.function(name)
        }
        fn constant(&self, name: &str) -> Option<i64> {
            self.constants
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        }
    }

    fn steps(evs: &[(u32, u32, &str)]) -> Vec<PathStep> {
        evs.iter()
            .map(|(l, c, n)| PathStep::new(mc_ast::Span { line: *l, col: *c }, *n))
            .collect()
    }

    fn func_of<'a>(w: &'a UnitWorld, name: &str) -> &'a Function {
        w.unit.function(name).expect("function")
    }

    /// Engine-faithful witness steps along the path `dirs` selects.
    fn witness(f: &Function, dirs: &[isize]) -> Vec<PathStep> {
        path::trace(&Cfg::build(f), dirs)
    }

    #[test]
    fn infeasible_correlated_guards_are_refuted() {
        let w = UnitWorld::parse(
            "int gCredit;\nint gDebit;\nint gNak;\nvoid f(void) {\n  gNak = gCredit - gDebit;\n  if (gCredit == gDebit) {\n    if (gNak > 0) {\n      gNak = 0;\n    }\n  }\n}\n",
        );
        let f = func_of(&w, "f");
        let a = analyze_witness(f, &witness(f, &[1, 1]), &w);
        assert_eq!(a.verdict, Verdict::Refuted, "stats: {:?}", a.stats);
        assert!(a.stats.kept_ops <= a.stats.total_ops);
        assert!(a.stats.constraints >= 2);
    }

    #[test]
    fn feasible_path_gets_a_replayable_model() {
        let w = UnitWorld::parse(
            "int gLen;\nvoid f(void) {\n  if (gLen > 4) {\n    gLen = 0;\n  }\n}\n",
        );
        let f = func_of(&w, "f");
        let a = analyze_witness(f, &witness(f, &[1]), &w);
        match a.verdict {
            Verdict::Sat { model } => {
                assert_eq!(model.len(), 1);
                assert_eq!(model[0].0, "gLen");
                assert!(model[0].1 > 4, "model: {model:?}");
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn interproc_splice_contributes_callee_constraints() {
        // The correlated assignment lives in a straight-line helper; the
        // caller only sees the call. Inlining must splice `gNak = gCredit -
        // gDebit` into the path so the guards still refute.
        let w = UnitWorld::parse(
            "int gCredit;\nint gDebit;\nint gNak;\nvoid helper(void) {\n  gNak = gCredit - gDebit;\n}\nvoid f(void) {\n  helper();\n  if (gCredit == gDebit) {\n    if (gNak > 0) {\n      gNak = 0;\n    }\n  }\n}\n",
        );
        let f = func_of(&w, "f");
        // Splice the summarized-call marker in after its containing
        // statement, the way `fire_calls` renders it.
        let mut steps = witness(f, &[1, 1]);
        assert_eq!(steps[0].note, "statement");
        steps.insert(1, PathStep::new(steps[0].span, "call `helper`"));
        let a = analyze_witness(f, &steps, &w);
        assert_eq!(a.verdict, Verdict::Refuted, "stats: {:?}", a.stats);
        // Without the callee body the same path must NOT refute: the call
        // havocs gNak and the guards are independently satisfiable.
        let blind = analyze_witness(f, &witness(f, &[1, 1]), &EmptyWorld);
        assert!(
            matches!(blind.verdict, Verdict::Sat { .. }),
            "got {:?}",
            blind.verdict
        );
    }

    #[test]
    fn calls_havoc_instead_of_refuting() {
        // The correlation is broken by an opaque call between the
        // assignment and the guards: the report must survive.
        let w = UnitWorld::parse(
            "int gCredit;\nint gDebit;\nint gNak;\nvoid f(void) {\n  gNak = gCredit - gDebit;\n  OPAQUE();\n  if (gNak > 0) {\n    if (gNak < 0) {\n      gNak = 0;\n    }\n  }\n}\n",
        );
        // gNak > 0 && gNak < 0 over the SAME value is still UNSAT even
        // after havoc (both guards read the post-call value)…
        let f = func_of(&w, "f");
        let a = analyze_witness(f, &witness(f, &[1, 1]), &w);
        assert_eq!(a.verdict, Verdict::Refuted);
        // …but a correlation with a pre-call value is forgotten: feasible.
        let w2 = UnitWorld::parse(
            "int gCredit;\nint gDebit;\nint gNak;\nvoid f(void) {\n  gNak = gCredit - gDebit;\n  OPAQUE();\n  if (gCredit == gDebit) {\n    if (gNak > 0) {\n      gNak = 0;\n    }\n  }\n}\n",
        );
        let f2 = func_of(&w2, "f");
        let a2 = analyze_witness(f2, &witness(f2, &[1, 1]), &w2);
        assert!(
            matches!(a2.verdict, Verdict::Sat { .. }),
            "got {:?}",
            a2.verdict
        );
    }

    /// The model of `f`'s witness along `dirs`; panics unless it is `Sat`.
    fn model_along(src: &str, dirs: &[isize]) -> Vec<(String, i64)> {
        let w = UnitWorld::parse(src);
        let f = func_of(&w, "f");
        match analyze_witness(f, &witness(f, dirs), &w).verdict {
            Verdict::Sat { model } => model,
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn a_global_read_across_the_prologue_hooks_gets_a_replayable_model() {
        // The hooks that open every handler touch no variable, so the
        // read after them still sees the global's initial value.
        let model = model_along(
            "int gLen;\nvoid f(void) {\n  HANDLER_DEFS();\n  HANDLER_PROLOGUE();\n  if (gLen > 4) {\n    gLen = 0;\n  }\n}\n",
            &[1],
        );
        assert_eq!(model.len(), 1, "model: {model:?}");
        assert_eq!(model[0].0, "gLen");
        assert!(model[0].1 > 4, "model: {model:?}");
    }

    #[test]
    fn a_global_read_across_an_opaque_call_still_havocs() {
        let model = model_along(
            "int gLen;\nvoid f(void) {\n  HANDLER_PROLOGUE();\n  OPAQUE();\n  if (gLen > 4) {\n    gLen = 0;\n  }\n}\n",
            &[1],
        );
        assert!(model.is_empty(), "model: {model:?}");
        // The same call between two correlated guards breaks the
        // correlation; a pure read such as DIR_STATE() does not.
        let body = |call: &str| {
            format!("int gMode;\nvoid f(void) {{\n  if (gMode) {{\n    {call}();\n    if (!gMode) {{\n      gMode = 2;\n    }}\n  }}\n}}\n")
        };
        let opaque = UnitWorld::parse(&body("OPAQUE"));
        let f = func_of(&opaque, "f");
        let a = analyze_witness(f, &witness(f, &[1, 1]), &opaque);
        assert!(matches!(a.verdict, Verdict::Sat { .. }), "{a:?}");
        let pure = UnitWorld::parse(&body("DIR_STATE"));
        let f = func_of(&pure, "f");
        let a = analyze_witness(f, &witness(f, &[1, 1]), &pure);
        assert_eq!(a.verdict, Verdict::Refuted, "{a:?}");
    }

    #[test]
    fn a_header_field_write_is_its_own_slot() {
        // `HANDLER_GLOBALS(header.nh.len) = …` sets the outgoing header,
        // not some global, so the guards on gMode stay correlated and the
        // model still binds gMode.
        let src = "int gMode;\nvoid f(void) {\n  if (gMode) {\n    HANDLER_GLOBALS(header.nh.len) = LEN_WORD;\n  }\n  if (!gMode) {\n    gMode = 2;\n  }\n}\n";
        let w = UnitWorld::parse(src);
        let f = func_of(&w, "f");
        let a = analyze_witness(f, &witness(f, &[1, 1]), &w);
        assert_eq!(a.verdict, Verdict::Refuted, "{a:?}");
        let model = model_along(src, &[1, 0]);
        assert_eq!(model.len(), 1, "model: {model:?}");
        assert_eq!(model[0].0, "gMode");
        assert_ne!(model[0].1, 0, "model: {model:?}");
    }

    #[test]
    fn manifest_constants_resolve_through_the_world() {
        let mut w = UnitWorld::parse(
            "int gLen;\nvoid f(void) {\n  if (gLen == LEN_WORD) {\n    if (gLen > 5) {\n      gLen = 0;\n    }\n  }\n}\n",
        );
        w.constants.push(("LEN_WORD".to_string(), 1));
        let path = witness(func_of(&w, "f"), &[1, 1]);
        let a = analyze_witness(func_of(&w, "f"), &path, &w);
        // gLen == 1 && gLen > 5: refuted only because the world knows
        // LEN_WORD.
        assert_eq!(a.verdict, Verdict::Refuted);
        // With an unknown constant the same shape is satisfiable (the
        // constant could be 6).
        w.constants.clear();
        let a2 = analyze_witness(func_of(&w, "f"), &path, &w);
        assert!(matches!(a2.verdict, Verdict::Sat { .. }));
    }

    #[test]
    fn multi_label_dispatch_does_not_refute_later_arm_guards() {
        // Opcode dispatch through a multi-label arm: the witness that
        // dispatched on `case 2` matches `case 1`'s step chain too, so no
        // arm equality may be asserted — committing to `gOp == 1` would
        // make the later taken `gOp == 2` guard UNSAT and unsoundly
        // refute a feasible path.
        let w = UnitWorld::parse(
            "int gOp;\nint gErr;\nvoid f(void) {\n  switch (gOp) {\n  case 1:\n  case 2:\n    gErr = 1;\n    break;\n  }\n  if (gOp == 2) {\n    if (gErr > 0) {\n      gErr = 0;\n    }\n  }\n}\n",
        );
        let f = func_of(&w, "f");
        // dirs: labeled arm index 1 (`case 2`), then both guards taken.
        let a = analyze_witness(f, &witness(f, &[1, 1, 1]), &w);
        assert!(
            matches!(a.verdict, Verdict::Sat { .. }),
            "got {:?}",
            a.verdict
        );
        // A single-label arm still contributes its equality: dispatching
        // on `case 1` of a switch whose arms differ contradicts a later
        // taken `gOp == 2`.
        let w2 = UnitWorld::parse(
            "int gOp;\nint gErr;\nvoid f(void) {\n  switch (gOp) {\n  case 1:\n    gErr = 1;\n    break;\n  case 2:\n    gErr = 2;\n    break;\n  }\n  if (gOp == 2) {\n    if (gErr > 0) {\n      gErr = 0;\n    }\n  }\n}\n",
        );
        let f2 = func_of(&w2, "f");
        let a2 = analyze_witness(f2, &witness(f2, &[0, 1, 1]), &w2);
        assert_eq!(a2.verdict, Verdict::Refuted, "stats: {:?}", a2.stats);
    }

    #[test]
    fn wraparound_feasible_paths_are_not_refuted() {
        // `gNak = gCredit + 1` then a taken `gNak <= gCredit` is UNSAT
        // over unbounded integers but concretely feasible at
        // gCredit == i64::MAX, where mc-sim's wrapping add makes gNak
        // negative. The wrap-aware decision must keep the report (it may
        // be Unknown — the executor does not model the wrapped value —
        // but never Refuted).
        let w = UnitWorld::parse(
            "int gCredit;\nint gNak;\nvoid f(void) {\n  gNak = gCredit + 1;\n  if (gNak <= gCredit) {\n    gNak = 0;\n  }\n}\n",
        );
        let f = func_of(&w, "f");
        let a = analyze_witness(f, &witness(f, &[1]), &w);
        assert!(
            !matches!(a.verdict, Verdict::Refuted),
            "wrap-only-feasible path was refuted (stats: {:?})",
            a.stats
        );
        // The same arithmetic under a guard that pins the operands in
        // range still refutes: gCredit == 0 forces gNak == 1, which
        // cannot be negative.
        let w2 = UnitWorld::parse(
            "int gCredit;\nint gNak;\nvoid f(void) {\n  gNak = gCredit + 1;\n  if (gCredit == 0) {\n    if (gNak < 0) {\n      gNak = 0;\n    }\n  }\n}\n",
        );
        let f2 = func_of(&w2, "f");
        let a2 = analyze_witness(f2, &witness(f2, &[1, 1]), &w2);
        assert_eq!(a2.verdict, Verdict::Refuted, "stats: {:?}", a2.stats);
    }

    #[test]
    fn lane_traces_and_empty_witnesses_are_unknown() {
        let w = UnitWorld::parse("void f(void) {\n  int x;\n}\n");
        let a = analyze_witness(func_of(&w, "f"), &[], &w);
        assert_eq!(a.verdict, Verdict::Unknown);
        let a2 = analyze_witness(func_of(&w, "f"), &steps(&[(2, 3, "gBuf in f")]), &w);
        assert_eq!(a2.verdict, Verdict::Unknown);
    }

    #[test]
    fn loop_paths_with_exact_updates_refute() {
        // Two iterations of i++ starting from i == 0 cannot satisfy a
        // `i > 5` guard on the second test.
        let w = UnitWorld::parse(
            "void f(void) {\n  int i;\n  i = 0;\n  while (i < 2) {\n    i = i + 1;\n  }\n  if (i > 5) {\n    i = 0;\n  }\n}\n",
        );
        let f = func_of(&w, "f");
        let a = analyze_witness(f, &witness(f, &[1, 1, 0, 1]), &w);
        assert_eq!(a.verdict, Verdict::Refuted, "stats: {:?}", a.stats);
    }
}
