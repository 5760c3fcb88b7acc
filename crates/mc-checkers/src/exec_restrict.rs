//! §8 — Handler execution restrictions (Table 5).
//!
//! FLASH's execution environment is more restrictive than C. This checker
//! enforces:
//!
//! * handlers take no parameters and return no results;
//! * deprecated macros are not used;
//! * no floating-point operations anywhere in protocol code;
//! * no-stack handlers (`NO_STACK()` assertion) take no local addresses,
//!   declare few and small locals, and bracket every subroutine call with
//!   `SET_STACKPTR()`;
//! * the first two statements of every routine are the simulator hooks
//!   matching its class (`HANDLER_*`, `SWHANDLER_*`, `PROC_*`).
//!
//! Functions whose body begins with `FATAL_ERROR()` are intentionally
//! unimplemented and are skipped (the paper likewise did not count sci's
//! violations in unimplemented routines). `inline` functions are exempt
//! from the hook requirement, matching the paper's counting.

use crate::flash::{self, FlashSpec, RoutineKind, NO_STACK, SET_STACKPTR};
use mc_ast::{walk_function, Declaration, Expr, ExprKind, Function, Stmt, StmtKind, Type, Visitor};
use mc_driver::{CheckSink, Checker, FunctionContext, Report};

/// Maximum number of locals a no-stack handler may declare (they must all
/// fit in registers).
pub const MAX_NO_STACK_LOCALS: usize = 8;

/// The execution-restriction checker.
#[derive(Debug, Clone)]
pub struct ExecRestrict {
    spec: FlashSpec,
}

impl ExecRestrict {
    /// Creates the checker with the given protocol spec.
    pub fn new(spec: FlashSpec) -> ExecRestrict {
        ExecRestrict { spec }
    }

    fn expected_hooks(&self, kind: RoutineKind) -> (&'static str, &'static str) {
        match kind {
            RoutineKind::HardwareHandler => (flash::HANDLER_DEFS, flash::HANDLER_PROLOGUE),
            RoutineKind::SoftwareHandler => (flash::SWHANDLER_DEFS, flash::SWHANDLER_PROLOGUE),
            RoutineKind::Procedure => (flash::PROC_DEFS, flash::PROC_PROLOGUE),
        }
    }
}

impl Checker for ExecRestrict {
    fn name(&self) -> &str {
        "exec_restrict"
    }

    /// Purely local: no program pass, so the incremental engine never
    /// re-runs this checker for call-graph neighbours of an edited unit.
    fn has_program_pass(&self) -> bool {
        false
    }

    fn check_function(&self, ctx: &FunctionContext<'_>, sink: &mut CheckSink) {
        let f = ctx.function;
        if flash::is_unimplemented(f) {
            return;
        }
        let kind = self.spec.classify(&f.name);
        let err = |span, msg: String| Report::error("exec_restrict", ctx.file, &f.name, span, msg);
        let warn =
            |span, msg: String| Report::warning("exec_restrict", ctx.file, &f.name, span, msg);

        // 1. Handler signature.
        if kind != RoutineKind::Procedure && !f.is_handler_shaped() {
            sink.push(err(
                f.span,
                "handlers must take no parameters and return void".to_string(),
            ));
        }

        // 2. Simulator hooks: first and second statements.
        if !f.storage.is_inline {
            let (defs, prologue) = self.expected_hooks(kind);
            if !stmt_is_call(f.body.first(), defs) || !stmt_is_call(f.body.get(1), prologue) {
                sink.push(err(
                    f.span,
                    format!(
                        "missing simulator hooks: first two statements must be \
                         {defs}(); {prologue}();"
                    ),
                ));
            }
        }

        // 3. Floating point and deprecated macros, via one walk.
        let mut walk = RestrictionWalk {
            sink,
            file: ctx.file,
            func: &f.name,
            locals: Vec::new(),
            float_spans: Vec::new(),
            deprecated: Vec::new(),
            addr_of_locals: Vec::new(),
            big_locals: Vec::new(),
        };
        for p in &f.params {
            if p.ty.contains_float() {
                walk.float_spans.push(f.span);
            }
        }
        if f.return_type.contains_float() {
            walk.float_spans.push(f.span);
        }
        walk_function(&mut walk, f);
        let RestrictionWalk {
            locals,
            float_spans,
            deprecated,
            addr_of_locals,
            big_locals,
            ..
        } = walk;
        for span in float_spans {
            sink.push(err(
                span,
                "floating point is forbidden in protocol code".into(),
            ));
        }
        for (name, span) in deprecated {
            sink.push(warn(span, format!("use of deprecated macro `{name}`")));
        }

        // 4. No-stack handlers.
        let no_stack_positions: Vec<usize> = f
            .body
            .iter()
            .enumerate()
            .filter(|(_, s)| stmt_is_call(Some(s), flash::NO_STACK))
            .map(|(i, _)| i)
            .collect();
        if no_stack_positions.len() > 1 {
            sink.push(err(
                f.span,
                format!("more than one {NO_STACK}() annotation"),
            ));
        }
        let is_no_stack = !no_stack_positions.is_empty();
        if is_no_stack && no_stack_positions[0] != 2 {
            sink.push(err(
                f.span,
                format!("{NO_STACK}() must directly follow the prologue hooks"),
            ));
        }
        if is_no_stack {
            for (name, span) in addr_of_locals {
                sink.push(err(
                    span,
                    format!("no-stack handler takes the address of local `{name}`"),
                ));
            }
            for (name, span) in big_locals {
                sink.push(err(
                    span,
                    format!(
                        "no-stack handler declares `{name}`, larger than 64 bits \
                         (cannot live in registers)"
                    ),
                ));
            }
            if locals.len() > MAX_NO_STACK_LOCALS {
                sink.push(err(
                    f.span,
                    format!(
                        "no-stack handler declares {} locals (max {MAX_NO_STACK_LOCALS})",
                        locals.len()
                    ),
                ));
            }
            check_set_stackptr(f, ctx.file, sink);
        }
    }
}

fn stmt_is_call(s: Option<&Stmt>, name: &str) -> bool {
    let Some(s) = s else { return false };
    let StmtKind::Expr(e) = &s.kind else {
        return false;
    };
    matches!(e.as_call(), Some((n, _)) if n == name)
}

struct RestrictionWalk<'a> {
    #[allow(dead_code)]
    sink: &'a mut CheckSink,
    #[allow(dead_code)]
    file: &'a str,
    #[allow(dead_code)]
    func: &'a str,
    locals: Vec<String>,
    float_spans: Vec<mc_ast::Span>,
    deprecated: Vec<(String, mc_ast::Span)>,
    addr_of_locals: Vec<(String, mc_ast::Span)>,
    big_locals: Vec<(String, mc_ast::Span)>,
}

impl Visitor for RestrictionWalk<'_> {
    fn visit_decl(&mut self, d: &Declaration) {
        self.locals.push(d.name.clone());
        if d.ty.contains_float() {
            self.float_spans.push(d.span);
        }
        if matches!(d.ty, Type::Array(..) | Type::Struct { .. }) && d.ty.size_bits() > 64 {
            self.big_locals.push((d.name.clone(), d.span));
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::FloatLit(..) => self.float_spans.push(e.span),
            ExprKind::Cast { ty, .. } | ExprKind::SizeofType(ty) if ty.contains_float() => {
                self.float_spans.push(e.span);
            }
            ExprKind::Call { callee, .. } => {
                if let ExprKind::Ident(name) = &callee.kind {
                    if flash::effect(name) == Some(flash::Effect::Deprecated) {
                        self.deprecated.push((name.clone(), e.span));
                    }
                }
            }
            ExprKind::Unary {
                op: mc_ast::UnaryOp::AddrOf,
                operand,
            } => {
                if let ExprKind::Ident(name) = &operand.kind {
                    if self.locals.contains(name) {
                        self.addr_of_locals.push((name.clone(), e.span));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Verifies the `SET_STACKPTR` discipline in a no-stack handler: every
/// subroutine call is immediately preceded by `SET_STACKPTR()`, and every
/// `SET_STACKPTR()` is immediately followed by a call. Checked per
/// statement sequence (block), which matches how handlers are written.
fn check_set_stackptr(f: &Function, file: &str, sink: &mut CheckSink) {
    fn scan(stmts: &[Stmt], file: &str, func: &str, sink: &mut CheckSink) {
        let mut prev_was_set = false;
        for s in stmts {
            let is_set = stmt_is_call(Some(s), flash::SET_STACKPTR);
            let call_name = subroutine_call_name(s);
            if let Some(name) = &call_name {
                if !prev_was_set {
                    sink.push(Report::error(
                        "exec_restrict",
                        file,
                        func,
                        s.span,
                        format!("call to `{name}` without preceding {SET_STACKPTR}()"),
                    ));
                }
            } else if prev_was_set {
                sink.push(Report::error(
                    "exec_restrict",
                    file,
                    func,
                    s.span,
                    format!("spurious {SET_STACKPTR}(): not followed by a call"),
                ));
            }
            prev_was_set = is_set;
            // Recurse into nested bodies.
            match &s.kind {
                StmtKind::Block(b) => scan(b, file, func, sink),
                StmtKind::If { then, els, .. } => {
                    scan(std::slice::from_ref(then), file, func, sink);
                    if let Some(e) = els {
                        scan(std::slice::from_ref(e), file, func, sink);
                    }
                }
                StmtKind::While { body, .. }
                | StmtKind::DoWhile { body, .. }
                | StmtKind::For { body, .. } => scan(std::slice::from_ref(body), file, func, sink),
                StmtKind::Switch { cases, .. } => {
                    for c in cases {
                        scan(&c.body, file, func, sink);
                    }
                }
                _ => {}
            }
        }
        if prev_was_set {
            sink.push(Report::error(
                "exec_restrict",
                file,
                func,
                stmts.last().map(|s| s.span).unwrap_or_default(),
                format!("spurious {SET_STACKPTR}(): not followed by a call"),
            ));
        }
    }
    scan(&f.body, file, &f.name, sink);
}

/// If the statement is a call to a non-macro (i.e. a real subroutine),
/// returns the callee name.
fn subroutine_call_name(s: &Stmt) -> Option<String> {
    let StmtKind::Expr(e) = &s.kind else {
        return None;
    };
    let (name, _) = e.as_call()?;
    flash::effect(name).is_none().then(|| name.to_string())
}

/// Counts routines and declared variables — the "Handlers" and "Vars"
/// columns of Table 5.
pub fn count_routines_and_vars(funcs: &[&Function]) -> (usize, usize) {
    struct V(usize);
    impl Visitor for V {
        fn visit_decl(&mut self, _: &Declaration) {
            self.0 += 1;
        }
    }
    let mut vars = 0;
    for f in funcs {
        let mut v = V(0);
        walk_function(&mut v, f);
        vars += v.0 + f.params.len();
    }
    (funcs.len(), vars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_cfg::Cfg;

    fn check(src: &str) -> Vec<Report> {
        let tu = mc_ast::parse_translation_unit(src, "t.c").unwrap();
        let checker = ExecRestrict::new(FlashSpec::new());
        let mut sink = CheckSink::new();
        for f in tu.functions() {
            let cfg = Cfg::build(f);
            let ctx = FunctionContext {
                file: "t.c",
                unit: &tu,
                function: f,
                cfg: &cfg,
                traversal: mc_cfg::Traversal::default(),
                summaries: None,
            };
            checker.check_function(&ctx, &mut sink);
        }
        sink.into_reports()
    }

    const CLEAN: &str = r#"
        void PILocalGet(void) {
            HANDLER_DEFS();
            HANDLER_PROLOGUE();
            int x;
            x = 1;
        }
    "#;

    #[test]
    fn clean_handler_passes() {
        assert!(check(CLEAN).is_empty());
    }

    #[test]
    fn missing_hooks_detected() {
        let r = check("void PILocalGet(void) { int x; x = 1; }");
        assert_eq!(r.len(), 1);
        assert!(r[0].message.contains("simulator hooks"));
    }

    #[test]
    fn wrong_hook_class_detected() {
        // Software handler using hardware hooks.
        let r = check("void SWMigrate(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); }");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn procedures_need_proc_hooks() {
        let r = check("void compute_owner(void) { PROC_DEFS(); PROC_PROLOGUE(); }");
        assert!(r.is_empty());
        let r = check("void compute_owner(void) { do_it(); }");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn inline_functions_exempt_from_hooks() {
        let r = check("inline void helper_inline(void) { f(); }");
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn unimplemented_routines_skipped() {
        let r = check("void NIFutureOp(void) { FATAL_ERROR(); }");
        assert!(r.is_empty());
    }

    #[test]
    fn handler_signature_enforced() {
        let r = check("int PILocalGet(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); return 0; }");
        assert!(r.iter().any(|x| x.message.contains("no parameters")));
        let r = check("void NIPut(int x) { HANDLER_DEFS(); HANDLER_PROLOGUE(); }");
        assert!(r.iter().any(|x| x.message.contains("no parameters")));
    }

    #[test]
    fn float_rejected_everywhere() {
        for body in [
            "float r;",
            "x = 2.5;",
            "y = (double) x;",
            "z = sizeof(float);",
        ] {
            let src =
                format!("void PILocalGet(void) {{ HANDLER_DEFS(); HANDLER_PROLOGUE(); {body} }}");
            let r = check(&src);
            assert!(
                r.iter().any(|x| x.message.contains("floating point")),
                "no float report for `{body}`: {r:?}"
            );
        }
    }

    #[test]
    fn deprecated_macros_warned() {
        let r =
            check("void PILocalGet(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); OLD_WAIT_DB(a); }");
        assert!(r.iter().any(|x| x.message.contains("deprecated")));
    }

    const NO_STACK_OK: &str = r#"
        void PIFast(void) {
            HANDLER_DEFS();
            HANDLER_PROLOGUE();
            NO_STACK();
            int a;
            a = 1;
            SET_STACKPTR();
            other_handler();
        }
    "#;

    #[test]
    fn no_stack_clean() {
        assert!(check(NO_STACK_OK).is_empty());
    }

    #[test]
    fn no_stack_addr_of_local() {
        let r = check(
            r#"void PIFast(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE(); NO_STACK();
                int a;
                use_ptr(&a);
            }"#,
        );
        assert!(
            r.iter().any(|x| x.message.contains("address of local")),
            "{r:?}"
        );
    }

    #[test]
    fn no_stack_big_aggregate() {
        let r = check(
            r#"void PIFast(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE(); NO_STACK();
                int big[4];
            }"#,
        );
        assert!(r.iter().any(|x| x.message.contains("64 bits")), "{r:?}");
    }

    #[test]
    fn no_stack_too_many_locals() {
        let decls: String = (0..10).map(|i| format!("int v{i};")).collect();
        let src = format!(
            "void PIFast(void) {{ HANDLER_DEFS(); HANDLER_PROLOGUE(); NO_STACK(); {decls} }}"
        );
        let r = check(&src);
        assert!(r.iter().any(|x| x.message.contains("locals")), "{r:?}");
    }

    #[test]
    fn call_without_set_stackptr() {
        let r = check(
            r#"void PIFast(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE(); NO_STACK();
                other_handler();
            }"#,
        );
        assert!(
            r.iter()
                .any(|x| x.message.contains("without preceding SET_STACKPTR")),
            "{r:?}"
        );
    }

    #[test]
    fn spurious_set_stackptr() {
        let r = check(
            r#"void PIFast(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE(); NO_STACK();
                SET_STACKPTR();
                x = 1;
            }"#,
        );
        assert!(r.iter().any(|x| x.message.contains("spurious")), "{r:?}");
    }

    #[test]
    fn duplicate_no_stack() {
        let r = check(
            r#"void PIFast(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE(); NO_STACK();
                NO_STACK();
            }"#,
        );
        assert!(
            r.iter().any(|x| x.message.contains("more than one")),
            "{r:?}"
        );
    }

    #[test]
    fn misplaced_no_stack() {
        let r = check(
            r#"void PIFast(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE();
                x = 1;
                NO_STACK();
            }"#,
        );
        assert!(
            r.iter().any(|x| x.message.contains("directly follow")),
            "{r:?}"
        );
    }

    #[test]
    fn stackful_handlers_may_call_freely() {
        let r = check(
            r#"void PISlow(void) {
                HANDLER_DEFS(); HANDLER_PROLOGUE();
                other_handler();
            }"#,
        );
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn routine_and_var_counting() {
        let tu = mc_ast::parse_translation_unit(
            "void a(int p) { int x; int y; }\nvoid b(void) { int z; }",
            "t.c",
        )
        .unwrap();
        let funcs: Vec<&Function> = tu.functions().collect();
        let (routines, vars) = count_routines_and_vars(&funcs);
        assert_eq!(routines, 2);
        assert_eq!(vars, 4); // p, x, y, z
    }
}
