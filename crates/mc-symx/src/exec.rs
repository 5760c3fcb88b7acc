//! Symbolic execution of a sliced witness path.
//!
//! The executor walks the kept [`PathOp`]s forward with a store mapping
//! lvalue keys to [`LinExpr`]s over fresh symbols. Branch and switch
//! decisions become linear constraints; everything the linear fragment
//! cannot express degrades *monotonically toward satisfiability*:
//!
//! - a non-linear value is simply unknown (no constraint is emitted for a
//!   condition that mentions it);
//! - a call that cannot be inlined havocs every global-like binding, so
//!   later reads are fresh symbols unrelated to earlier ones — unless the
//!   FLASH table ([`mc_ast::flash`]) marks the callee pure, as it does the
//!   `HANDLER_PROLOGUE()` hooks that open every handler;
//! - a store through an unresolvable lvalue havocs the whole store.
//!
//! Havoc is *forgetting*, and forgetting only ever removes constraints, so
//! an `UNSAT` verdict survives every approximation: the refuted path is
//! infeasible under any behavior of the parts we could not model.
//!
//! Straight-line callees found through [`World::function`] are inlined
//! (parameters bound to argument values, locals renamed into a private
//! frame) instead of havocked — this is how an interprocedural witness
//! splices its callee's constraints into the path.
//!
//! **Wrapping semantics.** `mc-sim` executes with wrapping `i64`
//! arithmetic, while the solver reasons over unbounded integers. Wrapping
//! `+`/`-`/`*` is exact arithmetic modulo 2^64, so a chain of them always
//! agrees with the unbounded linear form *modulo 2^64* — intermediate
//! overflow is harmless, and the two agree outright whenever the final
//! value lies in the `i64` range. Comparisons, however, observe the
//! actual (possibly wrapped) `i64` value, so every constraint whose
//! operand can leave the range (under any `i64` valuation of the
//! symbols) carries that operand as a *range guard*, and `Exec::decide`
//! refutes only when the path is infeasible with all guards in range
//! *and* no guard can leave the range in the first place. A path
//! feasible solely through wraparound (`gNak = gCredit + 1;` then a
//! taken `gNak <= gCredit`, concretely satisfied at
//! `gCredit == i64::MAX`) therefore stays undecided instead of being
//! wrongly refuted. Non-congruent operators (`/`, `%`, `>>`, bitwise)
//! only ever fold in-range constants, where wrapping cannot occur.

use crate::path::PathOp;
use crate::slice::{for_each_child, lvalue_key, Scope};
use crate::solver::{self, Constraint, LinExpr, SolveResult, SymId};
use crate::{Verdict, World};
use mc_ast::{BinaryOp, Expr, ExprKind, Function, Initializer, Stmt, StmtKind, UnaryOp};
use mc_cfg::feasibility::{const_of, key_of, Const};
use std::collections::{BTreeMap, BTreeSet};

/// Separator for inline-frame-private keys; cannot occur in a C lvalue key.
const FRAME_SEP: char = '\u{1}';

/// Maximum callee-inlining depth.
const MAX_INLINE_DEPTH: usize = 4;

/// One symbol's bookkeeping.
struct SymInfo {
    /// The key or constant the symbol stands for.
    name: String,
    /// Whether the symbol is the *initial* value of a plain global — the
    /// only thing a concrete replay can set up via `set_global`.
    replayable: bool,
}

/// A lexical frame: the root function or one inlined callee instance.
struct Frame {
    /// Store-key prefix (empty for the root frame).
    prefix: String,
    /// Names that resolve inside this frame rather than globally.
    locals: BTreeSet<String>,
    /// Inlining depth (root is 0).
    depth: usize,
}

impl Frame {
    fn resolve(&self, key: &str) -> String {
        let root = key.split(['.', '-']).next().unwrap_or(key);
        if self.locals.contains(root) {
            format!("{}{}", self.prefix, key)
        } else {
            key.to_string()
        }
    }
}

struct Exec<'w> {
    world: &'w dyn World,
    scope: &'w Scope,
    bindings: BTreeMap<String, LinExpr>,
    syms: Vec<SymInfo>,
    const_syms: BTreeMap<String, SymId>,
    /// Each path constraint with its *range guards*: the operand values
    /// whose conservative range can leave `i64`, so the constraint is only
    /// exact when those values stay in range (see the module doc on
    /// wrapping semantics). An empty guard list means the constraint is
    /// exact for every execution.
    constraints: Vec<(Constraint, Vec<LinExpr>)>,
    /// Set once a non-inlined call has run: later first-reads of globals
    /// observe a post-call value, not the initial one, and are therefore
    /// not replayable.
    call_seen: bool,
    /// Monotonic counter for unique inline-frame prefixes.
    frames: usize,
}

impl<'w> Exec<'w> {
    fn new(scope: &'w Scope, world: &'w dyn World) -> Exec<'w> {
        Exec {
            world,
            scope,
            bindings: BTreeMap::new(),
            syms: Vec::new(),
            const_syms: BTreeMap::new(),
            constraints: Vec::new(),
            call_seen: false,
            frames: 0,
        }
    }

    fn fresh(&mut self, name: String, replayable: bool) -> SymId {
        let id = self.syms.len() as SymId;
        self.syms.push(SymInfo { name, replayable });
        id
    }

    /// Reads `key` (already frame-resolved), creating an input symbol on
    /// first contact.
    fn read(&mut self, key: &str) -> LinExpr {
        if let Some(b) = self.bindings.get(key) {
            return b.clone();
        }
        let plain = !key.contains(FRAME_SEP) && !key.contains('.') && !key.contains("->");
        let replayable = plain && !self.scope.locals.contains(key) && !self.call_seen;
        let id = self.fresh(key.to_string(), replayable);
        let e = LinExpr::sym(id);
        self.bindings.insert(key.to_string(), e.clone());
        e
    }

    /// Rebinds `key` to an unconstrained fresh value.
    fn havoc_key(&mut self, key: &str) -> LinExpr {
        let id = self.fresh(format!("havoc:{key}"), false);
        let e = LinExpr::sym(id);
        self.bindings.insert(key.to_string(), e.clone());
        e
    }

    /// Forgets every binding a call could have written: global-like keys.
    /// Frame-private (inlined-callee) keys survive — inlining rejects
    /// address-taking, so nothing else can name them.
    fn havoc_globals(&mut self) {
        self.call_seen = true;
        // SHOUTING-named globals that are not true constants can be
        // assigned by the callee too: forget the stable symbols so reads
        // on either side of the call are unrelated. Constants the World
        // knows by value never reach `const_syms` and keep their value.
        self.const_syms.clear();
        let scope = self.scope;
        self.bindings
            .retain(|k, _| k.contains(FRAME_SEP) || !scope.is_globalish(k));
    }

    /// Forgets the whole store (a write through an unresolvable lvalue may
    /// alias anything, including frame-private slots via pointers). A
    /// write to a SHOUTING-named lvalue lands here via `key_of == None`,
    /// so the stable constant symbols must be forgotten as well.
    fn havoc_all(&mut self) {
        self.call_seen = true;
        self.const_syms.clear();
        self.bindings.clear();
    }

    /// The symbolic value of a manifest constant: the concrete value when
    /// the [`World`] knows it, else one stable symbol per name (two uses of
    /// `W_WAIT` are equal even when its value is unknown).
    fn manifest(&mut self, name: &str) -> LinExpr {
        if let Some(v) = self.world.constant(name) {
            return LinExpr::constant(v as i128);
        }
        if let Some(&id) = self.const_syms.get(name) {
            return LinExpr::sym(id);
        }
        let id = self.fresh(name.to_string(), false);
        self.const_syms.insert(name.to_string(), id);
        LinExpr::sym(id)
    }

    /// Evaluates `e` for value *and* side effects. `None` means the value
    /// is outside the linear fragment; effects (stores, havocs) have still
    /// been applied, which is what keeps approximation sound.
    fn eval(&mut self, e: &Expr, frame: &Frame) -> Option<LinExpr> {
        if let Some(c) = const_of(e) {
            return Some(match c {
                Const::Int(v) => LinExpr::constant(v as i128),
                Const::Sym(name) => self.manifest(&name),
            });
        }
        match &e.kind {
            ExprKind::IntLit(..)
            | ExprKind::FloatLit(..)
            | ExprKind::CharLit(..)
            | ExprKind::StrLit(..)
            | ExprKind::SizeofType(_)
            | ExprKind::Wildcard(_) => None,
            ExprKind::Ident(_) | ExprKind::Member { .. } => match key_of(e) {
                Some(k) => {
                    let rk = frame.resolve(&k);
                    Some(self.read(&rk))
                }
                None => {
                    self.eval_children(e, frame);
                    None
                }
            },
            ExprKind::Call { callee, args } => self.call(callee, args, frame),
            ExprKind::Unary { op, operand } => match op {
                UnaryOp::Neg => {
                    let v = self.eval(operand, frame)?;
                    v.mul_const(-1)
                }
                UnaryOp::PreInc => self.incdec(operand, 1, true, frame),
                UnaryOp::PreDec => self.incdec(operand, -1, true, frame),
                UnaryOp::Not | UnaryOp::BitNot | UnaryOp::Deref | UnaryOp::AddrOf => {
                    self.eval_children(e, frame);
                    None
                }
            },
            ExprKind::Postfix { operand, inc } => {
                self.incdec(operand, if *inc { 1 } else { -1 }, false, frame)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                if matches!(op, BinaryOp::LogAnd | BinaryOp::LogOr) {
                    self.eval_children(e, frame);
                    return None;
                }
                let l = self.eval(lhs, frame);
                let r = self.eval(rhs, frame);
                let (l, r) = (l?, r?);
                self.combine(*op, &l, &r)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let rhs_v = self.eval(rhs, frame);
                match lvalue_key(lhs) {
                    Some(k) => {
                        let rk = frame.resolve(&k);
                        let val = match op {
                            None => rhs_v,
                            Some(o) => {
                                let cur = self.read(&rk);
                                rhs_v.and_then(|r| self.combine(*o, &cur, &r))
                            }
                        };
                        Some(match val {
                            Some(v) => {
                                self.bindings.insert(rk, v.clone());
                                v
                            }
                            None => self.havoc_key(&rk),
                        })
                    }
                    None => {
                        self.eval_children(lhs, frame);
                        self.havoc_all();
                        None
                    }
                }
            }
            ExprKind::Ternary { .. } | ExprKind::Index { .. } => {
                self.eval_children(e, frame);
                None
            }
            ExprKind::Cast { expr, .. } => self.eval(expr, frame),
            ExprKind::Comma(a, b) => {
                let _ = self.eval(a, frame);
                self.eval(b, frame)
            }
        }
    }

    /// Evaluates every direct subexpression for side effects only.
    fn eval_children(&mut self, e: &Expr, frame: &Frame) {
        let mut children = Vec::new();
        for_each_child(e, &mut |c| children.push(c.clone()));
        for c in children {
            let _ = self.eval(&c, frame);
        }
    }

    /// Pushes a path constraint derived from comparing (or truth-testing)
    /// the given operand values. Operands whose conservative range can
    /// leave `i64` become range guards on the constraint: wrapping
    /// arithmetic agrees with the unbounded linear form exactly when the
    /// compared values are in range.
    fn push_cmp(&mut self, c: Constraint, operands: &[&LinExpr]) {
        let guards = operands
            .iter()
            .filter(|e| !fits_i64(e))
            .map(|e| (*e).clone())
            .collect();
        self.constraints.push((c, guards));
    }

    /// Combines two linear values. `+`, `-`, `*` and `<<` build the exact
    /// unbounded form — congruent to `mc-sim`'s wrapping result modulo
    /// 2^64, so safe to compose (only *uses* need range guards). The
    /// non-congruent operators fold only in-range constants, where
    /// wrapping cannot occur.
    fn combine(&mut self, op: BinaryOp, l: &LinExpr, r: &LinExpr) -> Option<LinExpr> {
        if matches!(
            op,
            BinaryOp::Div
                | BinaryOp::Rem
                | BinaryOp::Shr
                | BinaryOp::BitAnd
                | BinaryOp::BitOr
                | BinaryOp::BitXor
                | BinaryOp::Lt
                | BinaryOp::Gt
                | BinaryOp::Le
                | BinaryOp::Ge
                | BinaryOp::Eq
                | BinaryOp::Ne
        ) && !(fits_i64(l) && fits_i64(r))
        {
            return None;
        }
        match op {
            BinaryOp::Add => l.add(r),
            BinaryOp::Sub => l.sub(r),
            BinaryOp::Mul => {
                if r.is_const() {
                    l.mul_const(r.constant)
                } else if l.is_const() {
                    r.mul_const(l.constant)
                } else {
                    None
                }
            }
            BinaryOp::Shl => {
                if r.is_const() && (0..=62).contains(&r.constant) {
                    l.mul_const(1i128 << r.constant)
                } else {
                    None
                }
            }
            BinaryOp::Div => {
                if l.is_const() && r.is_const() && r.constant != 0 {
                    Some(LinExpr::constant(l.constant / r.constant))
                } else {
                    None
                }
            }
            BinaryOp::Rem => {
                if l.is_const() && r.is_const() && r.constant != 0 {
                    Some(LinExpr::constant(l.constant % r.constant))
                } else {
                    None
                }
            }
            _ => {
                if l.is_const() && r.is_const() {
                    let (a, b) = (l.constant, r.constant);
                    let v = match op {
                        BinaryOp::Shr => a.checked_shr(u32::try_from(b).ok()?)?,
                        BinaryOp::BitAnd => a & b,
                        BinaryOp::BitOr => a | b,
                        BinaryOp::BitXor => a ^ b,
                        BinaryOp::Lt => i128::from(a < b),
                        BinaryOp::Gt => i128::from(a > b),
                        BinaryOp::Le => i128::from(a <= b),
                        BinaryOp::Ge => i128::from(a >= b),
                        BinaryOp::Eq => i128::from(a == b),
                        BinaryOp::Ne => i128::from(a != b),
                        _ => return None,
                    };
                    Some(LinExpr::constant(v))
                } else {
                    None
                }
            }
        }
    }

    fn incdec(&mut self, operand: &Expr, delta: i128, pre: bool, frame: &Frame) -> Option<LinExpr> {
        match lvalue_key(operand) {
            Some(k) => {
                let rk = frame.resolve(&k);
                let old = self.read(&rk);
                match old.add(&LinExpr::constant(delta)) {
                    Some(new) => {
                        self.bindings.insert(rk, new.clone());
                        Some(if pre { new } else { old })
                    }
                    None => {
                        self.havoc_key(&rk);
                        None
                    }
                }
            }
            None => {
                self.eval_children(operand, frame);
                self.havoc_all();
                None
            }
        }
    }

    fn call(&mut self, callee: &Expr, args: &[Expr], frame: &Frame) -> Option<LinExpr> {
        let arg_vals: Vec<Option<LinExpr>> = args.iter().map(|a| self.eval(a, frame)).collect();
        if callee.as_ident().is_some_and(mc_ast::flash::is_pure) {
            return Some(LinExpr::sym(self.fresh("ret:pure".to_string(), false)));
        }
        let name = match &callee.kind {
            ExprKind::Ident(n) => n.clone(),
            _ => {
                let _ = self.eval(callee, frame);
                self.havoc_globals();
                return Some(LinExpr::sym(self.fresh("ret:?".to_string(), false)));
            }
        };
        if frame.depth < MAX_INLINE_DEPTH {
            if let Some(f) = self.world.function(&name) {
                if inlinable(f) {
                    return Some(self.inline(f, &arg_vals, frame.depth + 1));
                }
            }
        }
        self.havoc_globals();
        Some(LinExpr::sym(self.fresh(format!("ret:{name}"), false)))
    }

    /// Runs a straight-line callee in a private frame, sharing the global
    /// store — the interprocedural constraint splice.
    fn inline(&mut self, f: &Function, arg_vals: &[Option<LinExpr>], depth: usize) -> LinExpr {
        self.frames += 1;
        let callee_scope = Scope::of(f);
        let frame = Frame {
            prefix: format!("{}{}{}", self.frames, f.name, FRAME_SEP),
            locals: callee_scope.locals,
            depth,
        };
        for (p, v) in f.params.iter().zip(arg_vals) {
            if p.name.is_empty() {
                continue;
            }
            let rk = frame.resolve(&p.name);
            match v {
                Some(v) => {
                    self.bindings.insert(rk, v.clone());
                }
                None => {
                    self.havoc_key(&rk);
                }
            }
        }
        for s in &f.body {
            if let Some(ret) = self.inline_stmt(s, &frame) {
                return ret;
            }
        }
        LinExpr::sym(self.fresh(format!("ret:{}", f.name), false))
    }

    /// Executes one statement of an inlined body. `Some` is the returned
    /// value once a `return` runs.
    fn inline_stmt(&mut self, s: &Stmt, frame: &Frame) -> Option<LinExpr> {
        match &s.kind {
            StmtKind::Expr(e) => {
                let _ = self.eval(e, frame);
                None
            }
            StmtKind::Decl(d) => {
                self.decl(d, frame);
                None
            }
            StmtKind::Block(body) => {
                for s in body {
                    if let Some(ret) = self.inline_stmt(s, frame) {
                        return Some(ret);
                    }
                }
                None
            }
            StmtKind::Return(e) => Some(match e {
                Some(e) => self
                    .eval(e, frame)
                    .unwrap_or_else(|| LinExpr::sym(self.fresh("ret:?".to_string(), false))),
                None => LinExpr::constant(0),
            }),
            StmtKind::Empty => None,
            // `inlinable` rejects everything else.
            _ => Some(LinExpr::sym(self.fresh("ret:?".to_string(), false))),
        }
    }

    fn decl(&mut self, d: &mc_ast::Declaration, frame: &Frame) {
        let rk = frame.resolve(&d.name);
        match &d.init {
            Some(Initializer::Expr(e)) => {
                let v = self.eval(e, frame);
                match v {
                    Some(v) => {
                        self.bindings.insert(rk, v);
                    }
                    None => {
                        self.havoc_key(&rk);
                    }
                }
            }
            Some(Initializer::List(_)) => {
                self.havoc_key(&rk);
            }
            None => {}
        }
    }

    /// Asserts that `e` evaluated to `truth` on the path, pushing whatever
    /// linear constraints that implies. Conditions outside the fragment
    /// contribute nothing (sound: fewer constraints, never refutes more).
    fn assume(&mut self, e: &Expr, truth: bool, frame: &Frame) {
        match &e.kind {
            ExprKind::Unary {
                op: UnaryOp::Not,
                operand,
            } => self.assume(operand, !truth, frame),
            ExprKind::Cast { expr, .. } => self.assume(expr, truth, frame),
            ExprKind::Comma(a, b) => {
                let _ = self.eval(a, frame);
                self.assume(b, truth, frame);
            }
            ExprKind::Binary {
                op: BinaryOp::LogAnd,
                lhs,
                rhs,
            } if truth => {
                self.assume(lhs, true, frame);
                self.assume(rhs, true, frame);
            }
            ExprKind::Binary {
                op: BinaryOp::LogOr,
                lhs,
                rhs,
            } if !truth => {
                self.assume(lhs, false, frame);
                self.assume(rhs, false, frame);
            }
            ExprKind::Binary {
                op: BinaryOp::LogAnd | BinaryOp::LogOr,
                lhs,
                rhs,
            } => {
                // A false conjunction / true disjunction is a choice we do
                // not track; evaluate for effects only.
                let _ = self.eval(lhs, frame);
                let _ = self.eval(rhs, frame);
            }
            ExprKind::Binary { op, lhs, rhs }
                if matches!(
                    op,
                    BinaryOp::Eq
                        | BinaryOp::Ne
                        | BinaryOp::Lt
                        | BinaryOp::Le
                        | BinaryOp::Gt
                        | BinaryOp::Ge
                ) =>
            {
                let l = self.eval(lhs, frame);
                let r = self.eval(rhs, frame);
                if let (Some(l), Some(r)) = (l, r) {
                    if let Some(c) = cmp_constraint(*op, &l, &r, truth) {
                        self.push_cmp(c, &[&l, &r]);
                    }
                }
            }
            _ => {
                if let Some(v) = self.eval(e, frame) {
                    let c = if truth {
                        Constraint::Ne(v.clone())
                    } else {
                        Constraint::Eq(v.clone())
                    };
                    self.push_cmp(c, &[&v]);
                }
            }
        }
    }

    /// Decides the collected path condition under wrapping `i64`
    /// semantics.
    ///
    /// With no range guards every constraint is exact, and the solver's
    /// answer is the verdict. Otherwise three systems are consulted, each
    /// over `i64`-bounded symbols (every symbol stands for a concrete
    /// `i64` value):
    ///
    /// 1. *base* — only the guard-free constraints, valid for every
    ///    execution whether anything wrapped or not. `UNSAT` refutes
    ///    outright.
    /// 2. *full* — every constraint plus every guard held in range: the
    ///    no-wrap world. A model here is exact and therefore replayable;
    ///    `UNKNOWN` blocks refutation.
    /// 3. *wrap reachability* — `full` was `UNSAT`, so no in-range
    ///    execution takes the path; it is refuted only if no guard can
    ///    leave the range under the base facts (then every execution *is*
    ///    in-range). Any guard that can wrap leaves the path undecided
    ///    rather than wrongly refuted — e.g. `gNak = gCredit + 1;` then a
    ///    taken `gNak <= gCredit`, concretely satisfied at
    ///    `gCredit == i64::MAX`.
    fn decide(&self) -> Verdict {
        let exact: Vec<Constraint> = self
            .constraints
            .iter()
            .filter(|(_, g)| g.is_empty())
            .map(|(c, _)| c.clone())
            .collect();
        let mut guards: Vec<LinExpr> = Vec::new();
        for (_, gs) in &self.constraints {
            for g in gs {
                if !guards.contains(g) {
                    guards.push(g.clone());
                }
            }
        }
        if guards.is_empty() {
            return match solver::solve(&exact) {
                SolveResult::Unsat => Verdict::Refuted,
                SolveResult::Unknown => Verdict::Unknown,
                SolveResult::Sat(model) => Verdict::Sat {
                    model: model
                        .as_ref()
                        .map(|m| self.extract_model(m))
                        .unwrap_or_default(),
                },
            };
        }
        let min = LinExpr::constant(i64::MIN as i128);
        let max = LinExpr::constant(i64::MAX as i128);
        let one = LinExpr::constant(1);
        // e in [i64::MIN, i64::MAX], as two `Le` rows.
        let in_range = |e: &LinExpr, out: &mut Vec<Constraint>| -> bool {
            let (Some(hi), Some(lo)) = (e.sub(&max), min.sub(e)) else {
                return false;
            };
            out.push(Constraint::Le(hi));
            out.push(Constraint::Le(lo));
            true
        };
        let mut syms: BTreeSet<SymId> = BTreeSet::new();
        for (c, gs) in &self.constraints {
            let (Constraint::Eq(e) | Constraint::Le(e) | Constraint::Ne(e)) = c;
            syms.extend(e.terms.keys().copied());
            for g in gs {
                syms.extend(g.terms.keys().copied());
            }
        }
        let mut base = exact;
        for s in &syms {
            if !in_range(&LinExpr::sym(*s), &mut base) {
                return Verdict::Unknown;
            }
        }
        if matches!(solver::solve(&base), SolveResult::Unsat) {
            return Verdict::Refuted;
        }
        let mut full = base.clone();
        for (c, gs) in &self.constraints {
            if !gs.is_empty() {
                full.push(c.clone());
            }
        }
        for g in &guards {
            if !in_range(g, &mut full) {
                return Verdict::Unknown;
            }
        }
        match solver::solve(&full) {
            SolveResult::Sat(model) => {
                return Verdict::Sat {
                    model: model
                        .as_ref()
                        .map(|m| self.extract_model(m))
                        .unwrap_or_default(),
                }
            }
            SolveResult::Unknown => return Verdict::Unknown,
            SolveResult::Unsat => {}
        }
        for g in &guards {
            let sides = [
                // Wrapped high: g >= i64::MAX + 1.
                max.add(&one).and_then(|m| m.sub(g)),
                // Wrapped low: g <= i64::MIN - 1.
                g.sub(&min).and_then(|d| d.add(&one)),
            ];
            for side in sides {
                let Some(side) = side else {
                    return Verdict::Unknown;
                };
                let mut sys = base.clone();
                sys.push(Constraint::Le(side));
                if !matches!(solver::solve(&sys), SolveResult::Unsat) {
                    return Verdict::Unknown;
                }
            }
        }
        Verdict::Refuted
    }

    /// Replayable `(global, initial value)` pairs from a solver model.
    fn extract_model(&self, model: &BTreeMap<SymId, i128>) -> Vec<(String, i64)> {
        let mut out: Vec<(String, i64)> = model
            .iter()
            .filter_map(|(id, v)| {
                let info = self.syms.get(*id as usize)?;
                if !info.replayable {
                    return None;
                }
                Some((info.name.clone(), i64::try_from(*v).ok()?))
            })
            .collect();
        out.sort();
        out
    }
}

/// Whether `e`'s value is guaranteed representable as `i64` when every
/// symbol ranges over all of `i64` — the condition under which the exact
/// linear form agrees with `mc-sim`'s wrapping `i64` arithmetic. (Every
/// symbol stands for a concrete `i64`: an input global, a havoc, a call
/// result, or an already-wrapped value.)
fn fits_i64(e: &LinExpr) -> bool {
    let (mut lo, mut hi) = (e.constant, e.constant);
    for &c in e.terms.values() {
        let (Some(a), Some(b)) = (
            c.checked_mul(i64::MIN as i128),
            c.checked_mul(i64::MAX as i128),
        ) else {
            return false;
        };
        let (term_lo, term_hi) = if c >= 0 { (a, b) } else { (b, a) };
        let (Some(l), Some(h)) = (lo.checked_add(term_lo), hi.checked_add(term_hi)) else {
            return false;
        };
        lo = l;
        hi = h;
    }
    lo >= i64::MIN as i128 && hi <= i64::MAX as i128
}

/// Builds the normalized `e ⋈ 0` constraint for `lhs op rhs == truth`.
fn cmp_constraint(op: BinaryOp, l: &LinExpr, r: &LinExpr, truth: bool) -> Option<Constraint> {
    let one = LinExpr::constant(1);
    let d = l.sub(r)?; // l - r
    Some(match (op, truth) {
        (BinaryOp::Eq, true) | (BinaryOp::Ne, false) => Constraint::Eq(d),
        (BinaryOp::Ne, true) | (BinaryOp::Eq, false) => Constraint::Ne(d),
        // l < r  ⇔  l - r + 1 <= 0; its negation is r <= l.
        (BinaryOp::Lt, true) | (BinaryOp::Ge, false) => Constraint::Le(d.add(&one)?),
        (BinaryOp::Lt, false) | (BinaryOp::Ge, true) => Constraint::Le(r.sub(l)?),
        (BinaryOp::Le, true) | (BinaryOp::Gt, false) => Constraint::Le(d),
        (BinaryOp::Le, false) | (BinaryOp::Gt, true) => Constraint::Le(r.sub(l)?.add(&one)?),
        _ => return None,
    })
}

/// Whether `f` can be inlined: a straight-line body (no control flow other
/// than `return`) that never takes an address (so frame-private locals are
/// unaliasable).
fn inlinable(f: &Function) -> bool {
    fn stmt_ok(s: &Stmt) -> bool {
        match &s.kind {
            StmtKind::Expr(e) => expr_ok(e),
            StmtKind::Decl(d) => match &d.init {
                Some(Initializer::Expr(e)) => expr_ok(e),
                _ => true,
            },
            StmtKind::Block(body) => body.iter().all(stmt_ok),
            StmtKind::Return(e) => e.as_ref().is_none_or(expr_ok),
            StmtKind::Empty => true,
            _ => false,
        }
    }
    fn expr_ok(e: &Expr) -> bool {
        if matches!(
            &e.kind,
            ExprKind::Unary {
                op: UnaryOp::AddrOf,
                ..
            }
        ) {
            return false;
        }
        let mut ok = true;
        for_each_child(e, &mut |c| ok &= expr_ok(c));
        ok
    }
    f.body.iter().all(stmt_ok)
}

/// Executes the sliced `ops` and decides the path condition. Returns the
/// verdict and the number of constraints collected.
pub fn run(ops: &[PathOp], scope: &Scope, world: &dyn World) -> (Verdict, usize) {
    let mut ex = Exec::new(scope, world);
    let frame = Frame {
        prefix: String::new(),
        locals: scope.locals.clone(),
        depth: 0,
    };
    for op in ops {
        match op {
            PathOp::Stmt(s) => match &s.kind {
                StmtKind::Expr(e) => {
                    let _ = ex.eval(e, &frame);
                }
                StmtKind::Decl(d) => ex.decl(d, &frame),
                _ => {}
            },
            PathOp::Branch { cond, taken } => ex.assume(cond, *taken, &frame),
            PathOp::Case {
                scrutinee,
                arm,
                excluded,
            } => {
                let s = ex.eval(scrutinee, &frame);
                match arm {
                    Some(a) => {
                        let av = ex.eval(a, &frame);
                        if let (Some(s), Some(av)) = (&s, av) {
                            if let Some(d) = s.sub(&av) {
                                ex.push_cmp(Constraint::Eq(d), &[s, &av]);
                            }
                        }
                    }
                    None => {
                        for x in excluded {
                            let xv = ex.eval(x, &frame);
                            if let (Some(s), Some(xv)) = (&s, xv) {
                                if let Some(d) = s.sub(&xv) {
                                    ex.push_cmp(Constraint::Ne(d), &[s, &xv]);
                                }
                            }
                        }
                    }
                }
            }
            PathOp::Return => {}
        }
    }
    let n = ex.constraints.len();
    (ex.decide(), n)
}
