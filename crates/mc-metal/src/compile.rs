//! Compilation of metal programs to indexed decision programs — the
//! engine the driver runs.
//!
//! The interpreter ([`crate::MetalMachine`]) walks the pattern AST
//! recursively for every `(candidate, pattern)` pair and re-derives a
//! per-candidate identifier set for the `required_idents` pre-filter; it is
//! kept as the reference semantics the tests hold this module to. This
//! module lowers a parsed [`MetalProgram`] once, at load time, into a
//! [`CompiledProgram`]:
//!
//! * a **dispatch index** per state, keyed on the candidate's root
//!   expression kind and head identifier, so a candidate only ever meets
//!   the patterns that could possibly match it;
//! * **pattern bytecode** — each pattern becomes a flat op sequence
//!   executed by a small non-recursive loop with interned identifiers and
//!   pre-allocated binding slots;
//! * **load-time validation** — unreachable states, shadowed rules,
//!   unbound `%wildcard` interpolations, and unmatchable patterns are
//!   diagnosed once, when the checker is loaded, instead of silently doing
//!   nothing at check time.
//!
//! Pattern matching does not depend on the machine's state, so a
//! [`CandidatePlan`] runs the index and bytecode once per function, for
//! every event node and every state. [`CompiledMachine::with_plan`] then
//! only replays the plan down each path. The reports are byte-identical to
//! the interpreter's: the index only skips patterns that cannot match, rule
//! order is preserved by merging index buckets on rule/pattern ordinals,
//! and the bytecode replays exactly the comparison and binding order of
//! [`crate::matcher`].

use crate::engine::{interpolate, Candidate, MetalReport};
use crate::lang::{
    Action, MetalProgram, Pattern, PatternKind, Rule, RuleTarget, StateId, TypeClass,
};
use crate::matcher::{exprs_equal, Bindings};
use mc_ast::{BinaryOp, Expr, ExprKind, Initializer, Span, Stmt, StmtKind, Type, UnaryOp};
use mc_cfg::{PathEvent, PathMachine, Witness};
use std::collections::{BTreeMap, HashMap, HashSet};

/// A hard error that prevents a program from being compiled.
///
/// Compilation only fails on structural impossibilities (e.g. a pattern
/// with more than 255 distinct wildcards); everything a parsed program can
/// legitimately express compiles, possibly with [`CompileDiag`] warnings,
/// so every program the interpreter can run also loads compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Location of the offending rule in the metal source.
    pub span: Span,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// The category of a load-time diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileDiagKind {
    /// A state that no reachable rule transitions into.
    UnreachableState,
    /// A pattern structurally covered by an earlier pattern of the same
    /// state, so the earlier rule always wins.
    ShadowedRule,
    /// An action message referencing a `%wildcard` that some pattern
    /// alternative of the rule never binds.
    UnboundInterpolation,
    /// A pattern that can never match any candidate the traversal emits.
    UnmatchablePattern,
}

impl CompileDiagKind {
    /// A stable identifier for the diagnostic, used in rendered reports.
    pub fn code(self) -> &'static str {
        match self {
            CompileDiagKind::UnreachableState => "unreachable-state",
            CompileDiagKind::ShadowedRule => "shadowed-rule",
            CompileDiagKind::UnboundInterpolation => "unbound-interpolation",
            CompileDiagKind::UnmatchablePattern => "unmatchable-pattern",
        }
    }
}

/// A load-time warning about a suspicious (but accepted) metal program.
///
/// Diagnostics never reject a program the parser accepted — both engines
/// must check the same suite — they are surfaced through the driver as
/// warning-severity reports against the checker source itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileDiag {
    /// What kind of problem was found.
    pub kind: CompileDiagKind,
    /// Human-readable description, naming the state or rule involved.
    pub message: String,
    /// Location in the metal source (a state name or rule start).
    pub span: Span,
}

/// Interned identifier symbol; compares as a `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Sym(u32);

/// String interner for pattern identifiers and member field names.
///
/// Only identifiers that appear in patterns are interned; a candidate-side
/// name that fails [`Interner::lookup`] can therefore not match any keyed
/// pattern, which is what makes head-identifier dispatch O(1).
#[derive(Debug, Default)]
struct Interner {
    names: Vec<String>,
    map: HashMap<String, Sym>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let s = Sym(self.names.len() as u32);
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        s
    }

    fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }

    fn name(&self, s: Sym) -> &str {
        &self.names[s.0 as usize]
    }
}

/// One bytecode instruction of a compiled pattern.
///
/// Ops are emitted in pre-order over the pattern AST; the executor pops the
/// corresponding candidate node off an explicit stack, tests it, and pushes
/// its children in reverse so they pop in emission order.
#[derive(Debug, Clone)]
enum Op {
    /// Bind the node to wildcard slot `slot` (class-checked; a repeated
    /// slot must be structurally equal to the first binding).
    Bind { slot: u8, class: TypeClass },
    /// Node must be the interned identifier.
    Ident(Sym),
    /// Node must be an integer literal with this value.
    IntLit(i64),
    /// Node must be a float literal with this value.
    FloatLit(f64),
    /// Node must be a character literal with this value.
    CharLit(char),
    /// Node must be a string literal with this value.
    StrLit(String),
    /// Node must be a call with exactly `arity` arguments; descends into
    /// callee then arguments.
    CallHead { arity: u32 },
    /// Node must be a binary expression with this operator.
    Binary(BinaryOp),
    /// Node must be a unary expression with this operator.
    Unary(UnaryOp),
    /// Node must be a postfix `++`/`--` with matching direction.
    Postfix { inc: bool },
    /// Node must be an assignment with this (compound) operator.
    Assign { op: Option<BinaryOp> },
    /// Node must be a ternary conditional.
    Ternary,
    /// Node must be an index expression.
    Index,
    /// Node must be a member access with this field and `.`/`->` kind.
    Member { field: Sym, arrow: bool },
    /// Node must be a cast to exactly this type.
    Cast(Type),
    /// Node must be `sizeof` of exactly this type.
    SizeofType(Type),
    /// Node must be a comma expression.
    Comma,
}

/// The statement-level shape of a compiled pattern — what kinds of
/// candidate it can meet at all.
#[derive(Debug, Clone)]
enum PatShape {
    /// An expression pattern. `from_stmt` records that it was written as a
    /// statement (`{ e; }`), which also matches expression statements.
    Expr { from_stmt: bool },
    /// `return;`
    ReturnNone,
    /// `return e;` — ops run against the returned expression.
    ReturnSome,
    /// A declaration; ops run against the initializer when `has_init`.
    Decl {
        /// Declared type, compared exactly.
        ty: Type,
        /// Declared name, compared exactly.
        name: String,
        /// Whether the pattern has an initializer expression.
        has_init: bool,
    },
    /// `;`
    Empty,
    /// A pattern no candidate can ever match (e.g. a list initializer, or
    /// `break;`, which the CFG turns into an edge).
    Never,
}

/// A fully lowered pattern: shape, bytecode, and binding slot names.
#[derive(Debug)]
struct CompiledPattern {
    shape: PatShape,
    ops: Vec<Op>,
    /// Wildcard name and class per slot, in first-occurrence order.
    slots: Vec<(String, TypeClass)>,
}

/// A rule's compiled action part (the match part lives in the patterns).
#[derive(Debug)]
struct CompiledRule {
    target: RuleTarget,
    actions: Vec<Action>,
}

/// An index entry: rule/pattern ids plus the ordinal that preserves the
/// interpreter's first-match-wins order when buckets are merged.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ord: u32,
    rule: u32,
    pat: u32,
}

/// Number of expression kind tags (see [`expr_tag`]).
const N_TAGS: usize = 17;

fn expr_tag(k: &ExprKind) -> usize {
    match k {
        ExprKind::IntLit(..) => 0,
        ExprKind::FloatLit(..) => 1,
        ExprKind::CharLit(..) => 2,
        ExprKind::StrLit(..) => 3,
        ExprKind::Ident(..) => 4,
        ExprKind::Call { .. } => 5,
        ExprKind::Binary { .. } => 6,
        ExprKind::Unary { .. } => 7,
        ExprKind::Postfix { .. } => 8,
        ExprKind::Assign { .. } => 9,
        ExprKind::Ternary { .. } => 10,
        ExprKind::Index { .. } => 11,
        ExprKind::Member { .. } => 12,
        ExprKind::Cast { .. } => 13,
        ExprKind::SizeofType(..) => 14,
        ExprKind::Comma(..) => 15,
        ExprKind::Wildcard(..) => 16,
    }
}

/// The head identifier of an expression: the name reached by descending
/// the child the matcher compares first (callee of a call, base of a
/// member/index, left operand, …). Because the matcher forces the pattern
/// and candidate to agree on node kind at every step of this path, a
/// pattern with head `H` can only match candidates with head `H` — that is
/// the soundness argument for keyed dispatch.
fn head_ident(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Ident(name) => Some(name),
        ExprKind::Call { callee, .. } => head_ident(callee),
        ExprKind::Assign { lhs, .. } => head_ident(lhs),
        ExprKind::Member { base, .. } => head_ident(base),
        ExprKind::Index { base, .. } => head_ident(base),
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => head_ident(operand),
        ExprKind::Cast { expr, .. } => head_ident(expr),
        ExprKind::Binary { lhs, .. } => head_ident(lhs),
        ExprKind::Comma(a, _) => head_ident(a),
        ExprKind::Ternary { cond, .. } => head_ident(cond),
        _ => None,
    }
}

/// Where a pattern is registered in the per-state dispatch index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ExprDispatch {
    /// `by_key[(tag, head)]` — root kind and head identifier both pinned.
    Keyed(usize, Sym),
    /// `by_kind[tag]` — root kind pinned, head unknown (a wildcard sits on
    /// the head path).
    Kind(usize),
    /// Wildcard root: meets every expression candidate.
    Generic,
}

/// The dispatch index of one state: every pattern of the state's effective
/// rule list (own rules, then `all` rules) appears in exactly one bucket.
#[derive(Debug, Default)]
struct StateIndex {
    /// Keyed bucket: `(root tag << 32) | head symbol`.
    by_key: HashMap<u64, Vec<Entry>>,
    /// Per-root-kind bucket for patterns with an unkeyable head.
    by_kind: Vec<Vec<Entry>>,
    /// Wildcard-root patterns, tried against every expression.
    generic: Vec<Entry>,
    /// `has_key[tag]` — whether `by_key` has any entry with this root tag,
    /// letting the hot path skip the candidate head walk entirely.
    has_key: [bool; N_TAGS],
    /// Statement-pattern buckets by candidate statement kind.
    expr_stmt: Vec<Entry>,
    ret_none: Vec<Entry>,
    ret_some: Vec<Entry>,
    decl: Vec<Entry>,
    empty: Vec<Entry>,
}

fn key_of(tag: usize, sym: Sym) -> u64 {
    ((tag as u64) << 32) | sym.0 as u64
}

/// Program-wide union of every state's expression dispatch buckets.
///
/// [`CandidatePlan::build`] consults it to reject candidates that cannot
/// match in *any* state with one tag test (plus, for keyed patterns, one
/// head lookup), before paying the per-state dispatch rounds.
#[derive(Debug, Default)]
struct Prefilter {
    /// `by_kind[tag]` is nonempty in some state.
    any_kind: [bool; N_TAGS],
    /// Some state has a generic (wildcard-root) pattern.
    any_generic: bool,
    /// Some state has a keyed pattern with this root tag.
    any_has_key: [bool; N_TAGS],
    /// Union of the states' `by_key` key sets.
    any_key: HashSet<u64>,
}

impl Prefilter {
    fn build(states: &[StateIndex]) -> Prefilter {
        let mut pre = Prefilter::default();
        for idx in states {
            for (tag, has) in idx.has_key.iter().enumerate() {
                pre.any_has_key[tag] |= has;
            }
            pre.any_key.extend(idx.by_key.keys().copied());
            for (tag, bucket) in idx.by_kind.iter().enumerate() {
                pre.any_kind[tag] |= !bucket.is_empty();
            }
            pre.any_generic |= !idx.generic.is_empty();
        }
        pre
    }

    /// `false` only if [`CompiledMachine::find_expr`] is guaranteed to
    /// return `None` for `e` in every state.
    fn admits(&self, interner: &Interner, e: &Expr) -> bool {
        if self.any_generic {
            return true;
        }
        let tag = expr_tag(&e.kind);
        if self.any_kind[tag] {
            return true;
        }
        if !self.any_has_key[tag] {
            return false;
        }
        match head_ident(e).and_then(|n| interner.lookup(n)) {
            Some(sym) => self.any_key.contains(&key_of(tag, sym)),
            None => false,
        }
    }
}

/// Cross-program union of several [`Prefilter`]s, keyed by head-ident
/// *string hash* instead of per-program interner symbols so one probe
/// covers every program. Hash collisions only widen the filter (the
/// per-program [`Prefilter::admits`] still runs on whatever gets through),
/// so a false positive costs a little time and a false negative is
/// impossible.
#[derive(Debug, Default)]
struct UnionPrefilter {
    any_kind: [bool; N_TAGS],
    any_generic: bool,
    any_has_key: [bool; N_TAGS],
    names: HashSet<u64, std::hash::BuildHasherDefault<NodeKeyHasher>>,
}

fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn union_key(tag: usize, name: &str) -> u64 {
    fnv64(name).wrapping_mul(31).wrapping_add(tag as u64)
}

impl UnionPrefilter {
    fn build(progs: &[&CompiledProgram]) -> UnionPrefilter {
        let mut u = UnionPrefilter::default();
        for prog in progs {
            for tag in 0..N_TAGS {
                u.any_kind[tag] |= prog.pre.any_kind[tag];
                u.any_has_key[tag] |= prog.pre.any_has_key[tag];
            }
            u.any_generic |= prog.pre.any_generic;
            for &key in &prog.pre.any_key {
                let tag = (key >> 32) as usize;
                let name = prog.interner.name(Sym(key as u32));
                u.names.insert(union_key(tag, name));
            }
        }
        u
    }

    /// `false` only if every program's [`Prefilter::admits`] returns
    /// `false` for `e`.
    fn admits(&self, e: &Expr) -> bool {
        if self.any_generic {
            return true;
        }
        let tag = expr_tag(&e.kind);
        if self.any_kind[tag] {
            return true;
        }
        if !self.any_has_key[tag] {
            return false;
        }
        match head_ident(e) {
            Some(n) => self.names.contains(&union_key(tag, n)),
            None => false,
        }
    }
}

/// A metal program lowered to an indexed decision program.
///
/// Built once per program by [`CompiledProgram::compile`]; shared
/// (immutably) by every [`CompiledMachine`] that runs it. Owns everything
/// it needs, so it can live alongside the source [`MetalProgram`] without
/// borrowing from it.
#[derive(Debug)]
pub struct CompiledProgram {
    name: String,
    state_names: Vec<String>,
    rules: Vec<CompiledRule>,
    patterns: Vec<CompiledPattern>,
    states: Vec<StateIndex>,
    interner: Interner,
    max_slots: usize,
    pre: Prefilter,
    diagnostics: Vec<CompileDiag>,
}

impl CompiledProgram {
    /// Lowers `prog` into bytecode plus per-state dispatch indexes, and
    /// runs load-time validation. Validation problems are recorded as
    /// [`CompileDiag`] warnings (see [`CompiledProgram::diagnostics`]);
    /// `Err` is reserved for structural impossibilities.
    pub fn compile(prog: &MetalProgram) -> Result<CompiledProgram, CompileError> {
        let mut interner = Interner::default();
        let mut rules: Vec<CompiledRule> = Vec::new();
        let mut patterns: Vec<CompiledPattern> = Vec::new();
        let mut max_slots = 0usize;
        // Global (rule id, pattern ids) per state, in declaration order.
        let mut state_rules: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();

        for st in &prog.states {
            let mut rids = Vec::new();
            for rule in &st.rules {
                let rid = rules.len() as u32;
                rules.push(CompiledRule {
                    target: rule.target.clone(),
                    actions: rule.actions.clone(),
                });
                let mut pids = Vec::new();
                for pat in &rule.patterns {
                    let pid = patterns.len() as u32;
                    let compiled = compile_pattern(pat, prog, &mut interner, rule.span)?;
                    max_slots = max_slots.max(compiled.slots.len());
                    patterns.push(compiled);
                    pids.push(pid);
                }
                rids.push((rid, pids));
            }
            state_rules.push(rids);
        }

        // Per-state dispatch: effective order is the state's own rules
        // followed by the `all` state's rules, exactly like the
        // interpreter's `find_rule`. Ordinals are per-state because the
        // same `all` rule sits at a different position in each state's
        // effective list.
        let mut states = Vec::with_capacity(prog.states.len());
        for (si, _) in prog.states.iter().enumerate() {
            let mut idx = StateIndex {
                by_kind: vec![Vec::new(); N_TAGS],
                ..StateIndex::default()
            };
            let mut ord = 0u32;
            let mut effective: Vec<&(u32, Vec<u32>)> = state_rules[si].iter().collect();
            if let Some(all) = prog.all_state {
                if all.0 != si {
                    effective.extend(state_rules[all.0].iter());
                }
            }
            for (rid, pids) in effective {
                for pid in pids {
                    let entry = Entry {
                        ord,
                        rule: *rid,
                        pat: *pid,
                    };
                    ord += 1;
                    register(&mut idx, entry, &patterns[*pid as usize]);
                }
            }
            states.push(idx);
        }

        let pre = Prefilter::build(&states);
        let mut cp = CompiledProgram {
            name: prog.name.clone(),
            state_names: prog.states.iter().map(|s| s.name.clone()).collect(),
            rules,
            patterns,
            states,
            interner,
            max_slots,
            pre,
            diagnostics: Vec::new(),
        };
        cp.diagnostics = validate(prog, &cp);
        Ok(cp)
    }

    /// Machine name from `sm NAME { ... }`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The start state (the first declared state, like the interpreter).
    pub fn start_state(&self) -> StateId {
        StateId(0)
    }

    /// State names in declaration order.
    pub fn state_names(&self) -> &[String] {
        &self.state_names
    }

    /// Looks up a state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names.iter().position(|s| s == name).map(StateId)
    }

    /// Load-time validation warnings, in deterministic source order.
    pub fn diagnostics(&self) -> &[CompileDiag] {
        &self.diagnostics
    }

    /// Dispatches one expression candidate through the state's index: the
    /// keyed, per-kind, and generic buckets are merged on ordinals so the
    /// first match found is the first match the interpreter would find.
    ///
    /// Returns the matched `(rule, pattern)` ids; on success the caller's
    /// `slots` hold the bindings (pattern [`NO_PAT`] means a bindingless
    /// match whose slots are meaningless). Every pattern execution counts
    /// one in `attempts`.
    fn find_expr<'a>(
        &self,
        state: StateId,
        e: &'a Expr,
        stack: &mut Vec<&'a Expr>,
        slots: &mut [Option<&'a Expr>],
        attempts: &mut u64,
    ) -> Option<(u32, u32)> {
        let idx = &self.states[state.0];
        let tag = expr_tag(&e.kind);
        let keyed: &[Entry] = if idx.has_key[tag] {
            match head_ident(e).and_then(|n| self.interner.lookup(n)) {
                Some(sym) => idx
                    .by_key
                    .get(&key_of(tag, sym))
                    .map(|v| v.as_slice())
                    .unwrap_or(&[]),
                None => &[],
            }
        } else {
            &[]
        };
        let kinded: &[Entry] = &idx.by_kind[tag];
        let generic: &[Entry] = &idx.generic;

        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        loop {
            let a = keyed.get(i).map_or(u32::MAX, |en| en.ord);
            let b = kinded.get(j).map_or(u32::MAX, |en| en.ord);
            let c = generic.get(k).map_or(u32::MAX, |en| en.ord);
            if a == u32::MAX && b == u32::MAX && c == u32::MAX {
                return None;
            }
            let entry = if a <= b && a <= c {
                i += 1;
                keyed[i - 1]
            } else if b <= c {
                j += 1;
                kinded[j - 1]
            } else {
                k += 1;
                generic[k - 1]
            };
            *attempts += 1;
            let pat = &self.patterns[entry.pat as usize];
            if exec(&pat.ops, e, &self.interner, stack, slots) {
                return Some((entry.rule, entry.pat));
            }
        }
    }

    /// Dispatches one statement candidate through the per-kind statement
    /// buckets (each already in ordinal order). Only the statement kinds a
    /// CFG keeps as event nodes (expression, declaration, empty) can match;
    /// `return` is resolved by the plan itself. Return convention as in
    /// [`CompiledProgram::find_expr`].
    fn find_stmt<'a>(
        &self,
        state: StateId,
        s: &'a Stmt,
        stack: &mut Vec<&'a Expr>,
        slots: &mut [Option<&'a Expr>],
        attempts: &mut u64,
    ) -> Option<(u32, u32)> {
        let idx = &self.states[state.0];
        match &s.kind {
            StmtKind::Expr(e) => {
                for entry in &idx.expr_stmt {
                    *attempts += 1;
                    let pat = &self.patterns[entry.pat as usize];
                    if exec(&pat.ops, e, &self.interner, stack, slots) {
                        return Some((entry.rule, entry.pat));
                    }
                }
                None
            }
            StmtKind::Decl(d) => {
                for entry in &idx.decl {
                    *attempts += 1;
                    let pat = &self.patterns[entry.pat as usize];
                    let PatShape::Decl { ty, name, has_init } = &pat.shape else {
                        continue;
                    };
                    if *ty != d.ty || *name != d.name {
                        continue;
                    }
                    match (*has_init, &d.init) {
                        (false, None) => return Some((entry.rule, NO_PAT)),
                        (true, Some(Initializer::Expr(e)))
                            if exec(&pat.ops, e, &self.interner, stack, slots) =>
                        {
                            return Some((entry.rule, entry.pat));
                        }
                        _ => {}
                    }
                }
                None
            }
            StmtKind::Empty => idx.empty.first().map(|e| {
                *attempts += 1;
                (e.rule, NO_PAT)
            }),
            _ => None,
        }
    }
}

/// Compiles one pattern to shape + bytecode.
fn compile_pattern(
    pat: &Pattern,
    prog: &MetalProgram,
    interner: &mut Interner,
    span: Span,
) -> Result<CompiledPattern, CompileError> {
    let mut ops = Vec::new();
    let mut slots: Vec<(String, TypeClass)> = Vec::new();
    let shape = match &pat.kind {
        PatternKind::Expr(e) => {
            emit_expr(e, prog, interner, &mut ops, &mut slots, span)?;
            PatShape::Expr { from_stmt: false }
        }
        PatternKind::Stmt(s) => match &s.kind {
            StmtKind::Expr(e) => {
                emit_expr(e, prog, interner, &mut ops, &mut slots, span)?;
                PatShape::Expr { from_stmt: true }
            }
            StmtKind::Return(None) => PatShape::ReturnNone,
            StmtKind::Return(Some(e)) => {
                emit_expr(e, prog, interner, &mut ops, &mut slots, span)?;
                PatShape::ReturnSome
            }
            StmtKind::Empty => PatShape::Empty,
            StmtKind::Decl(d) => match &d.init {
                None => PatShape::Decl {
                    ty: d.ty.clone(),
                    name: d.name.clone(),
                    has_init: false,
                },
                Some(Initializer::Expr(e)) => {
                    emit_expr(e, prog, interner, &mut ops, &mut slots, span)?;
                    PatShape::Decl {
                        ty: d.ty.clone(),
                        name: d.name.clone(),
                        has_init: true,
                    }
                }
                // The matcher rejects every candidate for list
                // initializers; keep the pattern (both engines must agree)
                // but mark it unmatchable.
                Some(_) => PatShape::Never,
            },
            // Control-flow statements, `break` and `continue` included, are
            // decomposed by the CFG into edges and never appear as
            // candidates.
            _ => PatShape::Never,
        },
    };
    Ok(CompiledPattern { shape, ops, slots })
}

/// Emits pre-order bytecode for an expression pattern.
fn emit_expr(
    e: &Expr,
    prog: &MetalProgram,
    interner: &mut Interner,
    ops: &mut Vec<Op>,
    slots: &mut Vec<(String, TypeClass)>,
    span: Span,
) -> Result<(), CompileError> {
    match &e.kind {
        ExprKind::Wildcard(name) => {
            let slot = match slots.iter().position(|(n, _)| n == name) {
                Some(i) => i,
                None => {
                    let class = prog.wildcards.get(name).copied().unwrap_or(TypeClass::Any);
                    slots.push((name.clone(), class));
                    slots.len() - 1
                }
            };
            if slot > u8::MAX as usize {
                return Err(CompileError {
                    message: format!(
                        "pattern has more than {} distinct wildcards",
                        u8::MAX as usize + 1
                    ),
                    span,
                });
            }
            ops.push(Op::Bind {
                slot: slot as u8,
                class: slots[slot].1,
            });
        }
        ExprKind::Ident(name) => ops.push(Op::Ident(interner.intern(name))),
        ExprKind::IntLit(v, _) => ops.push(Op::IntLit(*v)),
        ExprKind::FloatLit(v, _) => ops.push(Op::FloatLit(*v)),
        ExprKind::CharLit(c) => ops.push(Op::CharLit(*c)),
        ExprKind::StrLit(s) => ops.push(Op::StrLit(s.clone())),
        ExprKind::Call { callee, args } => {
            ops.push(Op::CallHead {
                arity: args.len() as u32,
            });
            emit_expr(callee, prog, interner, ops, slots, span)?;
            for a in args {
                emit_expr(a, prog, interner, ops, slots, span)?;
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            ops.push(Op::Binary(*op));
            emit_expr(lhs, prog, interner, ops, slots, span)?;
            emit_expr(rhs, prog, interner, ops, slots, span)?;
        }
        ExprKind::Unary { op, operand } => {
            ops.push(Op::Unary(*op));
            emit_expr(operand, prog, interner, ops, slots, span)?;
        }
        ExprKind::Postfix { operand, inc } => {
            ops.push(Op::Postfix { inc: *inc });
            emit_expr(operand, prog, interner, ops, slots, span)?;
        }
        ExprKind::Assign { op, lhs, rhs } => {
            ops.push(Op::Assign { op: *op });
            emit_expr(lhs, prog, interner, ops, slots, span)?;
            emit_expr(rhs, prog, interner, ops, slots, span)?;
        }
        ExprKind::Ternary { cond, then, els } => {
            ops.push(Op::Ternary);
            emit_expr(cond, prog, interner, ops, slots, span)?;
            emit_expr(then, prog, interner, ops, slots, span)?;
            emit_expr(els, prog, interner, ops, slots, span)?;
        }
        ExprKind::Index { base, index } => {
            ops.push(Op::Index);
            emit_expr(base, prog, interner, ops, slots, span)?;
            emit_expr(index, prog, interner, ops, slots, span)?;
        }
        ExprKind::Member { base, field, arrow } => {
            ops.push(Op::Member {
                field: interner.intern(field),
                arrow: *arrow,
            });
            emit_expr(base, prog, interner, ops, slots, span)?;
        }
        ExprKind::Cast { ty, expr } => {
            ops.push(Op::Cast(ty.clone()));
            emit_expr(expr, prog, interner, ops, slots, span)?;
        }
        ExprKind::SizeofType(ty) => ops.push(Op::SizeofType(ty.clone())),
        ExprKind::Comma(a, b) => {
            ops.push(Op::Comma);
            emit_expr(a, prog, interner, ops, slots, span)?;
            emit_expr(b, prog, interner, ops, slots, span)?;
        }
    }
    Ok(())
}

/// Registers a pattern's entry in the right bucket(s) of a state index.
fn register(idx: &mut StateIndex, entry: Entry, pat: &CompiledPattern) {
    match &pat.shape {
        PatShape::Expr { from_stmt } => {
            // Root op decides the expression-side bucket.
            let dispatch = match pat.ops.first() {
                Some(Op::Bind { .. }) | None => ExprDispatch::Generic,
                Some(op) => {
                    let tag = root_tag(op);
                    match pattern_head(pat) {
                        Some(sym) => ExprDispatch::Keyed(tag, sym),
                        None => ExprDispatch::Kind(tag),
                    }
                }
            };
            match dispatch {
                ExprDispatch::Keyed(tag, sym) => {
                    idx.has_key[tag] = true;
                    idx.by_key.entry(key_of(tag, sym)).or_default().push(entry);
                }
                ExprDispatch::Kind(tag) => idx.by_kind[tag].push(entry),
                ExprDispatch::Generic => idx.generic.push(entry),
            }
            if *from_stmt {
                idx.expr_stmt.push(entry);
            }
        }
        PatShape::ReturnNone => idx.ret_none.push(entry),
        PatShape::ReturnSome => idx.ret_some.push(entry),
        PatShape::Decl { .. } => idx.decl.push(entry),
        PatShape::Empty => idx.empty.push(entry),
        PatShape::Never => {}
    }
}

/// The expression tag a root op demands of its candidate.
fn root_tag(op: &Op) -> usize {
    match op {
        Op::IntLit(..) => 0,
        Op::FloatLit(..) => 1,
        Op::CharLit(..) => 2,
        Op::StrLit(..) => 3,
        Op::Ident(..) => 4,
        Op::CallHead { .. } => 5,
        Op::Binary(..) => 6,
        Op::Unary(..) => 7,
        Op::Postfix { .. } => 8,
        Op::Assign { .. } => 9,
        Op::Ternary => 10,
        Op::Index => 11,
        Op::Member { .. } => 12,
        Op::Cast(..) => 13,
        Op::SizeofType(..) => 14,
        Op::Comma => 15,
        Op::Bind { .. } => 16,
    }
}

/// Walks the pattern bytecode along the head path (the same descent as
/// [`head_ident`] on candidates) and returns the pinned head symbol, or
/// `None` if a wildcard or literal sits on the path.
fn pattern_head(pat: &CompiledPattern) -> Option<Sym> {
    // The head path child is always the *first* child emitted, and ops are
    // emitted pre-order, so the head path is simply a prefix of the op
    // stream: keep following ops while they are interior head-path nodes.
    let mut i = 0;
    loop {
        match pat.ops.get(i)? {
            Op::Ident(s) => return Some(*s),
            Op::CallHead { .. }
            | Op::Assign { .. }
            | Op::Member { .. }
            | Op::Index
            | Op::Unary(..)
            | Op::Postfix { .. }
            | Op::Cast(..)
            | Op::Binary(..)
            | Op::Comma
            | Op::Ternary => i += 1,
            _ => return None,
        }
    }
}

/// Runs load-time validation over a program, returning warnings in source
/// order: unreachable states first, then per-rule problems.
fn validate(prog: &MetalProgram, cp: &CompiledProgram) -> Vec<CompileDiag> {
    let mut diags = Vec::new();

    // Unreachable states: BFS over goto edges from the start state. The
    // `all` state's rules apply everywhere, so its gotos are live from any
    // reachable state, and the `all` state itself is never flagged.
    let mut reachable = vec![false; prog.states.len()];
    let mut work = vec![0usize];
    reachable[0] = true;
    while let Some(si) = work.pop() {
        let mut rule_sets: Vec<&[Rule]> = vec![&prog.states[si].rules];
        if let Some(all) = prog.all_state {
            if all.0 != si {
                rule_sets.push(&prog.states[all.0].rules);
            }
        }
        for rules in rule_sets {
            for rule in rules {
                if let RuleTarget::Goto(t) = rule.target {
                    if !reachable[t.0] {
                        reachable[t.0] = true;
                        work.push(t.0);
                    }
                }
            }
        }
    }
    for (si, st) in prog.states.iter().enumerate() {
        if !reachable[si] && prog.all_state != Some(StateId(si)) {
            diags.push(CompileDiag {
                kind: CompileDiagKind::UnreachableState,
                message: format!(
                    "state `{}` is unreachable: no rule reachable from the start state transitions into it",
                    st.name
                ),
                span: st.span,
            });
        }
    }

    // Per-state pattern shadowing and per-rule action checks.
    let mut pid = 0usize;
    for st in &prog.states {
        let mut earlier: Vec<&Pattern> = Vec::new();
        for rule in &st.rules {
            for (ai, pat) in rule.patterns.iter().enumerate() {
                if matches!(cp.patterns[pid].shape, PatShape::Never) {
                    diags.push(CompileDiag {
                        kind: CompileDiagKind::UnmatchablePattern,
                        message: format!(
                            "pattern alternative {} in state `{}` can never match a candidate",
                            ai + 1,
                            st.name
                        ),
                        span: rule.span,
                    });
                } else if earlier.iter().any(|q| pattern_covers(q, pat)) {
                    diags.push(CompileDiag {
                        kind: CompileDiagKind::ShadowedRule,
                        message: format!(
                            "pattern alternative {} in state `{}` duplicates an earlier pattern of the same state; the earlier rule always wins",
                            ai + 1,
                            st.name
                        ),
                        span: rule.span,
                    });
                }
                earlier.push(pat);
                pid += 1;
            }
            // Unbound interpolation: every `%wildcard` used in an action
            // message must be bound by every alternative of the rule —
            // otherwise the reference survives uninterpolated when that
            // alternative fires.
            for action in &rule.actions {
                let msg = match action {
                    Action::Err(m) | Action::Warn(m) => m,
                };
                for name in prog.wildcards.keys() {
                    if !msg.contains(&format!("%{name}")) {
                        continue;
                    }
                    let first_pid = pid - rule.patterns.len();
                    for (ai, _) in rule.patterns.iter().enumerate() {
                        let cpat = &cp.patterns[first_pid + ai];
                        if matches!(cpat.shape, PatShape::Never) {
                            continue;
                        }
                        if !cpat.slots.iter().any(|(n, _)| n == name) {
                            diags.push(CompileDiag {
                                kind: CompileDiagKind::UnboundInterpolation,
                                message: format!(
                                    "action message references `%{}` but pattern alternative {} in state `{}` does not bind it",
                                    name,
                                    ai + 1,
                                    st.name
                                ),
                                span: rule.span,
                            });
                        }
                    }
                }
            }
        }
    }

    diags
}

/// Whether pattern `q` structurally covers pattern `p`, i.e. every
/// candidate `p` could match is matched by `q` first. Wildcards must agree
/// by name (the comparison is structural, not semantic).
fn pattern_covers(q: &Pattern, p: &Pattern) -> bool {
    match (inner_expr(q), inner_expr(p)) {
        (Some(qe), Some(pe)) => exprs_equal(qe, pe),
        (None, None) => match (&q.kind, &p.kind) {
            (PatternKind::Stmt(qs), PatternKind::Stmt(ps)) => stmts_equal(qs, ps),
            _ => false,
        },
        _ => false,
    }
}

/// The expression of an `{e}` or `{e;}` pattern.
fn inner_expr(p: &Pattern) -> Option<&Expr> {
    match &p.kind {
        PatternKind::Expr(e) => Some(e),
        PatternKind::Stmt(s) => match &s.kind {
            StmtKind::Expr(e) => Some(e),
            _ => None,
        },
    }
}

/// Structural statement equality with [`exprs_equal`] leaf comparison.
fn stmts_equal(a: &Stmt, b: &Stmt) -> bool {
    match (&a.kind, &b.kind) {
        (StmtKind::Expr(x), StmtKind::Expr(y)) => exprs_equal(x, y),
        (StmtKind::Empty, StmtKind::Empty) | (StmtKind::Return(None), StmtKind::Return(None)) => {
            true
        }
        (StmtKind::Return(Some(x)), StmtKind::Return(Some(y))) => exprs_equal(x, y),
        (StmtKind::Decl(x), StmtKind::Decl(y)) => {
            x.ty == y.ty
                && x.name == y.name
                && match (&x.init, &y.init) {
                    (None, None) => true,
                    (Some(Initializer::Expr(xe)), Some(Initializer::Expr(ye))) => {
                        exprs_equal(xe, ye)
                    }
                    _ => false,
                }
        }
        _ => false,
    }
}

/// Executes pattern bytecode against a candidate expression.
///
/// `stack` and `slots` are caller-provided scratch (reused across attempts
/// within one traversal step); `slots` must hold at least
/// `CompiledProgram::max_slots` entries and is reset here.
fn exec<'a>(
    ops: &[Op],
    root: &'a Expr,
    interner: &Interner,
    stack: &mut Vec<&'a Expr>,
    slots: &mut [Option<&'a Expr>],
) -> bool {
    stack.clear();
    slots.fill(None);
    stack.push(root);
    for op in ops {
        // Emission guarantees one candidate node per op.
        let node = match stack.pop() {
            Some(n) => n,
            None => return false,
        };
        match op {
            Op::Bind { slot, class } => {
                if !class.admits(node) {
                    return false;
                }
                match slots[*slot as usize] {
                    Some(prev) => {
                        if !exprs_equal(prev, node) {
                            return false;
                        }
                    }
                    None => slots[*slot as usize] = Some(node),
                }
            }
            Op::Ident(sym) => match &node.kind {
                ExprKind::Ident(n) if interner.name(*sym) == n => {}
                _ => return false,
            },
            Op::IntLit(v) => match &node.kind {
                ExprKind::IntLit(y, _) if v == y => {}
                _ => return false,
            },
            Op::FloatLit(v) => match &node.kind {
                ExprKind::FloatLit(y, _) if v == y => {}
                _ => return false,
            },
            Op::CharLit(v) => match &node.kind {
                ExprKind::CharLit(y) if v == y => {}
                _ => return false,
            },
            Op::StrLit(v) => match &node.kind {
                ExprKind::StrLit(y) if v == y => {}
                _ => return false,
            },
            Op::CallHead { arity } => match &node.kind {
                ExprKind::Call { callee, args } if args.len() == *arity as usize => {
                    for a in args.iter().rev() {
                        stack.push(a);
                    }
                    stack.push(callee);
                }
                _ => return false,
            },
            Op::Binary(o) => match &node.kind {
                ExprKind::Binary { op, lhs, rhs } if op == o => {
                    stack.push(rhs);
                    stack.push(lhs);
                }
                _ => return false,
            },
            Op::Unary(o) => match &node.kind {
                ExprKind::Unary { op, operand } if op == o => stack.push(operand),
                _ => return false,
            },
            Op::Postfix { inc } => match &node.kind {
                ExprKind::Postfix { operand, inc: i } if i == inc => stack.push(operand),
                _ => return false,
            },
            Op::Assign { op: o } => match &node.kind {
                ExprKind::Assign { op, lhs, rhs } if op == o => {
                    stack.push(rhs);
                    stack.push(lhs);
                }
                _ => return false,
            },
            Op::Ternary => match &node.kind {
                ExprKind::Ternary { cond, then, els } => {
                    stack.push(els);
                    stack.push(then);
                    stack.push(cond);
                }
                _ => return false,
            },
            Op::Index => match &node.kind {
                ExprKind::Index { base, index } => {
                    stack.push(index);
                    stack.push(base);
                }
                _ => return false,
            },
            Op::Member { field, arrow } => match &node.kind {
                ExprKind::Member {
                    base,
                    field: f,
                    arrow: a,
                } if a == arrow && interner.name(*field) == f => stack.push(base),
                _ => return false,
            },
            Op::Cast(ty) => match &node.kind {
                ExprKind::Cast { ty: t, expr } if t == ty => stack.push(expr),
                _ => return false,
            },
            Op::SizeofType(ty) => match &node.kind {
                ExprKind::SizeofType(t) if t == ty => {}
                _ => return false,
            },
            Op::Comma => match &node.kind {
                ExprKind::Comma(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                _ => return false,
            },
        }
    }
    true
}

/// A compiled program bound to a report sink and to the [`CandidatePlan`]
/// of the CFG it runs over: the engine the driver runs.
///
/// It gives the same reports, application counts and candidate counts as
/// the reference interpreter ([`crate::MetalMachine`]): the plan holds, per
/// event node and state, the first match the interpreter's rule-order
/// search would find, so a step only replays it.
#[derive(Debug)]
pub struct CompiledMachine<'p> {
    prog: &'p CompiledProgram,
    /// Precomputed per-function match results (see [`CandidatePlan`]).
    plan: &'p CandidatePlan<'p>,
    /// Reports produced so far (deduplicated by message and location).
    pub reports: Vec<MetalReport>,
    seen: HashSet<(String, Span)>,
    /// Number of rule firings (pattern matches), including ones with no
    /// action.
    pub applications: usize,
    /// Number of candidate nodes visited (comparable with
    /// [`crate::MetalMachine::candidates`]). The match work is spent once,
    /// when the plan is built: see [`CandidatePlan::attempts`].
    pub candidates: u64,
}

impl<'p> CompiledMachine<'p> {
    /// Creates a machine that replays `plan`, which must have been built
    /// from `prog` over the CFG about to be traversed.
    pub fn with_plan(prog: &'p CompiledProgram, plan: &'p CandidatePlan<'p>) -> Self {
        CompiledMachine {
            prog,
            plan,
            reports: Vec::new(),
            seen: HashSet::new(),
            applications: 0,
            candidates: 0,
        }
    }

    /// The program's start state, to pass to [`mc_cfg::run_machine`].
    pub fn start_state(&self) -> StateId {
        self.prog.start_state()
    }

    fn fire(
        &mut self,
        rule: u32,
        state: StateId,
        bindings: &Bindings,
        span: Span,
        witness: &Witness<'_>,
    ) {
        let prog = self.prog;
        self.applications += 1;
        for action in &prog.rules[rule as usize].actions {
            let (msg, is_error) = match action {
                Action::Err(m) => (m, true),
                Action::Warn(m) => (m, false),
            };
            let message = interpolate(msg, bindings);
            if self.seen.insert((message.clone(), span)) {
                self.reports.push(MetalReport {
                    sm_name: prog.name.clone(),
                    message,
                    span,
                    is_error,
                    state: prog.state_names[state.0].clone(),
                    steps: witness.steps(),
                });
            }
        }
    }

    /// Replays a precomputed [`PlanEntry`]: only candidates with at least
    /// one structural match anywhere are visited, and each costs a single
    /// per-state table load instead of a dispatch-and-execute round.
    fn scan_planned(
        &mut self,
        state: StateId,
        entry: &PlanEntry<'_>,
        witness: &Witness<'_>,
        out: &mut Vec<StateId>,
    ) {
        self.candidates += entry.n_cands;
        let mut cur = state;
        for hit in &entry.hits {
            if let Some(m) = &hit.per_state[cur.0] {
                let bindings = if m.pat == NO_PAT {
                    Bindings::new()
                } else {
                    materialize(&self.prog.patterns[m.pat as usize], &m.slots)
                };
                self.fire(m.rule, cur, &bindings, hit.span, witness);
                match self.prog.rules[m.rule as usize].target {
                    RuleTarget::Stay => {}
                    RuleTarget::Goto(s) => cur = s,
                    RuleTarget::Stop => return,
                }
            }
        }
        out.push(cur);
    }
}

/// Builds the interpreter-compatible [`Bindings`] map from filled slots.
fn materialize(pat: &CompiledPattern, slots: &[Option<&Expr>]) -> Bindings {
    let mut b = Bindings::new();
    for (i, (name, _)) in pat.slots.iter().enumerate() {
        if let Some(e) = slots[i] {
            b.insert(name.clone(), e.clone());
        }
    }
    b
}

/// Sentinel pattern id for matches that bind nothing (`return;`, bare
/// declarations, `break`/`continue`/`;` statement patterns).
const NO_PAT: u32 = u32::MAX;

/// Multiplicative hasher for the plan maps, whose only key type is an AST
/// node address. One multiply and a shift instead of SipHash: the keys are
/// already well-distributed pointers and need no DoS resistance.
#[derive(Default)]
struct NodeKeyHasher(u64);

impl std::hash::Hasher for NodeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_usize(&mut self, n: usize) {
        let h = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type NodeMap<V> = HashMap<usize, V, std::hash::BuildHasherDefault<NodeKeyHasher>>;

/// Address of a statement node, used strictly as a lookup key (never
/// dereferenced); the plan's lifetime ties it to the CFG that owns the node.
fn node_key_stmt(s: &Stmt) -> usize {
    s as *const Stmt as usize
}

/// Address of an expression node; see [`node_key_stmt`].
fn node_key_expr(e: &Expr) -> usize {
    e as *const Expr as usize
}

/// One precomputed match: exactly what the dispatch index would return for
/// this candidate in this state, with the binding slots already resolved.
#[derive(Debug)]
struct PlanMatch<'c> {
    rule: u32,
    pat: u32,
    slots: Box<[Option<&'c Expr>]>,
}

/// A candidate that structurally matches some pattern in at least one
/// state. Candidates matching nowhere are dropped from the plan entirely —
/// for FLASH-style checkers that is the overwhelming majority.
#[derive(Debug)]
struct PlanHit<'c> {
    span: Span,
    /// Indexed by state id: the match the dispatch would find, if any.
    per_state: Box<[Option<PlanMatch<'c>>]>,
}

/// The precomputed scan of one event: total candidate count (kept so the
/// [`CompiledMachine::candidates`] counter stays engine-comparable) plus
/// the matching candidates in scan order.
#[derive(Debug)]
struct PlanEntry<'c> {
    n_cands: u64,
    hits: Vec<PlanHit<'c>>,
}

/// Precomputed match results of one [`CompiledProgram`] over one
/// function's CFG.
///
/// Pattern matching is structural — independent of the machine's current
/// state — so the full dispatch-and-execute round for every candidate of
/// every event node can run once per function instead of once per worklist
/// item. A traversal revisits each block once per distinct
/// `(state, facts)` pair that reaches it, so the plan amortizes matching
/// across all of those visits; [`CompiledMachine::with_plan`] then reduces
/// a step to a hash probe plus a per-state table load. Reports, candidate
/// counts, and application counts are identical to the interpreter's.
#[derive(Debug)]
pub struct CandidatePlan<'c> {
    /// Event-node key → slot in `entries`. Shared by every plan built in
    /// the same [`CandidatePlan::build_many`] call: the key set depends
    /// only on the CFG, so the map is built (and its inserts paid) once.
    index: std::sync::Arc<NodeMap<u32>>,
    entries: Vec<PlanEntry<'c>>,
    /// Per-state result of the synthetic `return;` candidate (the only
    /// candidate the interpreter synthesizes rather than borrows).
    ret_none: Box<[Option<u32>]>,
    /// Pattern executions spent building the plan — the compiled engine's
    /// total match work for the whole function, comparable with the
    /// per-event attempt counters.
    pub attempts: u64,
}

impl<'c> CandidatePlan<'c> {
    #[inline]
    fn entry(&self, key: usize) -> Option<&PlanEntry<'c>> {
        self.index.get(&key).map(|&i| &self.entries[i as usize])
    }
}

impl<'c> CandidatePlan<'c> {
    /// Matches every candidate of every event node of `cfg` against
    /// `prog`'s dispatch index, once per state.
    pub fn build(prog: &CompiledProgram, cfg: &'c mc_cfg::Cfg) -> CandidatePlan<'c> {
        CandidatePlan::build_many(&[prog], cfg)
            .pop()
            .expect("one plan per program")
    }

    /// Builds one plan per program over a single candidate-extraction walk
    /// of `cfg` — the driver runs several checkers over each function, and
    /// the extraction (the only per-node cost the prefilter cannot skip) is
    /// identical for all of them.
    pub fn build_many(progs: &[&CompiledProgram], cfg: &'c mc_cfg::Cfg) -> Vec<CandidatePlan<'c>> {
        let union = UnionPrefilter::build(progs);
        // One entry per statement plus at most one per terminator: sizing
        // the map up front keeps the build out of doubling rehashes.
        let keys: usize = cfg.blocks.iter().map(|b| b.nodes.len() + 1).sum();
        let mut index: NodeMap<u32> = NodeMap::with_capacity_and_hasher(keys, Default::default());
        let mut builders: Vec<PlanBuilder<'_, 'c>> =
            progs.iter().map(|p| PlanBuilder::new(p, keys)).collect();
        let mut cands: Vec<Candidate<'c>> = Vec::new();
        // The sieved walks below enumerate exactly what the interpreter
        // would, but one union probe retires a candidate for every program
        // at once and only survivors are materialized; the count of what
        // was dropped still reaches each entry so visit statistics stay
        // identical to the interpreter's.
        for block in &cfg.blocks {
            for node in &block.nodes {
                cands.clear();
                let n_cands = sieved_stmt(&node.stmt, &union, &mut cands);
                index.insert(node_key_stmt(&node.stmt), index.len() as u32);
                for b in &mut builders {
                    b.add_entry(&cands, n_cands);
                }
            }
            match &block.term {
                mc_cfg::Terminator::Jump(_) => {}
                mc_cfg::Terminator::Branch { cond, .. } => {
                    cands.clear();
                    let n_cands = sieved_postorder(cond, &union, &mut cands);
                    index.insert(node_key_expr(cond), index.len() as u32);
                    for b in &mut builders {
                        b.add_entry(&cands, n_cands);
                    }
                }
                mc_cfg::Terminator::Switch { targets, .. } => {
                    for value in targets.iter().filter_map(|(v, _)| v.as_ref()) {
                        cands.clear();
                        let n_cands = sieved_postorder(value, &union, &mut cands);
                        index.insert(node_key_expr(value), index.len() as u32);
                        for b in &mut builders {
                            b.add_entry(&cands, n_cands);
                        }
                    }
                }
                mc_cfg::Terminator::Return { value, span } => {
                    let Some(v) = value else { continue };
                    cands.clear();
                    let n_cands = sieved_postorder(v, &union, &mut cands);
                    index.insert(node_key_expr(v), index.len() as u32);
                    for b in &mut builders {
                        b.add_return_entry(&cands, n_cands, v, *span);
                    }
                }
            }
        }
        let index = std::sync::Arc::new(index);
        builders
            .into_iter()
            .map(|b| b.finish(std::sync::Arc::clone(&index)))
            .collect()
    }
}

/// Fused form of the interpreter's `stmt_candidates` + the union
/// prefilter: counts every candidate the scan would enumerate, but
/// materializes only those some program could match. Statement candidates
/// always survive (the prefilter covers expressions only).
fn sieved_stmt<'a>(s: &'a Stmt, union: &UnionPrefilter, out: &mut Vec<Candidate<'a>>) -> u64 {
    match &s.kind {
        StmtKind::Expr(e) => sieved_postorder(e, union, out),
        StmtKind::Decl(d) => {
            let mut n = 0;
            if let Some(Initializer::Expr(e)) = &d.init {
                n = sieved_postorder(e, union, out);
            }
            out.push(Candidate::Stmt(s));
            n + 1
        }
        _ => {
            out.push(Candidate::Stmt(s));
            1
        }
    }
}

/// Fused form of `postorder` + the union prefilter; see [`sieved_stmt`].
/// Children are walked in the same evaluation order, so the survivors keep
/// their scan order.
fn sieved_postorder<'a>(e: &'a Expr, union: &UnionPrefilter, out: &mut Vec<Candidate<'a>>) -> u64 {
    let mut n = 0;
    match &e.kind {
        ExprKind::Call { callee, args } => {
            n += sieved_postorder(callee, union, out);
            for a in args {
                n += sieved_postorder(a, union, out);
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            n += sieved_postorder(lhs, union, out);
            n += sieved_postorder(rhs, union, out);
        }
        ExprKind::Assign { lhs, rhs, .. } => {
            // RHS evaluates first in C semantics that matter here.
            n += sieved_postorder(rhs, union, out);
            n += sieved_postorder(lhs, union, out);
        }
        ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => {
            n += sieved_postorder(operand, union, out);
        }
        ExprKind::Ternary { cond, then, els } => {
            n += sieved_postorder(cond, union, out);
            n += sieved_postorder(then, union, out);
            n += sieved_postorder(els, union, out);
        }
        ExprKind::Index { base, index } => {
            n += sieved_postorder(base, union, out);
            n += sieved_postorder(index, union, out);
        }
        ExprKind::Member { base, .. } => n += sieved_postorder(base, union, out),
        ExprKind::Cast { expr, .. } => n += sieved_postorder(expr, union, out),
        ExprKind::Comma(a, b) => {
            n += sieved_postorder(a, union, out);
            n += sieved_postorder(b, union, out);
        }
        _ => {}
    }
    if union.admits(e) {
        out.push(Candidate::Expr(e));
    }
    n + 1
}

/// Per-program state of [`CandidatePlan::build_many`].
struct PlanBuilder<'p, 'c> {
    prog: &'p CompiledProgram,
    stack: Vec<&'c Expr>,
    slots: Vec<Option<&'c Expr>>,
    entries: Vec<PlanEntry<'c>>,
    attempts: u64,
}

impl<'p, 'c> PlanBuilder<'p, 'c> {
    fn new(prog: &'p CompiledProgram, keys: usize) -> Self {
        PlanBuilder {
            prog,
            stack: Vec::new(),
            slots: vec![None; prog.max_slots],
            entries: Vec::with_capacity(keys),
            attempts: 0,
        }
    }

    fn add_entry(&mut self, cands: &[Candidate<'c>], n_cands: u64) {
        let entry = self.build_entry(cands, n_cands);
        self.entries.push(entry);
    }

    /// Entry for a `return v;` terminator: the value's subexpression
    /// candidates plus the synthetic return-statement candidate the
    /// interpreter appends after them. Its patterns (the `ret_some`
    /// bucket) execute against `v` itself, so the resolved slots borrow
    /// from the CFG like every other hit.
    fn add_return_entry(&mut self, cands: &[Candidate<'c>], n_cands: u64, v: &'c Expr, span: Span) {
        let prog = self.prog;
        let n_states = prog.state_names.len();
        let mut entry = self.build_entry(cands, n_cands);
        entry.n_cands += 1;
        let mut per_state: Vec<Option<PlanMatch<'c>>> = Vec::with_capacity(n_states);
        let mut any = false;
        for si in 0..n_states {
            let mut found = None;
            for en in &prog.states[si].ret_some {
                self.attempts += 1;
                let pat = &prog.patterns[en.pat as usize];
                if exec(
                    &pat.ops,
                    v,
                    &prog.interner,
                    &mut self.stack,
                    &mut self.slots,
                ) {
                    found = Some(plan_match(prog, en.rule, en.pat, &self.slots));
                    break;
                }
            }
            any |= found.is_some();
            per_state.push(found);
        }
        if any {
            entry.hits.push(PlanHit {
                span,
                per_state: per_state.into_boxed_slice(),
            });
        }
        self.entries.push(entry);
    }

    /// Matches every candidate of one event against every state's index.
    fn build_entry(&mut self, cands: &[Candidate<'c>], n_cands: u64) -> PlanEntry<'c> {
        let prog = self.prog;
        let (stack, slots, attempts) = (&mut self.stack, &mut self.slots, &mut self.attempts);
        let n_states = prog.state_names.len();
        let mut hits = Vec::new();
        for cand in cands {
            // O(1) rejection of expression candidates no state could match —
            // for FLASH-style checkers that is the overwhelming majority, so
            // plan building costs little more than the extraction walk.
            if let Candidate::Expr(e) = cand {
                if !prog.pre.admits(&prog.interner, e) {
                    continue;
                }
            }
            let mut per_state: Vec<Option<PlanMatch<'c>>> = Vec::with_capacity(n_states);
            let mut any = false;
            for si in 0..n_states {
                let found = match cand {
                    Candidate::Expr(e) => prog.find_expr(StateId(si), e, stack, slots, attempts),
                    Candidate::Stmt(s) => prog.find_stmt(StateId(si), s, stack, slots, attempts),
                    // The sieved walks never synthesize owned candidates.
                    Candidate::Owned(_) => None,
                };
                let m = found.map(|(rule, pat)| plan_match(prog, rule, pat, slots));
                any |= m.is_some();
                per_state.push(m);
            }
            if any {
                hits.push(PlanHit {
                    span: cand.span(),
                    per_state: per_state.into_boxed_slice(),
                });
            }
        }
        PlanEntry { n_cands, hits }
    }

    fn finish(self, index: std::sync::Arc<NodeMap<u32>>) -> CandidatePlan<'c> {
        let prog = self.prog;
        let ret_none: Vec<Option<u32>> = (0..prog.state_names.len())
            .map(|si| prog.states[si].ret_none.first().map(|en| en.rule))
            .collect();
        CandidatePlan {
            index,
            entries: self.entries,
            ret_none: ret_none.into_boxed_slice(),
            attempts: self.attempts,
        }
    }
}

/// Resolves one matched `(rule, pattern)` into a [`PlanMatch`], snapshotting
/// the filled slots.
fn plan_match<'c>(
    prog: &CompiledProgram,
    rule: u32,
    pat: u32,
    slots: &[Option<&'c Expr>],
) -> PlanMatch<'c> {
    let snapshot = if pat == NO_PAT {
        Vec::new()
    } else {
        slots[..prog.patterns[pat as usize].slots.len()].to_vec()
    };
    PlanMatch {
        rule,
        pat,
        slots: snapshot.into_boxed_slice(),
    }
}

impl PathMachine for CompiledMachine<'_> {
    type State = StateId;

    fn step(
        &mut self,
        state: &StateId,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
    ) -> Vec<StateId> {
        let mut out = Vec::new();
        self.step_into(state, event, witness, &mut out);
        out
    }

    fn step_into(
        &mut self,
        state: &StateId,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
        out: &mut Vec<StateId>,
    ) {
        // The per-function plan already holds this event's match results;
        // replaying them skips candidate extraction and pattern execution.
        let key = match event {
            PathEvent::Stmt(s) => node_key_stmt(s),
            PathEvent::Branch { cond, .. } => node_key_expr(cond),
            PathEvent::Case { value: Some(v), .. } | PathEvent::Return { value: Some(v), .. } => {
                node_key_expr(v)
            }
            PathEvent::Case { value: None, .. } => {
                // No candidates: the state rides through unchanged.
                out.push(*state);
                return;
            }
            PathEvent::Return { value: None, span } => {
                // One synthetic `return;` candidate, resolved per state at
                // plan-build time.
                self.candidates += 1;
                match self.plan.ret_none[state.0] {
                    Some(rule) => {
                        self.fire(rule, *state, &Bindings::new(), *span, witness);
                        match self.prog.rules[rule as usize].target {
                            RuleTarget::Stay => out.push(*state),
                            RuleTarget::Goto(s) => out.push(s),
                            RuleTarget::Stop => {}
                        }
                    }
                    None => out.push(*state),
                }
                return;
            }
            PathEvent::Call { summary, .. } => {
                out.extend(mc_cfg::apply_transfer(self.prog, summary, state));
                return;
            }
        };
        let entry = self
            .plan
            .entry(key)
            .expect("plan built from the traversed CFG");
        self.scan_planned(*state, entry, witness, out);
    }
}

/// The compiled engine's state names, identical to the interpreter's.
impl mc_cfg::TransferCodec for CompiledProgram {
    type State = StateId;

    fn machine_name(&self) -> &str {
        &self.name
    }

    fn start_states(&self) -> Vec<StateId> {
        (0..self.state_names.len()).map(StateId).collect()
    }

    fn state_name(&self, state: &StateId) -> std::borrow::Cow<'_, str> {
        std::borrow::Cow::Borrowed(&self.state_names[state.0])
    }

    fn parse_state(&self, name: &str) -> Option<StateId> {
        self.state_by_name(name)
    }
}

/// Computes the state transfer of one function for a compiled program —
/// the compiled-engine counterpart of [`crate::compute_transfers`], with
/// identical output. `plan` is `prog`'s candidate plan for `cfg`
/// ([`CandidatePlan::build_many`] builds those of several programs in one
/// walk); it serves every per-state traversal.
pub fn compute_transfers_compiled(
    prog: &CompiledProgram,
    plan: &CandidatePlan<'_>,
    cfg: &mc_cfg::Cfg,
    traversal: mc_cfg::Traversal,
    oracle: Option<&dyn mc_cfg::SummaryLookup>,
) -> BTreeMap<String, Vec<String>> {
    mc_cfg::transfer_table(prog, cfg, traversal, oracle, || {
        CompiledMachine::with_plan(prog, plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compute_transfers, MetalMachine};
    use mc_ast::{parse_stmt, parse_translation_unit};
    use mc_cfg::{run_machine, Cfg, Mode, Traversal};

    const WAIT_SM: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
            ;
        }
    "#;

    const MSGLEN_SM: &str = r#"
        sm msglen_check {
            decl { unsigned } keep, swap, wait, dec, null, type;
            pat zero_assign = { HANDLER_GLOBALS(header.nh.len) = LEN_NODATA } ;
            pat nonzero_assign =
                { HANDLER_GLOBALS(header.nh.len) = LEN_WORD }
              | { HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE } ;
            pat send_data =
                { PI_SEND(F_DATA, keep, swap, wait, dec, null) }
              | { IO_SEND(F_DATA, keep, swap, wait, dec, null) }
              | { NI_SEND(type, F_DATA, keep, wait, dec, null) } ;
            pat send_nodata =
                { PI_SEND(F_NODATA, keep, swap, wait, dec, null) }
              | { IO_SEND(F_NODATA, keep, swap, wait, dec, null) }
              | { NI_SEND(type, F_NODATA, keep, wait, dec, null) } ;
            all:
                zero_assign ==> zero_len
              | nonzero_assign ==> nonzero_len
            ;
            zero_len:
                send_data ==> { err("data send, zero len"); } ;
            nonzero_len:
                send_nodata ==> { err("nodata send, nonzero len"); } ;
        }
    "#;

    /// Runs a source through the interpreter and the planned compiled
    /// machine and asserts identical reports, application and candidate
    /// counts; returns the compiled-engine reports.
    fn both(sm_src: &str, c_src: &str) -> Vec<MetalReport> {
        let prog = MetalProgram::parse(sm_src).unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let tu = parse_translation_unit(c_src, "t.c").unwrap();
        let mut out = Vec::new();
        for f in tu.functions() {
            let cfg = Cfg::build(f);
            let mut interp = MetalMachine::new(&prog);
            let init = interp.start_state();
            run_machine(&cfg, &mut interp, init, Mode::StateSet);
            let plan = CandidatePlan::build(&cp, &cfg);
            let mut comp = CompiledMachine::with_plan(&cp, &plan);
            run_machine(&cfg, &mut comp, init, Mode::StateSet);
            assert_eq!(interp.reports, comp.reports, "engine reports diverge");
            assert_eq!(
                interp.applications, comp.applications,
                "application counts diverge"
            );
            assert_eq!(
                interp.candidates, comp.candidates,
                "candidate counts diverge"
            );
            out.extend(comp.reports);
        }
        out
    }

    #[test]
    fn wait_for_db_parity() {
        let cases = [
            "void h(void) { MISCBUS_READ_DB(a, b); }",
            "void h(void) { WAIT_FOR_DB_FULL(a); MISCBUS_READ_DB(a, b); }",
            "void h(void) { if (x) { WAIT_FOR_DB_FULL(a); } MISCBUS_READ_DB(a, b); }",
            "void h(void) { if (WAIT_FOR_DB_FULL(a)) { } MISCBUS_READ_DB(a, b); }",
            "void h(void) { x = MISCBUS_READ_DB(a, b) + 1; }",
            "void h(void) { MISCBUS_READ_DB(a, b); MISCBUS_READ_DB(c, d); }",
        ];
        for src in cases {
            both(WAIT_SM, src);
        }
        let r = both(WAIT_SM, "void h(void) { MISCBUS_READ_DB(a, b); }");
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].message, "Buffer not synchronized");
    }

    #[test]
    fn msglen_parity() {
        let cases = [
            r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                PI_SEND(F_DATA, 1, 1, 0, 1, 0);
            }"#,
            r#"void h(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
                NI_SEND(t, F_DATA, 1, 0, 1, 0);
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                NI_SEND(t, F_NODATA, 1, 0, 1, 0);
            }"#,
            r#"void h(void) {
                if (flag) {
                    HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                } else {
                    HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                }
                PI_SEND(F_DATA, 1, 1, 0, 1, 0);
            }"#,
            "void h(void) { PI_SEND(F_DATA, 1, 1, 0, 1, 0); }",
        ];
        for src in cases {
            both(MSGLEN_SM, src);
        }
    }

    #[test]
    fn interpolation_parity() {
        let r = both(
            r#"sm x {
                decl { scalar } addr;
                start: { use_buf(addr); } ==> { err("unsynchronized use of %addr"); } ;
            }"#,
            "void h(void) { use_buf(hdr.a); }",
        );
        assert_eq!(r[0].message, "unsynchronized use of hdr.a");
    }

    #[test]
    fn return_and_decl_patterns_parity() {
        both(
            r#"sm r {
                decl { scalar } v;
                start: { return v; } ==> { err("returned %v"); } ;
            }"#,
            "int h(void) { return x + 1; }",
        );
        both(
            r#"sm d {
                decl { scalar } v;
                start: { int len = v; } ==> { err("len decl"); } ;
            }"#,
            "void h(void) { int len = 4; f(len); }",
        );
    }

    #[test]
    fn transfers_parity() {
        let prog = MetalProgram::parse(MSGLEN_SM).unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let src = r#"void h(void) {
            HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
        }"#;
        let tu = parse_translation_unit(src, "t.c").unwrap();
        let cfg = Cfg::build(tu.function("h").unwrap());
        let t1 = compute_transfers(&prog, &cfg, Traversal::default(), None);
        let plan = CandidatePlan::build(&cp, &cfg);
        let t2 = compute_transfers_compiled(&cp, &plan, &cfg, Traversal::default(), None);
        assert_eq!(t1, t2);
        assert!(t1.contains_key("all"));
    }

    #[test]
    fn builtin_style_programs_have_no_diagnostics() {
        for src in [WAIT_SM, MSGLEN_SM] {
            let prog = MetalProgram::parse(src).unwrap();
            let cp = CompiledProgram::compile(&prog).unwrap();
            assert!(
                cp.diagnostics().is_empty(),
                "unexpected diags: {:?}",
                cp.diagnostics()
            );
        }
    }

    #[test]
    fn unreachable_state_diagnosed() {
        let prog = MetalProgram::parse(
            r#"sm u {
                decl { scalar } x;
                start: { f(x); } ==> stop ;
                orphan: { g(x); } ==> { err("never"); } ;
            }"#,
        )
        .unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let d: Vec<_> = cp
            .diagnostics()
            .iter()
            .filter(|d| d.kind == CompileDiagKind::UnreachableState)
            .collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("orphan"), "{}", d[0].message);
        assert!(d[0].span.line > 0);
    }

    #[test]
    fn goto_keeps_state_reachable() {
        let prog = MetalProgram::parse(
            r#"sm u {
                decl { scalar } x;
                start: { f(x); } ==> second ;
                second: { g(x); } ==> { err("e"); } ;
            }"#,
        )
        .unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        assert!(cp.diagnostics().is_empty());
    }

    #[test]
    fn shadowed_rule_diagnosed() {
        let prog = MetalProgram::parse(
            r#"sm s {
                decl { scalar } x;
                start:
                    { f(x); } ==> stop
                  | { f(x); } ==> { err("never fires"); }
                ;
            }"#,
        )
        .unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let d: Vec<_> = cp
            .diagnostics()
            .iter()
            .filter(|d| d.kind == CompileDiagKind::ShadowedRule)
            .collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].span.line > 0);
    }

    #[test]
    fn expr_and_stmt_expr_shadowing_detected() {
        // `{ f(x) }` (expr) then `{ f(x); }` (stmt-expr) — structurally
        // the same match set in practice.
        let prog = MetalProgram::parse(
            r#"sm s {
                decl { scalar } x;
                start:
                    { f(x) } ==> stop
                  | { f(x); } ==> { err("never"); }
                ;
            }"#,
        )
        .unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        assert!(cp
            .diagnostics()
            .iter()
            .any(|d| d.kind == CompileDiagKind::ShadowedRule));
    }

    #[test]
    fn unbound_interpolation_diagnosed() {
        let prog = MetalProgram::parse(
            r#"sm s {
                decl { scalar } x, y;
                start: { f(x); } ==> { err("saw %y"); } ;
            }"#,
        )
        .unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let d: Vec<_> = cp
            .diagnostics()
            .iter()
            .filter(|d| d.kind == CompileDiagKind::UnboundInterpolation)
            .collect();
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("%y"), "{}", d[0].message);
    }

    #[test]
    fn unmatchable_pattern_diagnosed() {
        // Control-flow statements never appear as candidates; build the
        // program by hand since such fragments may not parse as patterns.
        let stmt = parse_stmt("while (x) { f(); }").unwrap();
        let prog = MetalProgram {
            name: "m".to_string(),
            prologue: None,
            wildcards: BTreeMap::new(),
            states: vec![crate::lang::StateDef {
                name: "start".to_string(),
                rules: vec![Rule {
                    patterns: vec![Pattern::new(PatternKind::Stmt(stmt))],
                    target: RuleTarget::Stay,
                    actions: vec![Action::Err("e".to_string())],
                    span: Span::new(1, 1),
                }],
                span: Span::new(1, 1),
            }],
            all_state: None,
        };
        let cp = CompiledProgram::compile(&prog).unwrap();
        assert!(cp
            .diagnostics()
            .iter()
            .any(|d| d.kind == CompileDiagKind::UnmatchablePattern));
    }

    #[test]
    fn break_and_continue_patterns_diagnosed() {
        // A CFG turns `break` and `continue` into edges, never event nodes,
        // so these rules can never fire and must say so at load time.
        let prog = MetalProgram::parse(
            r#"
            sm loops {
                start:
                    { break; } ==> { err("saw break"); }
                  | { continue; } ==> { err("saw continue"); }
                ;
            }
        "#,
        )
        .unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let d: Vec<_> = cp
            .diagnostics()
            .iter()
            .filter(|d| d.kind == CompileDiagKind::UnmatchablePattern)
            .collect();
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d
            .iter()
            .all(|d| d.message.contains("pattern alternative 1 in state `start`")));
    }

    #[test]
    fn dispatch_skips_unrelated_candidates() {
        // A program keyed on two macros should attempt far fewer matches
        // than the interpreter on ident-heavy code that mentions neither.
        let prog = MetalProgram::parse(WAIT_SM).unwrap();
        let cp = CompiledProgram::compile(&prog).unwrap();
        let src = "void h(void) { a = b + c * d; e = f(g, h2) + i; MISCBUS_READ_DB(a, b); }";
        let tu = parse_translation_unit(src, "t.c").unwrap();
        let cfg = Cfg::build(tu.function("h").unwrap());
        let mut interp = MetalMachine::new(&prog);
        let init = interp.start_state();
        run_machine(&cfg, &mut interp, init, Mode::StateSet);
        let plan = CandidatePlan::build(&cp, &cfg);
        let mut comp = CompiledMachine::with_plan(&cp, &plan);
        run_machine(&cfg, &mut comp, init, Mode::StateSet);
        assert_eq!(interp.reports, comp.reports);
        assert_eq!(interp.candidates, comp.candidates);
        assert!(
            plan.attempts <= interp.attempts,
            "compiled dispatch attempted more matches ({}) than interp ({})",
            plan.attempts,
            interp.attempts
        );
    }
}
