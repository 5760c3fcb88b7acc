//! The handler interpreter: executes FLASH protocol C against the machine
//! model. A call to a FLASH name runs the effect [`mc_ast::flash`]'s table
//! gives it; any other call runs the program's definition of that name.

use crate::machine::{DirEntry, Machine, Message, SimEvent};
use mc_ast::flash::{self, DirField, Effect, Iface};
use mc_ast::{BinaryOp, Expr, ExprKind, Function, Initializer, Stmt, StmtKind, UnaryOp};
use std::collections::HashMap;

/// Statement budget per handler invocation (loops in handlers are short;
/// a blown budget indicates a runaway loop).
pub const MAX_STEPS_PER_HANDLER: u64 = 100_000;

/// Call-depth budget (recursion in handlers is rare and shallow).
pub const MAX_CALL_DEPTH: usize = 32;

/// An interpreter failure that aborts the current handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The handler faulted (budget exhausted, FATAL_ERROR, unsupported
    /// construct).
    Fault(String),
}

/// What the handler's execution left behind, beyond machine effects.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// A waited send was never waited for.
    pub missed_wait: bool,
    /// The directory copy was modified but never written back.
    pub stale_directory: bool,
}

/// Runs `func` as a message handler on `node` with incoming buffer `buf`.
///
/// # Errors
///
/// Returns [`InterpError::Fault`] if the handler faulted.
pub fn run_handler(
    machine: &mut Machine,
    node: usize,
    buf: i64,
    msg_src: usize,
    func: &Function,
) -> Result<Outcome, InterpError> {
    let mut ctx = Ctx {
        machine,
        node,
        current_buf: buf,
        handler: func.name.clone(),
        out_len: 0,
        out_dest: None,
        out_type: 0,
        msg_src: msg_src as i64,
        pending_wait: None,
        dir_modified: false,
        dir_copy: DirEntry::default(),
        dir_line: 0,
        steps: 0,
        depth: 0,
    };
    ctx.call_function(func, &[])?;
    Ok(Outcome {
        missed_wait: ctx.pending_wait.is_some(),
        stale_directory: ctx.dir_modified,
    })
}

/// Control flow out of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(i64),
}

struct Ctx<'m> {
    machine: &'m mut Machine,
    node: usize,
    /// The "current buffer pointer" of the handler (−1 when none).
    current_buf: i64,
    handler: String,
    out_len: i64,
    /// Destination override for the next network send
    /// (`HANDLER_GLOBALS(header.nh.dest) = n`).
    out_dest: Option<i64>,
    /// Message-type of the next network send
    /// (`HANDLER_GLOBALS(header.nh.type) = t`), resolved through the
    /// machine's opcode registry at the destination.
    out_type: i64,
    /// Source node of the message being handled
    /// (`HANDLER_GLOBALS(header.nh.src)`).
    msg_src: i64,
    /// The interface a waited send still owes a wait on.
    pending_wait: Option<Iface>,
    dir_modified: bool,
    dir_copy: DirEntry,
    dir_line: i64,
    steps: u64,
    depth: usize,
}

impl Ctx<'_> {
    fn fault<T>(&self, msg: impl Into<String>) -> Result<T, InterpError> {
        Err(InterpError::Fault(msg.into()))
    }

    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > MAX_STEPS_PER_HANDLER {
            return self.fault("handler exceeded its step budget (runaway loop)");
        }
        Ok(())
    }

    fn call_function(&mut self, func: &Function, args: &[i64]) -> Result<i64, InterpError> {
        self.depth += 1;
        if self.depth > MAX_CALL_DEPTH {
            self.depth -= 1;
            return self.fault("call depth exceeded");
        }
        let mut locals: HashMap<String, i64> = HashMap::new();
        for (p, v) in func.params.iter().zip(args) {
            locals.insert(p.name.clone(), *v);
        }
        let mut result = 0;
        for s in &func.body {
            match self.exec(s, &mut locals)? {
                Flow::Return(v) => {
                    result = v;
                    break;
                }
                Flow::Break | Flow::Continue => break,
                Flow::Normal => {}
            }
        }
        self.depth -= 1;
        Ok(result)
    }

    // ---- statements -----------------------------------------------------

    fn exec(&mut self, s: &Stmt, locals: &mut HashMap<String, i64>) -> Result<Flow, InterpError> {
        self.tick()?;
        match &s.kind {
            StmtKind::Expr(e) => {
                self.eval(e, locals)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl(d) => {
                let v = match &d.init {
                    Some(Initializer::Expr(e)) => self.eval(e, locals)?,
                    _ => 0,
                };
                locals.insert(d.name.clone(), v);
                Ok(Flow::Normal)
            }
            StmtKind::Empty => Ok(Flow::Normal),
            StmtKind::Block(body) => {
                for s in body {
                    match self.exec(s, locals)? {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if self.eval(cond, locals)? != 0 {
                    self.exec(then, locals)
                } else if let Some(e) = els {
                    self.exec(e, locals)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(cond, locals)? != 0 {
                    self.tick()?;
                    match self.exec(body, locals)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    self.tick()?;
                    match self.exec(body, locals)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Continue | Flow::Normal => {}
                    }
                    if self.eval(cond, locals)? == 0 {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.exec(i, locals)?;
                }
                loop {
                    if let Some(c) = cond {
                        if self.eval(c, locals)? == 0 {
                            break;
                        }
                    }
                    self.tick()?;
                    match self.exec(body, locals)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Continue | Flow::Normal => {}
                    }
                    if let Some(st) = step {
                        self.eval(st, locals)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Switch { scrutinee, cases } => {
                let v = self.eval(scrutinee, locals)?;
                // Find the first matching case (or default), then execute
                // with fallthrough.
                let mut start = None;
                for (i, case) in cases.iter().enumerate() {
                    match &case.value {
                        Some(cv) if self.eval(cv, locals)? == v => {
                            start = Some(i);
                            break;
                        }
                        _ => {}
                    }
                }
                if start.is_none() {
                    start = cases.iter().position(|c| c.value.is_none());
                }
                if let Some(start) = start {
                    'arms: for case in &cases[start..] {
                        for s in &case.body {
                            match self.exec(s, locals)? {
                                Flow::Break => break 'arms,
                                Flow::Return(v) => return Ok(Flow::Return(v)),
                                Flow::Continue => return Ok(Flow::Continue),
                                Flow::Normal => {}
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Return(None) => Ok(Flow::Return(0)),
            StmtKind::Return(Some(e)) => {
                let v = self.eval(e, locals)?;
                Ok(Flow::Return(v))
            }
            StmtKind::Label(_, inner) => self.exec(inner, locals),
            StmtKind::Goto(l) => self.fault(format!("goto `{l}` is not supported in simulation")),
        }
    }

    // ---- expressions -----------------------------------------------------

    fn eval(&mut self, e: &Expr, locals: &mut HashMap<String, i64>) -> Result<i64, InterpError> {
        match &e.kind {
            ExprKind::IntLit(v, _) => Ok(*v),
            ExprKind::FloatLit(..) => self.fault("floating point reached the protocol processor"),
            ExprKind::CharLit(c) => Ok(*c as i64),
            ExprKind::StrLit(_) => Ok(0),
            ExprKind::Ident(name) => Ok(self.read_var(name, locals)),
            ExprKind::Wildcard(_) => Ok(0),
            ExprKind::Call { .. } => self.eval_call(e, locals),
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit forms first.
                match op {
                    BinaryOp::LogAnd => {
                        let l = self.eval(lhs, locals)?;
                        if l == 0 {
                            return Ok(0);
                        }
                        return Ok((self.eval(rhs, locals)? != 0) as i64);
                    }
                    BinaryOp::LogOr => {
                        let l = self.eval(lhs, locals)?;
                        if l != 0 {
                            return Ok(1);
                        }
                        return Ok((self.eval(rhs, locals)? != 0) as i64);
                    }
                    _ => {}
                }
                let l = self.eval(lhs, locals)?;
                let r = self.eval(rhs, locals)?;
                Ok(apply_binop(*op, l, r))
            }
            ExprKind::Unary { op, operand } => {
                match op {
                    UnaryOp::PreInc | UnaryOp::PreDec => {
                        let cur = self.eval(operand, locals)?;
                        let v = if *op == UnaryOp::PreInc {
                            cur + 1
                        } else {
                            cur - 1
                        };
                        self.write_lvalue(operand, v, locals)?;
                        Ok(v)
                    }
                    UnaryOp::Neg => Ok(-self.eval(operand, locals)?),
                    UnaryOp::Not => Ok((self.eval(operand, locals)? == 0) as i64),
                    UnaryOp::BitNot => Ok(!self.eval(operand, locals)?),
                    // Addresses are not modelled; deref/addr-of are
                    // identity for the value flow the handlers need.
                    UnaryOp::Deref | UnaryOp::AddrOf => self.eval(operand, locals),
                }
            }
            ExprKind::Postfix { operand, inc } => {
                let cur = self.eval(operand, locals)?;
                let v = if *inc { cur + 1 } else { cur - 1 };
                self.write_lvalue(operand, v, locals)?;
                Ok(cur)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let r = self.eval(rhs, locals)?;
                let v = match op {
                    None => r,
                    Some(op) => {
                        let cur = self.eval(lhs, locals)?;
                        apply_binop(*op, cur, r)
                    }
                };
                self.write_lvalue(lhs, v, locals)?;
                Ok(v)
            }
            ExprKind::Ternary { cond, then, els } => {
                if self.eval(cond, locals)? != 0 {
                    self.eval(then, locals)
                } else {
                    self.eval(els, locals)
                }
            }
            ExprKind::Index { base, .. } => self.eval(base, locals),
            ExprKind::Member { base, .. } => self.eval(base, locals),
            ExprKind::Cast { expr, .. } => self.eval(expr, locals),
            ExprKind::SizeofType(ty) => Ok((ty.size_bits() / 8) as i64),
            ExprKind::Comma(a, b) => {
                self.eval(a, locals)?;
                self.eval(b, locals)
            }
        }
    }

    fn read_var(&self, name: &str, locals: &HashMap<String, i64>) -> i64 {
        if let Some(v) = locals.get(name) {
            return *v;
        }
        if let Some(v) = flash::constant(name) {
            return v;
        }
        if let Some(v) = self.machine.nodes[self.node].globals.get(name) {
            return *v;
        }
        self.machine.program.constant(name).unwrap_or(0)
    }

    fn write_lvalue(
        &mut self,
        lhs: &Expr,
        value: i64,
        locals: &mut HashMap<String, i64>,
    ) -> Result<(), InterpError> {
        match &lhs.kind {
            ExprKind::Ident(name) => {
                if let Some(slot) = locals.get_mut(name) {
                    *slot = value;
                } else {
                    self.machine.nodes[self.node]
                        .globals
                        .insert(name.clone(), value);
                }
                Ok(())
            }
            // `HANDLER_GLOBALS(header.nh.<field>) = X` sets an outgoing
            // header field (len, dest, or type).
            ExprKind::Call { callee, args } => {
                if callee.as_ident().and_then(flash::effect) == Some(Effect::Header) {
                    match args.first().and_then(header_field) {
                        Some("dest") => self.out_dest = Some(value),
                        Some("type") => self.out_type = value,
                        _ => self.out_len = value,
                    }
                    Ok(())
                } else {
                    self.fault("unsupported assignment target")
                }
            }
            // Array/member stores are accepted and folded into the base
            // variable (fields are not modelled separately).
            ExprKind::Index { base, .. } | ExprKind::Member { base, .. } => {
                self.write_lvalue(base, value, locals)
            }
            ExprKind::Unary {
                op: UnaryOp::Deref,
                operand,
            } => self.write_lvalue(operand, value, locals),
            _ => self.fault("unsupported assignment target"),
        }
    }

    // ---- intrinsics --------------------------------------------------------

    fn eval_call(
        &mut self,
        e: &Expr,
        locals: &mut HashMap<String, i64>,
    ) -> Result<i64, InterpError> {
        let (name, args) = match e.as_call() {
            Some((n, a)) => (n.to_string(), a.to_vec()),
            None => return self.fault("indirect calls are not supported"),
        };
        let node = self.node;
        match flash::effect(&name) {
            Some(Effect::Hook) => Ok(0),
            Some(Effect::Header) => Ok(match args.first().and_then(header_field) {
                Some("src") => self.msg_src,
                Some("dest") => self.out_dest.unwrap_or(0),
                Some("type") => self.out_type,
                Some("node") => self.node as i64,
                _ => self.out_len,
            }),
            Some(Effect::Fatal) => self.fault(format!("{name}: unimplemented handler invoked")),
            Some(Effect::Status) => Ok(1),
            Some(Effect::Const(v)) => Ok(v),
            Some(Effect::BufCurrent) => Ok(self.current_buf),
            Some(Effect::BufAlloc) => {
                let allocated = self.machine.nodes[node].buffers.alloc();
                match allocated {
                    Some(idx) => {
                        self.current_buf = idx as i64;
                        Ok(idx as i64)
                    }
                    None => Ok(-1),
                }
            }
            Some(Effect::BufFree) => {
                if self.current_buf < 0
                    || !self.machine.nodes[node]
                        .buffers
                        .decref(self.current_buf as usize)
                {
                    let handler = self.handler.clone();
                    self.machine.record(SimEvent::DoubleFree { node, handler });
                }
                Ok(0)
            }
            Some(Effect::BufRefcount) => {
                if self.current_buf >= 0 {
                    self.machine.nodes[node]
                        .buffers
                        .incref(self.current_buf as usize);
                }
                Ok(0)
            }
            Some(Effect::BufWrite) => {
                let b = self.arg(&args, 0, locals)?;
                let off = self.arg(&args, 1, locals)? as usize % 16;
                let v = self.arg(&args, 2, locals)?;
                if b >= 0 && (b as usize) < self.machine.nodes[node].buffers.payloads.len() {
                    self.machine.nodes[node].buffers.payloads[b as usize][off] = v;
                }
                Ok(0)
            }
            Some(Effect::DbWait) => {
                if self.current_buf >= 0 {
                    self.machine.nodes[node]
                        .buffers
                        .fill(self.current_buf as usize);
                }
                Ok(1)
            }
            Some(Effect::DbRead) => {
                let off = if args.len() > 1 {
                    self.arg(&args, 1, locals)? as usize % 16
                } else {
                    0
                };
                if self.current_buf < 0 {
                    return Ok(0);
                }
                let b = self.current_buf as usize;
                if !self.machine.nodes[node].buffers.is_filled(b) {
                    let handler = self.handler.clone();
                    self.machine
                        .record(SimEvent::UnsynchronizedRead { node, handler });
                    // The racing read observes garbage.
                    return Ok(0xDEAD);
                }
                Ok(self.machine.nodes[node].buffers.payloads[b][off])
            }
            Some(Effect::Send { iface, flag, wait }) => {
                self.do_send(iface, flag, wait, &args, locals)
            }
            Some(Effect::Wait(iface)) => {
                if self.pending_wait == Some(iface) {
                    self.pending_wait = None;
                }
                Ok(1)
            }
            Some(Effect::DirLoad) => {
                self.dir_line = self.read_var("gLine", locals);
                self.dir_copy = self.machine.nodes[node]
                    .directory
                    .get(&self.dir_line)
                    .copied()
                    .unwrap_or_default();
                self.dir_modified = false;
                Ok(0)
            }
            Some(Effect::DirRead(DirField::State)) => Ok(self.dir_copy.state),
            Some(Effect::DirRead(DirField::Ptr)) => Ok(self.dir_copy.ptr),
            Some(Effect::DirSet(field)) => {
                let v = self.arg(&args, 0, locals)?;
                match field {
                    DirField::State => self.dir_copy.state = v,
                    DirField::Ptr => self.dir_copy.ptr = v,
                }
                self.dir_modified = true;
                Ok(0)
            }
            Some(Effect::DirWriteback) => {
                let line = self.dir_line;
                let copy = self.dir_copy;
                self.machine.nodes[node].directory.insert(line, copy);
                self.dir_modified = false;
                Ok(0)
            }
            Some(Effect::DirAddr) => Ok(self.read_var("gLine", locals) * 8),
            // A user function (a deprecated macro runs one if defined).
            Some(Effect::Deprecated) | None => {
                if let Some(func) = self.machine.program.shared_function(&name) {
                    let mut vals = Vec::new();
                    for a in &args {
                        vals.push(self.eval(a, locals)?);
                    }
                    self.call_function(&func, &vals)
                } else {
                    Ok(0)
                }
            }
        }
    }

    fn arg(
        &mut self,
        args: &[Expr],
        i: usize,
        locals: &mut HashMap<String, i64>,
    ) -> Result<i64, InterpError> {
        match args.get(i) {
            Some(a) => self.eval(a, locals),
            None => Ok(0),
        }
    }

    fn do_send(
        &mut self,
        iface: Iface,
        flag: usize,
        wait: usize,
        args: &[Expr],
        locals: &mut HashMap<String, i64>,
    ) -> Result<i64, InterpError> {
        let node = self.node;
        let has_data = self.arg(args, flag, locals)? != 0;
        let wants_wait = self.arg(args, wait, locals)? != 0;
        // Consistency between the header length and the has-data flag —
        // the Figure 3 invariant, enforced by the hardware interface.
        let consistent = (has_data && self.out_len > 0) || (!has_data && self.out_len == 0);
        if !consistent {
            let handler = self.handler.clone();
            let (len, hd) = (self.out_len, has_data);
            self.machine.record(SimEvent::InconsistentLength {
                node,
                handler,
                len,
                has_data: hd,
            });
        }
        if wants_wait {
            self.pending_wait = Some(iface);
        }
        if iface == Iface::Ni {
            let msg_type = self.arg(args, 0, locals)?;
            let lane = if Some(msg_type) == flash::constant(flash::MSG_REQ) {
                2
            } else {
                3
            };
            let dst = match self.out_dest {
                Some(d) => (d.rem_euclid(self.machine.nodes.len() as i64)) as usize,
                None => self.machine.remote_of(node),
            };
            let opcode = self.machine.opcode_handler(self.out_type);
            let data = if self.current_buf >= 0 {
                self.machine.nodes[node].buffers.payloads[self.current_buf as usize].clone()
            } else {
                vec![0; 16]
            };
            let msg = Message {
                opcode,
                src: node,
                dst,
                lane,
                len: self.out_len,
                has_data,
                data,
            };
            self.machine.inject_message(msg);
        }
        Ok(0)
    }
}

/// Extracts the innermost field name of a `header.nh.<field>` chain.
fn header_field(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Member { field, .. } => Some(field.as_str()),
        _ => None,
    }
}

fn apply_binop(op: BinaryOp, l: i64, r: i64) -> i64 {
    match op {
        BinaryOp::Add => l.wrapping_add(r),
        BinaryOp::Sub => l.wrapping_sub(r),
        BinaryOp::Mul => l.wrapping_mul(r),
        BinaryOp::Div => {
            if r == 0 {
                0
            } else {
                l.wrapping_div(r)
            }
        }
        BinaryOp::Rem => {
            if r == 0 {
                0
            } else {
                l.wrapping_rem(r)
            }
        }
        BinaryOp::Shl => l.wrapping_shl((r & 63) as u32),
        BinaryOp::Shr => l.wrapping_shr((r & 63) as u32),
        BinaryOp::Lt => (l < r) as i64,
        BinaryOp::Gt => (l > r) as i64,
        BinaryOp::Le => (l <= r) as i64,
        BinaryOp::Ge => (l >= r) as i64,
        BinaryOp::Eq => (l == r) as i64,
        BinaryOp::Ne => (l != r) as i64,
        BinaryOp::BitAnd => l & r,
        BinaryOp::BitXor => l ^ r,
        BinaryOp::BitOr => l | r,
        BinaryOp::LogAnd => ((l != 0) && (r != 0)) as i64,
        BinaryOp::LogOr => ((l != 0) || (r != 0)) as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, Program, SimConfig};

    fn machine_with(src: &str) -> Machine {
        Machine::new(Program::parse(src).unwrap(), SimConfig::default())
    }

    #[test]
    fn clean_handler_frees_its_buffer() {
        let mut m = machine_with(
            r#"void NIClean(void) {
                HANDLER_DEFS();
                HANDLER_PROLOGUE();
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIClean");
        m.run();
        assert_eq!(m.nodes[0].buffers.in_use(), 0);
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::HandlerRan { .. })));
    }

    #[test]
    fn double_free_event() {
        let mut m = machine_with("void NIBad(void) { DB_FREE(); DB_FREE(); }");
        m.inject(0, "NIBad");
        m.run();
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::DoubleFree { .. })));
    }

    #[test]
    fn leak_event_and_eventual_exhaustion() {
        let mut m = Machine::new(
            Program::parse("void NILeak(void) { gCount = gCount + 1; }").unwrap(),
            SimConfig {
                buffers_per_node: 3,
                ..Default::default()
            },
        );
        for _ in 0..5 {
            m.inject(0, "NILeak");
        }
        m.run();
        let leaks = m
            .events()
            .iter()
            .filter(|e| matches!(e, SimEvent::BufferLeaked { .. }))
            .count();
        assert_eq!(leaks, 3);
        assert!(m.deadlocked());
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::BufferExhausted { time: 3, .. })));
    }

    #[test]
    fn unsynchronized_read_sees_garbage() {
        let mut m = machine_with(
            r#"void NIRace(void) {
                gGot = MISCBUS_READ_DB(addr, 0);
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIRace");
        m.run();
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::UnsynchronizedRead { .. })));
        assert_eq!(m.nodes[0].globals["gGot"], 0xDEAD);
    }

    #[test]
    fn synchronized_read_sees_payload() {
        let mut m = machine_with(
            r#"void NISync(void) {
                WAIT_FOR_DB_FULL(addr);
                gGot = MISCBUS_READ_DB(addr, 0);
                DB_FREE();
            }"#,
        );
        m.inject(0, "NISync"); // payload words are 7
        m.run();
        assert_eq!(m.nodes[0].globals["gGot"], 7);
    }

    /// Every node's globals (sorted), directory, buffers, lanes and wedge
    /// flag, then the event log.
    fn snapshot(m: &Machine) -> String {
        let mut out = String::new();
        for n in &m.nodes {
            let mut globals: Vec<_> = n.globals.iter().collect();
            globals.sort();
            out += &format!(
                "{globals:?} {:?} {:?} {:?} {}\n",
                n.directory, n.buffers, n.lanes, n.wedged
            );
        }
        out + &format!("{:?}", m.events())
    }

    #[test]
    fn entries_the_table_marks_pure_change_nothing() {
        // Each entry runs mid-handler, with globals, the directory entry
        // and the incoming buffer set beforehand, a modified directory
        // copy and a waited send in flight, and the buffer not yet filled.
        // Nothing after the probe waits, fills or writes back, so any
        // effect on a variable or on machine state shows in the end state.
        // Every pure entry must leave it exactly as without the call; this
        // is what lets the symbolic executor step over such a call without
        // forgetting any global. Every other entry must show, so the test
        // can see what it checks, except a deprecated one (it runs a
        // definition only if the program has one) and a wait on an
        // interface no send is pending on.
        let run = |probe: &str| {
            let src = format!(
                "void NIProbe(void) {{
                    gSeen = gMode + 1;
                    DIR_LOAD();
                    DIR_SET_STATE(2);
                    HANDLER_GLOBALS(header.nh.len) = LEN_WORD;
                    PI_SEND(F_DATA, 1, 0, W_WAIT, 1, 0);
                    {probe}
                    gAfter = gMode + MISCBUS_READ_DB(addr, 0) + DIR_STATE()
                        + DIR_PTR() + HANDLER_GLOBALS(header.nh.len);
                    DB_FREE();
                }}"
            );
            let mut m = machine_with(&src);
            m.set_global(0, "gLine", 3);
            m.set_global(0, "gMode", 7);
            m.nodes[0]
                .directory
                .insert(3, DirEntry { state: 1, ptr: 5 });
            m.inject(0, "NIProbe");
            m.run();
            snapshot(&m)
        };
        let base = run("");
        assert!(base.contains("\"gAfter\""), "the handler ran: {base}");
        let mut pure = 0;
        for (name, effect) in flash::TABLE {
            let call = match effect {
                Effect::Header => format!("{name}(header.nh.len);"),
                _ => format!("{name}();"),
            };
            if flash::is_pure(name) {
                assert_eq!(run(&call), base, "{call}");
                pure += 1;
            } else if !matches!(
                effect,
                Effect::Deprecated | Effect::Wait(Iface::Io | Iface::Ni)
            ) {
                assert_ne!(run(&call), base, "{call} shows no effect");
            }
        }
        assert!(pure >= 10, "only {pure} pure entries");
    }

    #[test]
    fn inconsistent_length_event() {
        let mut m = machine_with(
            r#"void NIWrongLen(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                NI_SEND(MSG_REPLY, F_DATA, 1, W_NOWAIT, 1, 0);
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIWrongLen");
        m.run();
        assert!(m.events().iter().any(|e| matches!(
            e,
            SimEvent::InconsistentLength {
                len: 0,
                has_data: true,
                ..
            }
        )));
    }

    #[test]
    fn consistent_send_is_silent_and_delivered() {
        let mut m = machine_with(
            r#"void NIGood(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_CACHELINE;
                NI_SEND(MSG_REPLY, F_DATA, 1, W_NOWAIT, 1, 0);
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIGood");
        m.run();
        assert!(!m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::InconsistentLength { .. })));
        // The reply was delivered to node 1 and sunk there.
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::HandlerRan { node: 1, .. })));
    }

    #[test]
    fn missed_wait_event() {
        let mut m = machine_with(
            r#"void PIHang(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                PI_SEND(F_NODATA, 1, 0, W_WAIT, 1, 0);
                DB_FREE();
            }"#,
        );
        m.inject(0, "PIHang");
        m.run();
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::MissedWait { .. })));
    }

    #[test]
    fn paired_wait_is_silent() {
        let mut m = machine_with(
            r#"void PIOk(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                PI_SEND(F_NODATA, 1, 0, W_WAIT, 1, 0);
                PI_WAIT();
                DB_FREE();
            }"#,
        );
        m.inject(0, "PIOk");
        m.run();
        assert!(!m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::MissedWait { .. })));
    }

    #[test]
    fn stale_directory_event_and_state() {
        let mut m = machine_with(
            r#"void NIStale(void) {
                DIR_LOAD();
                DIR_SET_STATE(DIR_DIRTY);
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIStale");
        m.run();
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::StaleDirectory { .. })));
        // The directory still holds the default state.
        assert!(!m.nodes[0].directory.contains_key(&0));
    }

    #[test]
    fn writeback_persists() {
        let mut m = machine_with(
            r#"void NICommit(void) {
                DIR_LOAD();
                DIR_SET_STATE(DIR_SHARED);
                DIR_WRITEBACK();
                DB_FREE();
            }"#,
        );
        m.inject(0, "NICommit");
        m.run();
        assert_eq!(m.nodes[0].directory[&0].state, 1);
    }

    #[test]
    fn manual_refcount_bump_requires_two_frees() {
        // The §11 incident, replayed dynamically: with the bump, a double
        // free is CORRECT; removing the second free leaks.
        let mut m = machine_with(
            r#"void NIIncident(void) {
                DB_REFCOUNT_INCR();
                DB_FREE();
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIIncident");
        m.run();
        assert!(!m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::DoubleFree { .. })));
        assert_eq!(m.nodes[0].buffers.in_use(), 0);

        let mut m2 = machine_with(
            r#"void NIFixed(void) {
                DB_REFCOUNT_INCR();
                DB_FREE();
            }"#,
        );
        m2.inject(0, "NIFixed");
        m2.run();
        assert!(m2
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::BufferLeaked { .. })));
    }

    #[test]
    fn runaway_loop_faults() {
        let mut m = machine_with("void NISpin(void) { while (1) { gX = gX + 1; } }");
        m.inject(0, "NISpin");
        m.run();
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::HandlerFault { .. })));
    }

    #[test]
    fn helper_calls_interpret() {
        let mut m = machine_with(
            r#"int triple(int x) { return x * 3; }
               void NICall(void) { gOut = triple(5); DB_FREE(); }"#,
        );
        m.inject(0, "NICall");
        m.run();
        assert_eq!(m.nodes[0].globals["gOut"], 15);
    }

    #[test]
    fn switch_and_loops_execute() {
        let mut m = machine_with(
            r#"void NIFlow(void) {
                int i;
                int acc = 0;
                for (i = 0; i < 4; i++) {
                    acc += i;
                }
                switch (acc) {
                case 6:
                    gResult = 60;
                    break;
                default:
                    gResult = -1;
                    break;
                }
                DB_FREE();
            }"#,
        );
        m.inject(0, "NIFlow");
        m.run();
        assert_eq!(m.nodes[0].globals["gResult"], 60);
    }

    #[test]
    fn spin_on_status_register_terminates() {
        // The send-wait false-positive shape must still run correctly.
        let mut m = machine_with(
            r#"void PISpinWait(void) {
                HANDLER_GLOBALS(header.nh.len) = LEN_NODATA;
                PI_SEND(F_NODATA, 1, 0, W_WAIT, 1, 0);
                while (!MAGIC_PI_STATUS()) {
                    gSpin = gSpin + 1;
                }
                DB_FREE();
            }"#,
        );
        m.inject(0, "PISpinWait");
        m.run();
        assert!(!m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::HandlerFault { .. })));
    }
}
