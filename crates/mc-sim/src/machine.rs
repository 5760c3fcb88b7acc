//! The machine model: nodes, data-buffer pools, lanes, directories, and
//! the event-driven simulation loop.

use crate::interp::{run_handler, InterpError};
use mc_ast::{parse_translation_unit, Function, ParseError, TranslationUnit};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A parsed protocol ready to simulate: an immutable, shared handle.
///
/// The function ASTs and constants sit behind reference counts, so
/// [`Clone`] is O(1) and every clone reads the same ASTs. The simulator
/// never copies a function body: a delivery or a call takes one more
/// reference to the parsed [`Function`] and runs it in place.
#[derive(Debug, Clone, Default)]
pub struct Program {
    functions: Arc<HashMap<String, Arc<Function>>>,
    /// Enum constants and const-initialized globals from the sources,
    /// visible to every handler.
    constants: Arc<HashMap<String, i64>>,
    /// Function names defined by more than one source. Lookups resolve
    /// to the last definition, which need not be the one a report is on.
    duplicates: Arc<HashSet<String>>,
}

impl Program {
    /// Parses one source string into a program.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first malformed source.
    pub fn parse(src: &str) -> Result<Program, ParseError> {
        Program::from_sources(&[(src.to_string(), "sim.c".to_string())])
    }

    /// Parses several `(source, name)` pairs into one program. Each parsed
    /// function moves into the program; none is copied.
    ///
    /// # Errors
    ///
    /// Returns the parse error of the first malformed source.
    pub fn from_sources(sources: &[(String, String)]) -> Result<Program, ParseError> {
        let mut functions = HashMap::new();
        let mut constants = HashMap::new();
        let mut duplicates = HashSet::new();
        for (src, name) in sources {
            let tu = parse_translation_unit(src, name)?;
            collect(tu, &mut functions, &mut constants, &mut duplicates);
        }
        Ok(Program {
            functions: Arc::new(functions),
            constants: Arc::new(constants),
            duplicates: Arc::new(duplicates),
        })
    }

    /// Looks up an enum or global constant declared in the sources.
    pub fn constant(&self, name: &str) -> Option<i64> {
        self.constants.get(name).copied()
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name).map(|f| &**f)
    }

    /// A shared reference to a function, for running it while the machine
    /// that owns this program is borrowed mutably.
    pub(crate) fn shared_function(&self, name: &str) -> Option<Arc<Function>> {
        self.functions.get(name).cloned()
    }

    /// Whether more than one source defines a function called `name`.
    pub(crate) fn is_duplicate(&self, name: &str) -> bool {
        self.duplicates.contains(name)
    }

    /// Number of functions available to the simulator.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the program has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

fn collect(
    tu: TranslationUnit,
    out: &mut HashMap<String, Arc<Function>>,
    constants: &mut HashMap<String, i64>,
    duplicates: &mut HashSet<String>,
) {
    use mc_ast::{ExprKind, ExternalDecl, Initializer, Item};
    for item in tu.items {
        match item {
            Item::Function(f) => {
                let name = f.name.clone();
                if out.insert(name.clone(), Arc::new(f)).is_some() {
                    duplicates.insert(name);
                }
            }
            Item::Decl(ExternalDecl::EnumDef { variants, .. }) => {
                // C enum semantics: implicit values continue from the last
                // explicit one.
                let mut next = 0i64;
                for (name, value) in variants {
                    let v = value.unwrap_or(next);
                    constants.insert(name, v);
                    next = v + 1;
                }
            }
            Item::Decl(ExternalDecl::Var(d)) => {
                if let Some(Initializer::Expr(e)) = &d.init {
                    if let ExprKind::IntLit(v, _) = e.kind {
                        constants.insert(d.name, v);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Configuration of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Data buffers per node (the real MAGIC had a small fixed pool; a
    /// slow leak therefore deadlocks only after long runs).
    pub buffers_per_node: usize,
    /// Capacity of each incoming lane queue.
    pub lane_capacity: usize,
    /// Stop after this many handler invocations.
    pub max_handler_runs: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 4,
            buffers_per_node: 16,
            lane_capacity: 64,
            max_handler_runs: 100_000,
        }
    }
}

/// A message in flight (or queued at its destination).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Name of the handler to run at the destination.
    pub opcode: String,
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Lane (0–3).
    pub lane: usize,
    /// The header length field, as set by `HANDLER_GLOBALS(header.nh.len)`.
    pub len: i64,
    /// The has-data send parameter (`F_DATA`).
    pub has_data: bool,
    /// Message body (cache line words).
    pub data: Vec<i64>,
}

/// The reference-counted data-buffer pool of one node.
#[derive(Debug, Clone)]
pub struct BufferPool {
    refcounts: Vec<u32>,
    filled: Vec<bool>,
    /// Words of each buffer.
    pub payloads: Vec<Vec<i64>>,
    free_list: Vec<usize>,
}

impl BufferPool {
    /// Creates a pool of `n` buffers.
    pub fn new(n: usize) -> BufferPool {
        BufferPool {
            refcounts: vec![0; n],
            filled: vec![false; n],
            payloads: vec![vec![0; 16]; n],
            free_list: (0..n).rev().collect(),
        }
    }

    /// Allocates a buffer (refcount 1), or `None` if the pool is dry.
    pub fn alloc(&mut self) -> Option<usize> {
        let idx = self.free_list.pop()?;
        self.refcounts[idx] = 1;
        self.filled[idx] = false;
        self.payloads[idx].fill(0);
        Some(idx)
    }

    /// Increments a buffer's refcount (the §11 manual bump).
    pub fn incref(&mut self, idx: usize) {
        self.refcounts[idx] += 1;
    }

    /// Decrements a refcount; returns `false` on a double free. The buffer
    /// returns to the free list when the count reaches zero.
    pub fn decref(&mut self, idx: usize) -> bool {
        if self.refcounts[idx] == 0 {
            return false;
        }
        self.refcounts[idx] -= 1;
        if self.refcounts[idx] == 0 {
            self.free_list.push(idx);
        }
        true
    }

    /// Marks the buffer as completely filled by the hardware.
    pub fn fill(&mut self, idx: usize) {
        self.filled[idx] = true;
    }

    /// Whether the hardware has finished filling the buffer.
    pub fn is_filled(&self, idx: usize) -> bool {
        self.filled[idx]
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.free_list.len()
    }

    /// Live (non-free) buffers.
    pub fn in_use(&self) -> usize {
        self.refcounts.len() - self.free_list.len()
    }
}

/// A directory entry (state plus sharer pointer), with the handler-local
/// in-memory copy modelled by the interpreter context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntry {
    /// Coherence state (protocol-defined constant).
    pub state: i64,
    /// Sharer pointer / vector word.
    pub ptr: i64,
}

/// One FLASH node: MAGIC controller state.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node id.
    pub id: usize,
    /// Data buffers.
    pub buffers: BufferPool,
    /// Incoming lane queues.
    pub lanes: [VecDeque<Message>; 4],
    /// The directory for lines this node homes.
    pub directory: BTreeMap<i64, DirEntry>,
    /// Node-local globals visible to handlers.
    pub globals: HashMap<String, i64>,
    /// Set when the node can no longer make progress.
    pub wedged: bool,
}

impl Node {
    fn new(id: usize, buffers: usize) -> Node {
        Node {
            id,
            buffers: BufferPool::new(buffers),
            lanes: Default::default(),
            directory: BTreeMap::new(),
            globals: HashMap::new(),
            wedged: false,
        }
    }

    /// Total queued messages across lanes.
    pub fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }
}

/// Observable simulation events — the dynamic manifestations of the bug
/// classes the static checkers hunt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// A handler ran to completion.
    HandlerRan {
        /// Node it ran on.
        node: usize,
        /// Handler name.
        handler: String,
    },
    /// A node needed a buffer for an incoming message and had none: the
    /// classic slow-leak deadlock.
    BufferExhausted {
        /// The starved node.
        node: usize,
        /// Handler-invocation count when it happened.
        time: u64,
    },
    /// `DB_FREE` on a buffer whose refcount was already zero.
    DoubleFree {
        /// Node.
        node: usize,
        /// Offending handler.
        handler: String,
    },
    /// A handler finished while still holding a buffer reference (leak).
    BufferLeaked {
        /// Node.
        node: usize,
        /// Offending handler.
        handler: String,
    },
    /// `MISCBUS_READ_DB` before `WAIT_FOR_DB_FULL`: the read raced the
    /// hardware fill and observed garbage.
    UnsynchronizedRead {
        /// Node.
        node: usize,
        /// Offending handler.
        handler: String,
    },
    /// An outgoing message whose header length disagrees with its has-data
    /// parameter (the Figure 3 bug class): data corruption on the wire.
    InconsistentLength {
        /// Sending node.
        node: usize,
        /// Offending handler.
        handler: String,
        /// Header length field.
        len: i64,
        /// The send's has-data flag.
        has_data: bool,
    },
    /// A destination lane queue overflowed (lane-quota violation class).
    LaneOverflow {
        /// Destination node.
        node: usize,
        /// Lane index.
        lane: usize,
    },
    /// Handler exited with a modified, unwritten directory entry: the
    /// next handler for the line will see stale state.
    StaleDirectory {
        /// Node.
        node: usize,
        /// Offending handler.
        handler: String,
    },
    /// Handler exited with a waited send still pending (send-wait class).
    MissedWait {
        /// Node.
        node: usize,
        /// Offending handler.
        handler: String,
    },
    /// The interpreter aborted the handler (step/depth budget, missing
    /// function, FATAL_ERROR).
    HandlerFault {
        /// Node.
        node: usize,
        /// Handler name.
        handler: String,
        /// Why.
        reason: String,
    },
}

/// The simulated FLASH machine.
#[derive(Debug)]
pub struct Machine {
    /// The protocol being run.
    pub program: Program,
    /// Per-node state.
    pub nodes: Vec<Node>,
    config: SimConfig,
    events: Vec<SimEvent>,
    handler_runs: u64,
    rr: usize,
    opcodes: HashMap<i64, String>,
}

impl Machine {
    /// Creates a machine running `program`.
    pub fn new(program: Program, config: SimConfig) -> Machine {
        let nodes = (0..config.nodes)
            .map(|i| Node::new(i, config.buffers_per_node))
            .collect();
        Machine {
            program,
            nodes,
            config,
            events: Vec::new(),
            handler_runs: 0,
            rr: 0,
            opcodes: HashMap::new(),
        }
    }

    /// Registers a message-type constant so handlers can address each
    /// other: an outgoing message whose `header.nh.type` equals `code`
    /// runs `handler` at its destination.
    pub fn register_opcode(&mut self, code: i64, handler: &str) {
        self.opcodes.insert(code, handler.to_string());
    }

    /// Resolves a message-type value to a handler name (empty = sink).
    pub(crate) fn opcode_handler(&self, code: i64) -> String {
        self.opcodes.get(&code).cloned().unwrap_or_default()
    }

    /// Sets a node-local global visible to handlers (e.g. `gErrCase`).
    pub fn set_global(&mut self, node: usize, name: &str, value: i64) {
        self.nodes[node].globals.insert(name.to_string(), value);
    }

    /// Injects an incoming message for `handler` at `node` (lane 2,
    /// request).
    pub fn inject(&mut self, node: usize, handler: &str) {
        self.inject_message(Message {
            opcode: handler.to_string(),
            src: node,
            dst: node,
            lane: 2,
            len: 0,
            has_data: true,
            data: vec![7; 16],
        });
    }

    /// Enqueues an arbitrary message, recording lane overflow.
    pub fn inject_message(&mut self, m: Message) {
        let node = &mut self.nodes[m.dst];
        let lane = m.lane.min(3);
        if node.lanes[lane].len() >= self.config.lane_capacity {
            self.events
                .push(SimEvent::LaneOverflow { node: m.dst, lane });
            node.wedged = true;
            return;
        }
        node.lanes[lane].push_back(m);
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Number of handler invocations so far.
    pub fn handler_runs(&self) -> u64 {
        self.handler_runs
    }

    /// Whether any node is wedged (deadlocked).
    pub fn deadlocked(&self) -> bool {
        self.nodes.iter().any(|n| n.wedged)
    }

    /// Runs one handler somewhere, if any message is deliverable.
    /// Returns `false` when nothing could run.
    pub fn step(&mut self) -> bool {
        if self.handler_runs >= self.config.max_handler_runs {
            return false;
        }
        let n = self.nodes.len();
        for off in 0..n {
            let idx = (self.rr + off) % n;
            if self.nodes[idx].wedged || self.nodes[idx].queued() == 0 {
                continue;
            }
            self.rr = idx + 1;
            self.deliver_one(idx);
            return true;
        }
        false
    }

    /// Runs until quiescent, wedged, or out of budget.
    pub fn run(&mut self) {
        while self.step() {}
    }

    fn deliver_one(&mut self, node_idx: usize) {
        // Pop from the lowest non-empty lane (replies drain first on real
        // hardware; lane 3 is replies, so scan from 3 downwards).
        let msg = {
            let node = &mut self.nodes[node_idx];
            let lane = (0..4usize).rev().find(|&l| !node.lanes[l].is_empty());
            match lane {
                Some(l) => node.lanes[l].pop_front().expect("non-empty lane"),
                None => return,
            }
        };
        // Software handlers are scheduled without a data buffer (they
        // allocate their own); hardware dispatch allocates one for the
        // incoming message.
        let is_software = msg.opcode.starts_with("SW");
        let buf = if is_software {
            None
        } else {
            match self.nodes[node_idx].buffers.alloc() {
                Some(b) => Some(b),
                None => {
                    self.events.push(SimEvent::BufferExhausted {
                        node: node_idx,
                        time: self.handler_runs,
                    });
                    self.nodes[node_idx].wedged = true;
                    return;
                }
            }
        };
        if let Some(buf) = buf {
            self.nodes[node_idx].buffers.payloads[buf][..msg.data.len().min(16)]
                .copy_from_slice(&msg.data[..msg.data.len().min(16)]);
        }
        self.handler_runs += 1;

        let handler = msg.opcode.clone();
        let Some(func) = self.program.shared_function(&handler) else {
            // Built-in sink: consume the message and free the buffer.
            if let Some(buf) = buf {
                let _ = self.nodes[node_idx].buffers.decref(buf);
            }
            self.events.push(SimEvent::HandlerRan {
                node: node_idx,
                handler,
            });
            return;
        };

        let src = msg.src;
        match run_handler(
            self,
            node_idx,
            buf.map(|b| b as i64).unwrap_or(-1),
            src,
            &func,
        ) {
            Ok(outcome) => {
                if outcome.missed_wait {
                    self.events.push(SimEvent::MissedWait {
                        node: node_idx,
                        handler: handler.clone(),
                    });
                }
                if outcome.stale_directory {
                    self.events.push(SimEvent::StaleDirectory {
                        node: node_idx,
                        handler: handler.clone(),
                    });
                }
                self.events.push(SimEvent::HandlerRan {
                    node: node_idx,
                    handler: handler.clone(),
                });
            }
            Err(InterpError::Fault(reason)) => {
                self.events.push(SimEvent::HandlerFault {
                    node: node_idx,
                    handler: handler.clone(),
                    reason,
                });
            }
        }
        // A live refcount after the handler returns is a leak: the buffer
        // never returns to the pool (exactly the FLASH low-grade leak).
        if let Some(buf) = buf {
            if self.nodes[node_idx].buffers.refcounts[buf] > 0 {
                self.events.push(SimEvent::BufferLeaked {
                    node: node_idx,
                    handler,
                });
            }
        }
    }

    /// Internal: records an event from the interpreter.
    pub(crate) fn record(&mut self, e: SimEvent) {
        self.events.push(e);
    }

    /// Internal: next node id for an outgoing network send.
    pub(crate) fn remote_of(&self, node: usize) -> usize {
        (node + 1) % self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_alloc_free_cycle() {
        let mut p = BufferPool::new(2);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        assert!(p.alloc().is_none());
        assert!(p.decref(a));
        assert_eq!(p.available(), 1);
        assert!(p.alloc().is_some());
    }

    #[test]
    fn pool_double_free_detected() {
        let mut p = BufferPool::new(1);
        let a = p.alloc().unwrap();
        assert!(p.decref(a));
        assert!(!p.decref(a));
    }

    #[test]
    fn pool_refcount_bump() {
        let mut p = BufferPool::new(1);
        let a = p.alloc().unwrap();
        p.incref(a);
        assert!(p.decref(a));
        assert_eq!(p.available(), 0); // still held
        assert!(p.decref(a));
        assert_eq!(p.available(), 1);
    }

    #[test]
    fn clones_share_function_bodies() {
        let a = Program::parse("void X(void) { DB_FREE(); }").unwrap();
        let b = a.clone();
        assert!(std::ptr::eq(
            a.function("X").unwrap(),
            b.function("X").unwrap()
        ));
    }

    #[test]
    fn unknown_opcode_sinks_cleanly() {
        let mut m = Machine::new(Program::default(), SimConfig::default());
        m.inject(0, "NoSuchHandler");
        m.run();
        assert_eq!(m.nodes[0].buffers.in_use(), 0);
        assert!(!m.deadlocked());
    }

    #[test]
    fn lane_overflow_wedges_node() {
        let cfg = SimConfig {
            lane_capacity: 2,
            ..Default::default()
        };
        let mut m = Machine::new(Program::default(), cfg);
        for _ in 0..3 {
            m.inject(1, "X");
        }
        assert!(m
            .events()
            .iter()
            .any(|e| matches!(e, SimEvent::LaneOverflow { node: 1, lane: 2 })));
        assert!(m.deadlocked());
    }

    #[test]
    fn handler_budget_caps_run() {
        let cfg = SimConfig {
            max_handler_runs: 5,
            ..Default::default()
        };
        let mut m = Machine::new(Program::default(), cfg);
        for _ in 0..10 {
            m.inject(0, "X");
        }
        m.run();
        assert_eq!(m.handler_runs(), 5);
    }
}
