//! State-transfer tables, for every state machine — the metal engines and
//! the native checkers alike: [`transfer_table`] builds a machine's
//! [`FnSummary::transfers`] entry for one function, and [`apply_transfer`]
//! applies a callee's entry at a call site. A machine takes part through
//! [`TransferCodec`], which names it and its states.

use crate::build::Cfg;
use crate::machine::{run_traversal_with, PathEvent, PathMachine, Traversal};
use crate::summary::{FnSummary, SummaryLookup};
use crate::witness::Witness;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;

/// How a state machine appears in [`FnSummary::transfers`]: its table key,
/// the states a table starts from, and the codec between states and their
/// names.
pub trait TransferCodec {
    /// The machine's path state.
    type State: Clone + Eq + Hash;

    /// The machine's name: the key of its table in
    /// [`FnSummary::transfers`].
    fn machine_name(&self) -> &str;

    /// Every state the machine can be in at a call, each the start of one
    /// traversal when a table is built.
    fn start_states(&self) -> Vec<Self::State>;

    /// The name of `state` in a table.
    fn state_name(&self, state: &Self::State) -> Cow<'_, str>;

    /// The state a table name stands for, or `None` for a name this
    /// machine does not know.
    fn parse_state(&self, name: &str) -> Option<Self::State>;
}

/// Builds `codec`'s transfer table for the function `cfg`: for each start
/// state, the sorted names of the states the machine can be in when the
/// function returns. `machine` makes a fresh machine per start state; the
/// states collected are those it yields from each [`PathEvent::Return`].
///
/// Identity transfers are omitted: a missing entry already means "the call
/// leaves this state alone", and omitting them keeps summaries small and
/// call-site stepping cheap. The summary engine runs this bottom-up,
/// passing the already-summarized callees as `oracle`, so transfers compose
/// through call chains.
pub fn transfer_table<C, M>(
    codec: &C,
    cfg: &Cfg,
    traversal: Traversal,
    oracle: Option<&dyn SummaryLookup>,
    mut machine: impl FnMut() -> M,
) -> BTreeMap<String, Vec<String>>
where
    C: TransferCodec,
    M: PathMachine<State = C::State>,
{
    let mut table = BTreeMap::new();
    for start in codec.start_states() {
        let mut collector = EndCollector {
            inner: machine(),
            ends: HashSet::new(),
        };
        run_traversal_with(cfg, &mut collector, start.clone(), traversal, oracle);
        let mut ends: Vec<String> = collector
            .ends
            .iter()
            .map(|s| codec.state_name(s).into_owned())
            .collect();
        ends.sort();
        ends.dedup();
        let name = codec.state_name(&start);
        if ends.len() == 1 && ends[0] == name {
            continue;
        }
        table.insert(name.into_owned(), ends);
    }
    table
}

/// The states a call to `summary`'s function can leave `codec`'s machine
/// in, from `state`: the end states its table records, or `state` itself
/// when the table has no entry for this machine or state (the callee is
/// opaque to it). An empty end set means every path through the callee
/// stops the machine. End names the machine does not know are dropped.
pub fn apply_transfer<C: TransferCodec>(
    codec: &C,
    summary: &FnSummary,
    state: &C::State,
) -> Vec<C::State> {
    let ends = summary
        .transfers
        .get(codec.machine_name())
        .and_then(|table| table.get(codec.state_name(state).as_ref()));
    match ends {
        Some(ends) => ends.iter().filter_map(|n| codec.parse_state(n)).collect(),
        None => vec![state.clone()],
    }
}

impl FnSummary {
    /// Records `machine`'s transfer table; an empty one is left out, so a
    /// function every start state passes through unchanged has no entry.
    pub fn insert_transfers(&mut self, machine: &str, table: BTreeMap<String, Vec<String>>) {
        if !table.is_empty() {
            self.transfers.insert(machine.to_string(), table);
        }
    }
}

/// Wraps a [`PathMachine`] and records the states it yields from every
/// [`PathEvent::Return`] — the states the machine exits the function in.
struct EndCollector<M: PathMachine> {
    inner: M,
    ends: HashSet<M::State>,
}

impl<M: PathMachine> PathMachine for EndCollector<M> {
    type State = M::State;

    fn step(&mut self, s: &M::State, e: &PathEvent<'_>, w: &Witness<'_>) -> Vec<M::State> {
        let mut out = Vec::new();
        self.step_into(s, e, w, &mut out);
        out
    }

    fn step_into(
        &mut self,
        state: &Self::State,
        event: &PathEvent<'_>,
        witness: &Witness<'_>,
        out: &mut Vec<Self::State>,
    ) {
        let before = out.len();
        self.inner.step_into(state, event, witness, out);
        if matches!(event, PathEvent::Return { .. }) {
            self.ends.extend(out[before..].iter().cloned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::{parse_translation_unit, StmtKind};

    /// A two-state machine: `arm()` moves `Off` to `On`, `halt()` stops it.
    struct Toggle;

    impl TransferCodec for Toggle {
        type State = bool;
        fn machine_name(&self) -> &str {
            "toggle"
        }
        fn start_states(&self) -> Vec<bool> {
            vec![false, true]
        }
        fn state_name(&self, state: &bool) -> Cow<'_, str> {
            Cow::Borrowed(if *state { "On" } else { "Off" })
        }
        fn parse_state(&self, name: &str) -> Option<bool> {
            match name {
                "On" => Some(true),
                "Off" => Some(false),
                _ => None,
            }
        }
    }

    impl PathMachine for Toggle {
        type State = bool;
        fn step(&mut self, state: &bool, event: &PathEvent<'_>, _: &Witness<'_>) -> Vec<bool> {
            let call = match event {
                PathEvent::Stmt(s) => match &s.kind {
                    StmtKind::Expr(e) => e.as_call().map(|(name, _)| name),
                    _ => None,
                },
                _ => None,
            };
            match call {
                Some("arm") => vec![true],
                Some("halt") => vec![],
                _ => vec![*state],
            }
        }
    }

    fn table(src: &str) -> BTreeMap<String, Vec<String>> {
        let tu = parse_translation_unit(src, "t.c").unwrap();
        let cfg = Cfg::build(tu.functions().next().unwrap());
        transfer_table(&Toggle, &cfg, Traversal::default(), None, || Toggle)
    }

    #[test]
    fn identity_entries_are_omitted_and_ends_sorted() {
        assert!(table("void f(void) { g(); }").is_empty());
        let t = table("void f(void) { if (c) { arm(); } }");
        assert_eq!(t.len(), 1);
        assert_eq!(t["Off"], ["Off", "On"]);
        let t = table("void f(void) { halt(); }");
        assert_eq!(t["Off"], Vec::<String>::new());
        assert_eq!(t["On"], Vec::<String>::new());
    }

    #[test]
    fn application_keeps_state_without_entry_and_drops_unknown_names() {
        let mut summary = FnSummary::default();
        assert_eq!(apply_transfer(&Toggle, &summary, &false), [false]);
        let table = BTreeMap::from([("Off".to_string(), vec!["On".into(), "Bogus".into()])]);
        summary.insert_transfers("toggle", table);
        assert_eq!(apply_transfer(&Toggle, &summary, &false), [true]);
        assert_eq!(apply_transfer(&Toggle, &summary, &true), [true]);
        summary.insert_transfers("other", BTreeMap::new());
        assert!(!summary.transfers.contains_key("other"));
    }
}
