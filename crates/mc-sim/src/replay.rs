//! Concrete witness replay: run a handler under a solver model and watch
//! for the dynamic event that corresponds to a static checker's bug class.
//!
//! This is the confirmation half of the refutation pipeline. The symbolic
//! executor (`mc-symx`) decides whether a report's witness path *can*
//! execute; when it can, its model — initial values for the plain globals
//! the path reads — is injected here and the handler actually runs. A
//! report whose violation reproduces dynamically is promoted to
//! `confirmed`: the reviewer gets a concrete input, not just a path.

use crate::machine::{Machine, Program, SimConfig, SimEvent};
use mc_ast::{walk_function, Expr, Visitor};
use std::collections::HashSet;

/// The dynamic event classes one static checker's reports correspond to.
///
/// Returns `None` for checkers whose violations have no dynamic
/// manifestation the simulator observes (`alloc_check` guards a
/// compile-time allocation discipline; `exec_restrict` a static layering
/// rule) — their reports are never promoted.
fn event_matches(checker: &str, handler: &str, ev: &SimEvent) -> Option<bool> {
    let hit = match checker {
        "wait_for_db" => {
            matches!(ev, SimEvent::UnsynchronizedRead { handler: h, .. } if h == handler)
        }
        "msglen_check" => {
            matches!(ev, SimEvent::InconsistentLength { handler: h, .. } if h == handler)
        }
        "buffer_mgmt" | "refcount_bump" => matches!(
            ev,
            SimEvent::DoubleFree { handler: h, .. } | SimEvent::BufferLeaked { handler: h, .. }
                if h == handler
        ),
        "directory" => matches!(ev, SimEvent::StaleDirectory { handler: h, .. } if h == handler),
        "send_wait" => matches!(ev, SimEvent::MissedWait { handler: h, .. } if h == handler),
        "lanes" => matches!(ev, SimEvent::LaneOverflow { .. }),
        _ => return None,
    };
    Some(hit)
}

/// Whether `checker`'s reports have a dynamic manifestation [`replay`] can
/// observe at all.
pub fn replayable_checker(checker: &str) -> bool {
    event_matches(checker, "", &SimEvent::LaneOverflow { node: 0, lane: 0 }).is_some()
}

/// Runs `handler` on a one-shot machine with the model's globals injected,
/// and reports whether the dynamic event matching `checker` fired.
///
/// `program` is a shared handle ([`Program`]'s clone is O(1)): replaying
/// many reports against clones of one parsed program copies no AST, and
/// the run only reads the program, so every replay of the same program
/// sees the same code.
///
/// The run is deterministic: a fixed default machine, one injection, and
/// an interpreter with no randomness — so promotion decisions are stable
/// across runs, worker counts, and cache state. A `false` return is *not*
/// evidence the report is wrong (the model may bind too few globals, or
/// the violation may need cross-handler state); it only means the report
/// stays at its symbolic verdict. When any function the handler can reach
/// (itself included) is defined by more than one source, `replay` returns
/// `false`: the program runs one of the bodies, and it may not be the one
/// the report's file calls.
pub fn replay(program: Program, checker: &str, handler: &str, model: &[(String, i64)]) -> bool {
    if program.function(handler).is_none()
        || reaches_duplicate(&program, handler)
        || !replayable_checker(checker)
    {
        return false;
    }
    let mut machine = Machine::new(program, SimConfig::default());
    for (name, value) in model {
        machine.set_global(0, name, *value);
    }
    machine.inject(0, handler);
    machine.run();
    machine
        .events()
        .iter()
        .any(|ev| event_matches(checker, handler, ev).unwrap_or(false))
}

/// Whether a name in `handler`'s call closure, resolved by name as the
/// interpreter resolves it, is defined by more than one source.
fn reaches_duplicate(program: &Program, handler: &str) -> bool {
    struct Callees(Vec<String>);
    impl Visitor for Callees {
        fn visit_expr(&mut self, e: &Expr) {
            if let Some((name, _)) = e.as_call() {
                self.0.push(name.to_string());
            }
        }
    }
    let mut seen = HashSet::new();
    let mut work = Callees(vec![handler.to_string()]);
    while let Some(name) = work.0.pop() {
        match program.function(&name) {
            Some(_) if program.is_duplicate(&name) => return true,
            Some(f) if seen.insert(name.clone()) => walk_function(&mut work, f),
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY: &str = "void Racy(void) {\n\
                        HANDLER_DEFS();\n\
                        HANDLER_PROLOGUE();\n\
                        if (gLen > 4) { MISCBUS_READ_DB(addr, buf); }\n\
                        DB_FREE();\n\
                        }";

    #[test]
    fn confirms_a_real_unsynchronized_read() {
        let program = Program::parse(RACY).unwrap();
        // The guard needs the model: without gLen the branch stays cold
        // and nothing reproduces.
        assert!(replay(
            program.clone(),
            "wait_for_db",
            "Racy",
            &[("gLen".into(), 5)]
        ));
        assert!(!replay(program, "wait_for_db", "Racy", &[]));
    }

    #[test]
    fn wrong_checker_or_handler_never_confirms() {
        let program = Program::parse(
            "void Racy(void) {\n\
             HANDLER_DEFS();\n\
             HANDLER_PROLOGUE();\n\
             MISCBUS_READ_DB(addr, buf);\n\
             DB_FREE();\n\
             }",
        )
        .unwrap();
        assert!(!replay(program.clone(), "send_wait", "Racy", &[]));
        assert!(!replay(program.clone(), "alloc_check", "Racy", &[]));
        assert!(!replay(program, "wait_for_db", "Missing", &[]));
    }

    #[test]
    fn replaying_one_program_many_times_matches_a_fresh_parse() {
        let shared = Program::parse(RACY).unwrap();
        for (model, expect) in [(vec![("gLen".to_string(), 5)], true), (vec![], false)] {
            let fresh = replay(Program::parse(RACY).unwrap(), "wait_for_db", "Racy", &model);
            assert_eq!(fresh, expect);
            for _ in 0..50 {
                assert_eq!(replay(shared.clone(), "wait_for_db", "Racy", &model), fresh);
            }
        }
    }

    #[test]
    fn a_handler_defined_twice_is_never_confirmed() {
        let leaking = "void PIHandler(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); }";
        let clean = "void PIHandler(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); DB_FREE(); }";
        let alone = Program::parse(leaking).unwrap();
        assert!(replay(alone, "buffer_mgmt", "PIHandler", &[]));
        // Whichever body the program resolves the name to, it cannot tell
        // which file's report is being replayed.
        for order in [[clean, leaking], [leaking, clean]] {
            let sources: Vec<(String, String)> = order
                .iter()
                .zip(["a.c", "b.c"])
                .map(|(src, name)| (src.to_string(), name.to_string()))
                .collect();
            let program = Program::from_sources(&sources).unwrap();
            assert!(!replay(program, "buffer_mgmt", "PIHandler", &[]));
        }
    }

    #[test]
    fn a_helper_defined_twice_is_never_confirmed() {
        // The handler is unique, but a function it reaches is defined in
        // two files: the program runs the last definition, which need not
        // be the one the handler's file calls.
        let handler = "static void release_buf(void) { DB_FREE(); }\n\
                       void PIHandler(void) { HANDLER_DEFS(); HANDLER_PROLOGUE(); release_buf(); }";
        let other = "static void release_buf(void) { }";
        for order in [[handler, other], [other, handler]] {
            let sources: Vec<(String, String)> = order
                .iter()
                .zip(["a.c", "b.c"])
                .map(|(src, name)| (src.to_string(), name.to_string()))
                .collect();
            let program = Program::from_sources(&sources).unwrap();
            assert!(!replay(program, "buffer_mgmt", "PIHandler", &[]));
        }
        // Alone, the leak-free handler does not reproduce a leak either;
        // with the empty helper alone it does.
        let alone = Program::parse(handler).unwrap();
        assert!(!replay(alone, "buffer_mgmt", "PIHandler", &[]));
        let leaky = handler.replace("{ DB_FREE(); }", "{ }");
        assert!(replay(
            Program::parse(&leaky).unwrap(),
            "buffer_mgmt",
            "PIHandler",
            &[]
        ));
    }

    #[test]
    fn static_discipline_checkers_are_not_replayable() {
        assert!(replayable_checker("wait_for_db"));
        assert!(replayable_checker("msglen_check"));
        assert!(replayable_checker("buffer_mgmt"));
        assert!(replayable_checker("directory"));
        assert!(replayable_checker("send_wait"));
        assert!(replayable_checker("lanes"));
        assert!(!replayable_checker("alloc_check"));
        assert!(!replayable_checker("exec_restrict"));
    }
}
