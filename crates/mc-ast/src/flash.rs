//! The FLASH vocabulary: every macro and named constant protocol handlers
//! are written in (§2), each with its one effect.
//!
//! Handlers touch the hardware only through these names, which is what
//! makes them so amenable to pattern-based checking. The simulator
//! dispatches on [`effect`], the symbolic executor asks it which calls it
//! may run without forgetting globals ([`is_pure`]), and the
//! checkers match the name constants and effects defined here. Only the
//! corpus generator's C emitters and the metal program texts spell FLASH
//! names out anywhere else.

use Effect::*;
use Iface::*;

/// A hardware interface of the node controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Iface {
    /// The processor interface.
    Pi,
    /// The I/O interface.
    Io,
    /// The network interface.
    Ni,
}

/// A field of the loaded directory entry (§9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirField {
    /// The entry's state.
    State,
    /// The entry's sharer vector / pointer field.
    Ptr,
}

/// What running a FLASH name does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A simulator hook (§8) or a checker annotation (§6.1): no effect.
    Hook,
    /// `HANDLER_GLOBALS(header.nh.<field>)`: reads a header field or, as
    /// an assignment target, sets one of the next message sent.
    Header,
    /// `b = DB_ALLOC()` allocates a data buffer (§6), or yields `DB_FAIL`.
    BufAlloc,
    /// Releases the handler's data buffer.
    BufFree,
    /// The manual reference-count bump of the §11 "betrayal" incident.
    BufRefcount,
    /// `DB_WRITE(buf, off, val)` writes message data into a buffer.
    BufWrite,
    /// Yields the handler's current data buffer.
    BufCurrent,
    /// Waits until the data buffer is full (Figure 2).
    DbWait,
    /// Reads the data buffer; before the wait it races the fill (Figure 2).
    DbRead,
    /// Sends on `iface`; argument `flag` is the has-data flag (Figure 3)
    /// and argument `wait` the promise to wait for the reply (§9).
    Send {
        /// The interface sent on.
        iface: Iface,
        /// Index of the has-data argument.
        flag: usize,
        /// Index of the wait argument.
        wait: usize,
    },
    /// Waits for the reply to a send on the interface.
    Wait(Iface),
    /// Loads the directory entry of the line being handled (§9).
    DirLoad,
    /// Reads a field of the loaded entry.
    DirRead(DirField),
    /// Modifies a field of the loaded entry.
    DirSet(DirField),
    /// Writes the loaded entry back to memory.
    DirWriteback,
    /// Computes the directory address; doing it by hand is §9.1's
    /// "abstraction error".
    DirAddr,
    /// Faults: the body of an intentionally unimplemented routine.
    Fatal,
    /// Reads an interface status register.
    Status,
    /// Deprecated in favor of a newer interface (§8 warns on use); a
    /// definition in the program, if any, runs.
    Deprecated,
    /// A named constant with its value.
    Const(i64),
}

/// Defines one name constant per entry, [`TABLE`] and [`effect`] from one
/// list of `CONST ("spelling")? => effect` rows; a row without a spelling
/// is spelled as its constant.
macro_rules! vocabulary {
    (@name $konst:ident $name:literal) => { $name };
    (@name $konst:ident) => { stringify!($konst) };
    ($($konst:ident $(($name:literal))? => $effect:expr,)*) => {
        $(
            #[doc = "A FLASH name; [`effect`] gives what it does."]
            pub const $konst: &str = vocabulary!(@name $konst $($name)?);
        )*

        /// Every FLASH name with its effect.
        pub const TABLE: &[(&str, Effect)] = &[$(($konst, $effect)),*];

        /// The effect of the FLASH name `name`; `None` for any other name.
        pub fn effect(name: &str) -> Option<Effect> {
            match name {
                $($konst => Some($effect),)*
                _ => None,
            }
        }
    };
}

vocabulary! {
    HANDLER_DEFS => Hook,
    HANDLER_PROLOGUE => Hook,
    SWHANDLER_DEFS => Hook,
    SWHANDLER_PROLOGUE => Hook,
    PROC_DEFS => Hook,
    PROC_PROLOGUE => Hook,
    NO_STACK => Hook,
    SET_STACKPTR => Hook,
    HAS_BUFFER("has_buffer") => Hook,
    NO_FREE_NEEDED("no_free_needed") => Hook,
    DEBUG_PRINT("debug_print") => Hook,
    HANDLER_GLOBALS => Header,
    DB_ALLOC => BufAlloc,
    DB_FREE => BufFree,
    DB_REFCOUNT_INCR => BufRefcount,
    DB_WRITE => BufWrite,
    DB_CURRENT => BufCurrent,
    WAIT_FOR_DB_FULL => DbWait,
    MISCBUS_READ_DB => DbRead,
    PI_SEND => Send { iface: Pi, flag: 0, wait: 3 },
    IO_SEND => Send { iface: Io, flag: 0, wait: 3 },
    NI_SEND => Send { iface: Ni, flag: 1, wait: 3 },
    PI_WAIT => Wait(Pi),
    IO_WAIT => Wait(Io),
    NI_WAIT => Wait(Ni),
    DIR_LOAD => DirLoad,
    DIR_STATE => DirRead(DirField::State),
    DIR_PTR => DirRead(DirField::Ptr),
    DIR_SET_STATE => DirSet(DirField::State),
    DIR_SET_PTR => DirSet(DirField::Ptr),
    DIR_WRITEBACK => DirWriteback,
    DIR_ADDR => DirAddr,
    DIR_ADDR_BASE => Const(0),
    FATAL_ERROR => Fatal,
    MAGIC_PI_STATUS => Status,
    MAGIC_IO_STATUS => Status,
    MAGIC_NI_STATUS => Status,
    OLD_WAIT_DB => Deprecated,
    MISCBUS_READ_DB_OLD => Deprecated,
    BUF_CAST => Deprecated,
    F_NODATA => Const(0),
    F_DATA => Const(1),
    W_NOWAIT => Const(0),
    W_WAIT => Const(1),
    LEN_NODATA => Const(0),
    LEN_WORD => Const(1),
    LEN_CACHELINE => Const(16),
    DB_FAIL => Const(-1),
    MSG_REQ => Const(100),
    MSG_REPLY => Const(101),
    MSG_NAK => Const(102),
    DIR_IDLE => Const(0),
    DIR_SHARED => Const(1),
    DIR_DIRTY => Const(2),
    DIR_PENDING => Const(3),
}

/// The value of the named constant `name`.
pub fn constant(name: &str) -> Option<i64> {
    match effect(name)? {
        Const(v) => Some(v),
        _ => None,
    }
}

/// Whether running `name` leaves every variable and all machine state as
/// it found it, so a symbolic executor may step over a call to it without
/// forgetting any global.
pub fn is_pure(name: &str) -> bool {
    matches!(
        effect(name),
        Some(Hook | Header | BufCurrent | DirRead(_) | DirAddr | Status | Const(_))
    )
}

/// The wait macro for the interface of the send macro `send`.
pub fn wait_for_send(send: &str) -> Option<&'static str> {
    match effect(send)? {
        Send { iface, .. } => TABLE.iter().find(|(_, e)| *e == Wait(iface)).map(|e| e.0),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_listed_once_and_looks_up_to_its_row() {
        for (i, (name, e)) in TABLE.iter().enumerate() {
            assert_eq!(effect(name), Some(*e), "{name}");
            assert!(TABLE[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
        assert_eq!(effect("compute_owner"), None);
        assert_eq!(HAS_BUFFER, "has_buffer");
        assert_eq!(DB_FREE, "DB_FREE");
    }

    #[test]
    fn sends_pair_with_the_wait_of_their_interface() {
        assert_eq!(wait_for_send(PI_SEND), Some(PI_WAIT));
        assert_eq!(wait_for_send(IO_SEND), Some(IO_WAIT));
        assert_eq!(wait_for_send(NI_SEND), Some(NI_WAIT));
        assert_eq!(wait_for_send(PI_WAIT), None);
    }

    #[test]
    fn constants_have_values_and_macros_do_not() {
        assert_eq!(constant(LEN_CACHELINE), Some(16));
        assert_eq!(constant(DB_FAIL), Some(-1));
        assert_eq!(constant(DB_FREE), None);
        assert_eq!(constant("gLen"), None);
    }
}
