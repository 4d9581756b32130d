//! DRAM command vocabulary.

use crate::addr::DramAddr;
use serde::Serialize;

/// The DRAM commands the memory controller can issue.
///
/// This is the DDR4 subset that matters for RowHammer mitigation studies:
/// row activation / precharge, column reads / writes, and all-bank refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CommandKind {
    /// Activate (open) a row: loads the row into the bank's row buffer.
    Act,
    /// Precharge (close) the bank's open row.
    Pre,
    /// Precharge all banks in a rank.
    PreAll,
    /// Column read from the open row.
    Rd,
    /// Column read with auto-precharge.
    RdA,
    /// Column write to the open row.
    Wr,
    /// Column write with auto-precharge.
    WrA,
    /// All-bank refresh (rank granularity, row-address agnostic).
    Ref,
}

impl CommandKind {
    /// Whether the command opens a row (counts as a row activation for RowHammer tracking).
    pub fn is_activation(self) -> bool {
        matches!(self, CommandKind::Act)
    }

    /// Whether the command transfers data on the bus.
    pub fn is_column(self) -> bool {
        matches!(self, CommandKind::Rd | CommandKind::RdA | CommandKind::Wr | CommandKind::WrA)
    }

    /// Whether the command is a read-type column command.
    pub fn is_read(self) -> bool {
        matches!(self, CommandKind::Rd | CommandKind::RdA)
    }

    /// Whether the command is a write-type column command.
    pub fn is_write(self) -> bool {
        matches!(self, CommandKind::Wr | CommandKind::WrA)
    }

    /// Whether the command closes the row it targets.
    pub fn closes_row(self) -> bool {
        matches!(self, CommandKind::Pre | CommandKind::PreAll | CommandKind::RdA | CommandKind::WrA)
    }

    /// Whether the command targets a whole rank rather than a single bank.
    pub fn is_rank_level(self) -> bool {
        matches!(self, CommandKind::Ref | CommandKind::PreAll)
    }
}

/// A command bound to a target address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Command {
    /// What to do.
    pub kind: CommandKind,
    /// Where to do it. For rank-level commands only the channel/rank fields matter.
    pub addr: DramAddr,
}

impl Command {
    /// Convenience constructor.
    pub fn new(kind: CommandKind, addr: DramAddr) -> Self {
        Command { kind, addr }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_classification() {
        assert!(CommandKind::Act.is_activation());
        assert!(!CommandKind::Rd.is_activation());
        assert!(!CommandKind::Ref.is_activation());
    }

    #[test]
    fn column_classification() {
        for c in [CommandKind::Rd, CommandKind::RdA, CommandKind::Wr, CommandKind::WrA] {
            assert!(c.is_column());
        }
        assert!(!CommandKind::Act.is_column());
        assert!(CommandKind::Rd.is_read() && !CommandKind::Rd.is_write());
        assert!(CommandKind::WrA.is_write() && !CommandKind::WrA.is_read());
    }

    #[test]
    fn closing_commands() {
        assert!(CommandKind::Pre.closes_row());
        assert!(CommandKind::RdA.closes_row());
        assert!(!CommandKind::Rd.closes_row());
    }

    #[test]
    fn rank_level_commands() {
        assert!(CommandKind::Ref.is_rank_level());
        assert!(CommandKind::PreAll.is_rank_level());
        assert!(!CommandKind::Act.is_rank_level());
    }
}
