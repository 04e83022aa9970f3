//! Block-transfer cost snapshots.
//!
//! The runtime books every data movement in exactly the units the
//! algorithmic model uses: one far-block (`B` bytes) or one near-block
//! (`ρB` bytes) per transfer. A [`CostSnapshot`] of those totals is the
//! ground truth behind the "Scratchpad Accesses" / "DRAM Accesses" columns
//! of Table I and behind the model-validation experiment (F-MODEL in
//! DESIGN.md).

use serde::{Deserialize, Serialize};

/// Direction of a charged transfer, from the processor's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Memory → cache.
    Read,
    /// Cache → memory.
    Write,
}

/// Model-unit cost totals: block transfers per level and direction, the
/// payload bytes they booked, and RAM-model operations. The scratchpad
/// runtime derives them from its per-lane phase records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostSnapshot {
    pub far_read_blocks: u64,
    pub far_write_blocks: u64,
    pub near_read_blocks: u64,
    pub near_write_blocks: u64,
    pub far_bytes: u64,
    pub near_bytes: u64,
    pub compute_ops: u64,
}

impl CostSnapshot {
    /// Total far-memory block transfers (reads + writes) — the paper's
    /// "DRAM Accesses".
    #[inline]
    pub fn far_blocks(&self) -> u64 {
        self.far_read_blocks + self.far_write_blocks
    }

    /// Total near-memory block transfers — the paper's "Scratchpad Accesses".
    #[inline]
    pub fn near_blocks(&self) -> u64 {
        self.near_read_blocks + self.near_write_blocks
    }

    /// Total model cost: every block transfer costs 1 regardless of size.
    #[inline]
    pub fn total_blocks(&self) -> u64 {
        self.far_blocks() + self.near_blocks()
    }

    /// Difference of two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            far_read_blocks: self.far_read_blocks - earlier.far_read_blocks,
            far_write_blocks: self.far_write_blocks - earlier.far_write_blocks,
            near_read_blocks: self.near_read_blocks - earlier.near_read_blocks,
            near_write_blocks: self.near_write_blocks - earlier.near_write_blocks,
            far_bytes: self.far_bytes - earlier.far_bytes,
            near_bytes: self.near_bytes - earlier.near_bytes,
            compute_ops: self.compute_ops - earlier.compute_ops,
        }
    }
}

impl core::ops::Add for CostSnapshot {
    type Output = CostSnapshot;
    fn add(self, o: CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            far_read_blocks: self.far_read_blocks + o.far_read_blocks,
            far_write_blocks: self.far_write_blocks + o.far_write_blocks,
            near_read_blocks: self.near_read_blocks + o.near_read_blocks,
            near_write_blocks: self.near_write_blocks + o.near_write_blocks,
            far_bytes: self.far_bytes + o.far_bytes,
            near_bytes: self.near_bytes + o.near_bytes,
            compute_ops: self.compute_ops + o.compute_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_combines() {
        let a = CostSnapshot {
            far_read_blocks: 1,
            near_write_blocks: 2,
            ..Default::default()
        };
        let b = CostSnapshot {
            far_read_blocks: 3,
            compute_ops: 5,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.far_read_blocks, 4);
        assert_eq!(c.near_write_blocks, 2);
        assert_eq!(c.compute_ops, 5);
        assert_eq!(c.since(&b), a);
    }
}
