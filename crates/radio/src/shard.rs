//! Spatial shard plans for cell-parallel delivery resolution.
//!
//! A [`ShardPlan`] partitions the program-bearing node ids of an engine
//! run into *cells*. The engine resolves each round cell-by-cell: every
//! cell gathers its own nodes' actions and receptions into private
//! scratch buffers, and the per-cell results are merged in canonical
//! (global node-id) order before anything observable — trace events,
//! energy totals, the done check — is produced.
//!
//! The contract that makes intra-run parallelism safe to offer at all:
//! **the cell structure is invisible in every output**. Delivery is a
//! pure function of the transmit table (who is on the air, on which
//! channel), the graph, the failure plan, and the stateless per-link
//! loss hash — none of which depend on which cell a node landed in or
//! which worker thread resolved it. The merge step then re-serialises
//! the buffered events in exactly the order the plain sequential scan
//! would have produced them, so one cell, many cells, one thread and N
//! threads all emit byte-identical event streams.
//!
//! Plans typically come from a spatial index (grid cells of a unit-disk
//! deployment, see `SensorNetwork::shard_plan` in `dsnet`), but any
//! partition works — including degenerate ones with empty cells, which
//! simply contribute nothing to the merge.

use dsnet_graph::NodeId;

/// A partition of node ids into delivery cells.
///
/// Cells may be empty; ids within a cell are kept in ascending order so
/// per-cell scans are deterministic regardless of how the plan was
/// assembled.
#[derive(Debug, Clone, Default)]
pub struct ShardPlan {
    cells: Vec<Vec<u32>>,
}

impl ShardPlan {
    /// Build a plan from explicit cells. Each cell is sorted; empty
    /// cells are preserved (they are a supported edge case, not an
    /// error). Panics if any id appears in more than one cell.
    pub fn from_cells(cells: Vec<Vec<NodeId>>) -> Self {
        let mut out: Vec<Vec<u32>> = cells
            .into_iter()
            .map(|c| c.into_iter().map(|id| id.0).collect())
            .collect();
        let mut seen: Vec<u32> = out.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert!(
            seen.windows(2).all(|w| w[0] != w[1]),
            "shard plan assigns a node id to more than one cell"
        );
        for cell in &mut out {
            cell.sort_unstable();
        }
        Self { cells: out }
    }

    /// The single-cell plan over the given ids — what every run uses
    /// unless a spatial plan is installed.
    pub fn single(ids: impl IntoIterator<Item = NodeId>) -> Self {
        Self::from_cells(vec![ids.into_iter().collect()])
    }

    /// Number of cells (including empty ones).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total number of node ids across all cells.
    pub fn node_count(&self) -> usize {
        self.cells.iter().map(Vec::len).sum()
    }

    /// The cells, ascending ids each, in deterministic plan order.
    pub(crate) fn cells(&self) -> &[Vec<u32>] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_sorted_and_empties_survive() {
        let plan = ShardPlan::from_cells(vec![vec![NodeId(5), NodeId(1)], vec![], vec![NodeId(3)]]);
        assert_eq!(plan.cell_count(), 3);
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.cells()[0], vec![1, 5]);
        assert!(plan.cells()[1].is_empty());
    }

    #[test]
    #[should_panic(expected = "more than one cell")]
    fn duplicate_ids_rejected() {
        ShardPlan::from_cells(vec![vec![NodeId(1)], vec![NodeId(1)]]);
    }
}
