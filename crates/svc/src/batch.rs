//! Request batching: grouping probes by shard.
//!
//! The service amortises pool dispatch by submitting **one job per
//! shard**, not one per probe. These helpers partition a request's
//! cells (or a batch of rectangular queries) by the shard that owns
//! each row, translating global rows to shard-local ones and
//! remembering the original position so answers can be scattered back
//! into request order after the per-shard results return.

use crate::shard::ShardedIndex;
use ab::Cell;
use bitmap::RectQuery;

/// Collects `(shard id, item)` pairs into one `(shard id, items)` slot
/// per shard that received any, in shard order; items keep their
/// arrival order.
fn group_by_shard<T>(
    num_shards: usize,
    items: impl Iterator<Item = (usize, T)>,
) -> Vec<(usize, Vec<T>)> {
    let mut groups: Vec<Vec<T>> = (0..num_shards).map(|_| Vec::new()).collect();
    for (sid, item) in items {
        groups[sid].push(item);
    }
    let batch: Vec<(usize, Vec<T>)> = groups
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .collect();
    obs::histogram!("svc.batch.shards").record(batch.len() as u64);
    batch
}

/// Partitions a cell-subset query by owning shard: each shard's slot
/// lists `(position in the original request, cell with a shard-local
/// row)`, sorted by position.
///
/// # Panics
///
/// Panics if any cell's row is out of range (validate first).
pub fn group_cells_by_shard(
    index: &ShardedIndex,
    cells: &[Cell],
) -> Vec<(usize, Vec<(usize, Cell)>)> {
    group_by_shard(
        index.num_shards(),
        cells.iter().enumerate().map(|(pos, cell)| {
            let sid = index.shard_of_row(cell.row);
            let row = cell.row - index.shards()[sid].start();
            (sid, (pos, Cell::new(row, cell.attribute, cell.bin)))
        }),
    )
}

/// Partitions a batch of rectangular queries by shard: each query is
/// split with [`ShardedIndex::split_rect`] and each shard's slot lists
/// `(query index in the batch, query with shard-local rows)`. One pool
/// job then serves every part that landed on its shard.
pub fn group_rects_by_shard(
    index: &ShardedIndex,
    queries: &[RectQuery],
) -> Vec<(usize, Vec<(usize, RectQuery)>)> {
    group_by_shard(
        index.num_shards(),
        queries.iter().enumerate().flat_map(|(qidx, q)| {
            index
                .split_rect(q)
                .into_iter()
                .map(move |(sid, local)| (sid, (qidx, local)))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ab::{AbConfig, Level};
    use bitmap::{AttrRange, BinnedColumn, BinnedTable};

    fn index() -> ShardedIndex {
        let t = BinnedTable::new(vec![BinnedColumn::new(
            "a",
            (0..100).map(|i| (i % 4) as u32).collect(),
            4,
        )]);
        ShardedIndex::build(
            &t,
            &AbConfig::new(Level::PerAttribute).with_alpha(8),
            4,
            false,
        )
    }

    #[test]
    fn cells_group_to_owning_shards_with_local_rows() {
        let idx = index();
        let cells = vec![
            Cell::new(99, 0, 3), // shard 3
            Cell::new(0, 0, 0),  // shard 0
            Cell::new(26, 0, 2), // shard 1
            Cell::new(1, 0, 1),  // shard 0
        ];
        let groups = group_cells_by_shard(&idx, &cells);
        assert_eq!(
            groups,
            vec![
                (0, vec![(1, Cell::new(0, 0, 0)), (3, Cell::new(1, 0, 1))]),
                (1, vec![(2, Cell::new(1, 0, 2))]),
                (3, vec![(0, Cell::new(24, 0, 3))]),
            ]
        );
    }

    #[test]
    fn rect_batch_splits_and_groups() {
        let idx = index();
        let qs = vec![
            RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, 99), // all 4 shards
            RectQuery::new(vec![AttrRange::new(0, 2, 3)], 30, 40), // shard 1 only
        ];
        let groups = group_rects_by_shard(&idx, &qs);
        assert_eq!(groups.len(), 4);
        let (sid, shard1) = &groups[1];
        assert_eq!((*sid, shard1.len(), shard1[0].0), (1, 2, 0));
        assert_eq!(
            shard1[1],
            (1, RectQuery::new(vec![AttrRange::new(0, 2, 3)], 5, 15))
        );
        assert_eq!(
            groups[2],
            (
                2,
                vec![(0, RectQuery::new(vec![AttrRange::new(0, 0, 1)], 0, 24))]
            )
        );
    }

    #[test]
    fn empty_batches_produce_no_groups() {
        let idx = index();
        assert!(group_cells_by_shard(&idx, &[]).is_empty());
        assert!(group_rects_by_shard(&idx, &[]).is_empty());
    }
}
