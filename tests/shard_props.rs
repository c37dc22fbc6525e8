//! Property-based tests (vendored proptest) for the sharding layer:
//! hash-partition + ghost-edge routing must round-trip **slot-exactly**
//! — the union of shard-local graphs, ghosts resolved by taking each
//! vertex's row from its owner shard, is identical (live slots,
//! weights, timestamps and slot order) to the graph an unsharded engine
//! holds after the same update stream.

use ga_core::sharded::ShardedFlow;
use ga_stream::engine::StreamEngine;
use ga_stream::sharded::ShardPlan;
use ga_stream::update::{Update, UpdateBatch};
use proptest::prelude::*;

const N: u32 = 48;

/// Strategy: a random edit script over `N` vertices — (op, src, dst,
/// weight) where op 0 = insert, 1 = delete, 2 = property set.
fn edit_script() -> impl Strategy<Value = Vec<(u8, u32, u32, f32)>> {
    prop::collection::vec((0u8..3, 0u32..N, 0u32..N, 0.0f32..8.0), 0..150)
}

fn script_to_batches(script: &[(u8, u32, u32, f32)], batch: usize) -> Vec<UpdateBatch> {
    let updates: Vec<Update> = script
        .iter()
        .map(|&(op, u, v, w)| match op {
            0 => Update::EdgeInsert {
                src: u,
                dst: v,
                weight: w,
            },
            1 => Update::EdgeDelete { src: u, dst: v },
            _ => Update::PropertySet {
                vertex: u,
                name: format!("p{}", v % 4),
                value: w as f64,
            },
        })
        .collect();
    updates
        .chunks(batch.max(1))
        .enumerate()
        .map(|(i, chunk)| UpdateBatch {
            time: 1 + i as u64,
            updates: chunk.to_vec(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partition + ghost resolution round-trips for any edit script,
    /// shard count, batch size, and symmetrize setting: merged graph
    /// and props equal the unsharded engine's, slot-for-slot.
    #[test]
    fn hash_partition_round_trips_slot_exactly(
        (script, shards, batch, sym) in (edit_script(), 1usize..6, 1usize..40, 0u8..2)
    ) {
        let symmetrize = sym == 1;
        let mut reference = StreamEngine::new(N as usize);
        reference.symmetrize = symmetrize;
        let mut fleet = ShardedFlow::builder(shards)
            .symmetrize(symmetrize)
            .build(N as usize)
            .unwrap();
        for b in script_to_batches(&script, batch) {
            reference.apply_batch(&b);
            fleet.process_batch(&b).unwrap();
        }
        let merged = fleet.merged_graph();
        // DynamicGraph equality is content-based over the slot rows:
        // every live record's target, weight and timestamp counts.
        prop_assert_eq!(&merged, reference.graph());
        prop_assert_eq!(merged.num_live_edges(), reference.graph().num_live_edges());
        prop_assert_eq!(&fleet.merged_props(), reference.props());
    }

    /// Every update lands on its owner shard(s) and nowhere else, and
    /// the ghost count is exactly the number of cross-owner edge
    /// updates — the router's traffic accounting can't drift.
    #[test]
    fn routing_is_owner_exact((script, shards) in (edit_script(), 1usize..6)) {
        let plan = ShardPlan::new(shards);
        let batches = script_to_batches(&script, 32);
        for b in &batches {
            let (sub, ghosts, replicas) = plan.route_batch_replicated(b, false);
            prop_assert_eq!(replicas, 0);
            prop_assert_eq!(sub.len(), shards);
            let mut expect_ghosts = 0u64;
            let mut expect_total = 0usize;
            for u in &b.updates {
                match u {
                    Update::EdgeInsert { src, dst, .. } | Update::EdgeDelete { src, dst } => {
                        expect_total += 1;
                        if plan.owner(*src) != plan.owner(*dst) {
                            expect_ghosts += 1;
                            expect_total += 1;
                        }
                    }
                    Update::PropertySet { .. } => expect_total += 1,
                }
            }
            prop_assert_eq!(ghosts, expect_ghosts);
            let total: usize = sub.iter().map(|s| s.updates.len()).sum();
            prop_assert_eq!(total, expect_total);
            for s in &sub {
                prop_assert_eq!(s.time, b.time);
            }
        }
    }
}
