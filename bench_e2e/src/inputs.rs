//! Seeded input generation. The program under test receives only what
//! these functions return; the seed never reaches it.

use ga_graph::VertexId;
use ga_stream::update::{into_batches, rmat_edge_stream, Update, UpdateBatch};
use ga_stream::Query;

/// Updates per batch in every ingest workload.
pub const BATCH: usize = 512;

/// Property column the update stream writes and the queries read.
pub const PROP: &str = "w";

/// splitmix64: the benchmark's own deterministic stream, so query and
/// seed choices do not depend on the repo's vendored `rand`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// R-MAT update stream over `2^scale` vertices with the benchmark's mix:
/// 85 % edge inserts, 5 % deletes of live edges, 10 % `PropertySet "w"`
/// (one after every nine edge updates), cut into [`BATCH`]-sized batches
/// with timestamps `1, 2, ...`.
pub fn update_batches(scale: u32, total: usize, seed: u64) -> Vec<UpdateBatch> {
    let n = 1u64 << scale;
    let edge_updates = total - total / 10;
    let edges = rmat_edge_stream(scale, edge_updates, 5.0 / 90.0, seed);
    let mut rng = seed ^ 0x70f0_70f0;
    let mut updates = Vec::with_capacity(total);
    for (i, u) in edges.into_iter().enumerate() {
        updates.push(u);
        if i % 9 == 8 && updates.len() < total {
            let r = splitmix(&mut rng);
            updates.push(Update::PropertySet {
                vertex: (r % n) as VertexId,
                name: PROP.into(),
                value: ((r >> 32) % 1000) as f64,
            });
        }
    }
    into_batches(updates, BATCH, 1)
}

/// Number of updates in `batches`.
pub fn count_updates(batches: &[UpdateBatch]) -> usize {
    batches.iter().map(|b| b.updates.len()).sum()
}

/// Query classes of the serving mix; also the index into per-class tallies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `Degree` / `Neighbors{16}` / `GetProperty`, High tenant.
    Point = 0,
    /// `KHop{2, limit 64}`, High tenant.
    KHop = 1,
    /// `TopKByProperty{8}`, Bulk tenant.
    TopK = 2,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Point, Class::KHop, Class::TopK];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::KHop => "khop",
            Class::TopK => "topk",
        }
    }
}

/// The serving mix: 70 % point, 29 % two-hop, 1 % top-k scan.
pub fn query_mix(count: usize, num_vertices: u32, seed: u64) -> Vec<(Class, Query)> {
    let mut rng = seed ^ 0x9e37_0001;
    (0..count)
        .map(|_| {
            let r = splitmix(&mut rng);
            let vertex = ((r >> 16) % u64::from(num_vertices)) as VertexId;
            match r % 100 {
                0..=69 => {
                    let q = match (r >> 8) % 3 {
                        0 => Query::Degree { vertex },
                        1 => Query::Neighbors { vertex, limit: 16 },
                        _ => Query::get_property(vertex, PROP),
                    };
                    (Class::Point, q)
                }
                70..=98 => (
                    Class::KHop,
                    Query::KHop {
                        vertex,
                        hops: 2,
                        limit: 64,
                    },
                ),
                _ => (Class::TopK, Query::top_k_by_property(PROP, 8)),
            }
        })
        .collect()
}

/// `count` seed vertices drawn (with replacement) from `pool`.
pub fn seed_vertices(rng: &mut u64, count: usize, pool: &[VertexId]) -> Vec<VertexId> {
    (0..count)
        .map(|_| pool[(splitmix(rng) % pool.len() as u64) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_the_mix_is_as_stated() {
        let a = update_batches(10, 10_000, 5);
        let b = update_batches(10, 10_000, 5);
        assert_eq!(count_updates(&a), 10_000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.updates == y.updates));
        assert_ne!(a[0].updates, update_batches(10, 10_000, 6)[0].updates);
        let props = a
            .iter()
            .flat_map(|b| &b.updates)
            .filter(|u| matches!(u, Update::PropertySet { .. }))
            .count();
        assert_eq!(props, 1_000);
        // Batch times strictly increase: none is quarantined as stale.
        assert!(a.windows(2).all(|w| w[0].time < w[1].time));

        let q = query_mix(10_000, 1 << 10, 5);
        assert_eq!(q, query_mix(10_000, 1 << 10, 5));
        let share = |c: Class| q.iter().filter(|(k, _)| *k == c).count() as f64 / 10_000.0;
        assert!((share(Class::Point) - 0.70).abs() < 0.02);
        assert!((share(Class::KHop) - 0.29).abs() < 0.02);
        assert!((share(Class::TopK) - 0.01).abs() < 0.005);
    }
}
