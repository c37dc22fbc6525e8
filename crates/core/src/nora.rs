//! NORA — Non-Obvious Relationship Analysis (§III–IV's motivating
//! application).
//!
//! The paper's real-world anchor is a LexisNexis insurance pipeline:
//! 40+ TB of public records boiled weekly into a person–address graph,
//! where the valuable queries are "relationships between people, such as
//! 'who has shared an address with what other individuals 2 or more
//! times, especially if they have shared a common last name'" — a
//! computation "close to the Jaccard coefficient kernel".
//!
//! The proprietary data is substituted (see DESIGN.md) with a
//! controlled synthetic world: households (innocent address sharing),
//! movers (people with several addresses), and planted **fraud rings**
//! (groups cycling through the same address set — the ground truth the
//! relationship search should surface). Both paper modes exist:
//!
//! * [`boil`] — the weekly batch: find all related pairs
//!   ([`relationships`], on the Jaccard kernel's all-pairs engine),
//!   attach scores, and return the precomputed answer set.
//! * [`QuoteServer`] — the real-time side: per-applicant relationship
//!   queries against the live graph ([`jaccard::two_hop`], the
//!   latency-sensitive path the paper wants streaming systems to serve),
//!   plus incremental record ingest with threshold events.
//!
//! The tests keep the hash-map wedge search as the oracle of both.

use ga_graph::dynamic::ApplyResult;
use ga_graph::{snapshot, DynamicGraph, Parallelism, VertexId};
use ga_kernels::{jaccard, KernelCtx};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// A person–address co-residence record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Residence {
    /// Person id (0..num_people).
    pub person: u32,
    /// Address id (0..num_addresses).
    pub address: u32,
    /// Year the residence started (the edge timestamp).
    pub year: u16,
}

/// The synthetic world with ground truth.
#[derive(Clone, Debug)]
pub struct NoraWorld {
    /// Number of people.
    pub num_people: usize,
    /// Number of addresses.
    pub num_addresses: usize,
    /// Last-name id per person (shared within families/rings).
    pub last_name: Vec<u16>,
    /// All residence records.
    pub residences: Vec<Residence>,
    /// Planted fraud rings (each a set of person ids that share ≥2
    /// addresses).
    pub rings: Vec<Vec<u32>>,
}

/// World-generation knobs.
#[derive(Clone, Copy, Debug)]
pub struct NoraParams {
    /// People in the world.
    pub num_people: usize,
    /// Addresses in the world.
    pub num_addresses: usize,
    /// Mean addresses per ordinary person.
    pub moves_per_person: f64,
    /// Number of planted fraud rings.
    pub num_rings: usize,
    /// People per ring.
    pub ring_size: usize,
    /// Addresses each ring cycles through (≥2 so members co-occur
    /// repeatedly).
    pub ring_addresses: usize,
}

impl Default for NoraParams {
    fn default() -> Self {
        NoraParams {
            num_people: 2000,
            num_addresses: 1200,
            moves_per_person: 2.0,
            num_rings: 8,
            ring_size: 4,
            ring_addresses: 3,
        }
    }
}

impl NoraWorld {
    /// Generate a world.
    pub fn generate(p: NoraParams, seed: u64) -> NoraWorld {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let num_names = (p.num_people / 6).max(4);
        let mut last_name: Vec<u16> = (0..p.num_people)
            .map(|_| rng.gen_range(0..num_names) as u16)
            .collect();
        let mut residences = Vec::new();
        // Ordinary people move between random addresses.
        for person in 0..p.num_people as u32 {
            let moves = 1 + rng.gen_range(0..=(2.0 * p.moves_per_person) as usize);
            for _ in 0..moves {
                residences.push(Residence {
                    person,
                    address: rng.gen_range(0..p.num_addresses) as u32,
                    year: 1990 + rng.gen_range(0..30) as u16,
                });
            }
        }
        // Planted rings: disjoint groups of people cycling through the
        // same small address set; ring members share a last name half
        // the time ("especially if they have shared a common last name").
        let mut rings = Vec::new();
        let mut next_person = 0u32;
        for ring_idx in 0..p.num_rings {
            let members: Vec<u32> = (0..p.ring_size)
                .map(|_| {
                    let m = next_person;
                    next_person += 1;
                    m
                })
                .collect();
            let shared_name = rng.gen_range(0..num_names) as u16;
            let ring_addrs: Vec<u32> = (0..p.ring_addresses)
                .map(|_| rng.gen_range(0..p.num_addresses) as u32)
                .collect();
            for &m in &members {
                if ring_idx % 2 == 0 {
                    last_name[m as usize] = shared_name;
                }
                for &a in &ring_addrs {
                    residences.push(Residence {
                        person: m,
                        address: a,
                        year: 2010 + rng.gen_range(0..10) as u16,
                    });
                }
            }
            rings.push(members);
        }
        NoraWorld {
            num_people: p.num_people,
            num_addresses: p.num_addresses,
            last_name,
            residences,
            rings,
        }
    }

    /// Vertex id of a person in the bipartite graph.
    fn person_vertex(&self, person: u32) -> VertexId {
        person
    }

    /// Vertex id of an address in the bipartite graph.
    fn address_vertex(&self, address: u32) -> VertexId {
        self.num_people as VertexId + address
    }

    /// Build the bipartite person–address [`DynamicGraph`] (symmetric
    /// edges; timestamps = residence year).
    pub fn build_graph(&self) -> DynamicGraph {
        let mut g = DynamicGraph::new(self.num_people + self.num_addresses);
        for r in &self.residences {
            let (pv, av) = (self.person_vertex(r.person), self.address_vertex(r.address));
            g.insert_edge(pv, av, 1.0, r.year as u64);
            g.insert_edge(av, pv, 1.0, r.year as u64);
        }
        g
    }
}

/// A discovered relationship.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Relationship {
    /// The pair (a < b).
    pub a: u32,
    /// Second person.
    pub b: u32,
    /// Number of distinct shared addresses.
    pub shared_addresses: u32,
    /// Do they share a last name?
    pub same_last_name: bool,
    /// NORA score: shared count, +50 % when the last name matches.
    pub score: f64,
}

fn score(shared: u32, same_name: bool) -> f64 {
    shared as f64 * if same_name { 1.5 } else { 1.0 }
}

/// Instrumentation from a relationship search.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoraStats {
    /// Person-at-address pairs enumerated.
    pub pair_candidates: u64,
    /// Relationships emitted.
    pub relationships: u64,
}

/// Find all pairs of people sharing at least `min_shared` distinct
/// addresses, best score first. NORA's query is "close to the Jaccard
/// coefficient kernel", and runs on it: the person rows are frozen,
/// address vertices with empty out-rows, and [`jaccard::pairs_sharing`]
/// counts each pair's common addresses once, from the wedges
/// `p – address – q`.
pub fn relationships(
    world: &NoraWorld,
    g: &DynamicGraph,
    min_shared: u32,
) -> (Vec<Relationship>, NoraStats) {
    let people = world.num_people as VertexId;
    let person_row = |v: VertexId| if v < people { g.row_slots(v) } else { &[] };
    // Every residence is stored both ways, so the person rows hold half.
    let edges = g.num_live_edges() / 2;
    let frozen = snapshot::freeze(g.num_vertices(), edges, person_row, Parallelism::Auto);
    let pairs = jaccard::pairs_sharing(&frozen, min_shared, &KernelCtx::default());
    let out = ranked(world, pairs.into_iter());
    let pair_candidates = (0..world.num_addresses as u32)
        .map(|a| g.degree(world.address_vertex(a)) as u64)
        .map(|d| d * d.saturating_sub(1) / 2)
        .sum();
    let stats = NoraStats {
        pair_candidates,
        relationships: out.len() as u64,
    };
    (out, stats)
}

/// Relationships of the person pairs `(a, b, shared addresses)`, `a < b`,
/// best score first, ties by pair.
fn ranked(world: &NoraWorld, pairs: impl Iterator<Item = (u32, u32, u32)>) -> Vec<Relationship> {
    let mut out: Vec<Relationship> = pairs
        .map(|(a, b, shared)| {
            let same = world.last_name[a as usize] == world.last_name[b as usize];
            Relationship {
                a,
                b,
                shared_addresses: shared,
                same_last_name: same,
                score: score(shared, same),
            }
        })
        .collect();
    out.sort_by(|x, y| {
        y.score
            .total_cmp(&x.score)
            .then((x.a, x.b).cmp(&(y.a, y.b)))
    });
    out
}

/// The weekly batch "boil": all relationships with ≥2 shared addresses,
/// precomputed for later constant-time lookup.
pub struct BoilResult {
    /// All qualifying relationships, best score first.
    pub relationships: Vec<Relationship>,
    /// Per-person index into precomputed answers.
    pub by_person: HashMap<u32, Vec<usize>>,
    /// Search instrumentation.
    pub stats: NoraStats,
}

/// Run the batch boil.
pub fn boil(world: &NoraWorld, g: &DynamicGraph) -> BoilResult {
    let (relationships, stats) = self::relationships(world, g, 2);
    let mut by_person: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, r) in relationships.iter().enumerate() {
        by_person.entry(r.a).or_default().push(i);
        by_person.entry(r.b).or_default().push(i);
    }
    BoilResult {
        relationships,
        by_person,
        stats,
    }
}

impl BoilResult {
    /// Precomputed answers for one applicant.
    pub fn lookup(&self, person: u32) -> Vec<&Relationship> {
        self.by_person
            .get(&person)
            .map(|idx| idx.iter().map(|&i| &self.relationships[i]).collect())
            .unwrap_or_default()
    }

    /// Fraction of planted ring pairs surfaced (ground-truth recall).
    pub fn ring_recall(&self, world: &NoraWorld) -> f64 {
        let mut total = 0usize;
        let mut found = 0usize;
        for ring in &world.rings {
            for (i, &a) in ring.iter().enumerate() {
                for &b in &ring[i + 1..] {
                    total += 1;
                    let key = (a.min(b), a.max(b));
                    if self.relationships.iter().any(|r| (r.a, r.b) == key) {
                        found += 1;
                    }
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            found as f64 / total as f64
        }
    }
}

/// The real-time side: live per-applicant queries plus streaming record
/// ingest — "one stream would be updates to the persistent graph...
/// the second type of streaming would take a sequence of applicants and
/// compute in real-time whatever relationships are relevant."
pub struct QuoteServer {
    world: NoraWorld,
    graph: DynamicGraph,
    /// Relationship-strength threshold for ingest events.
    pub alert_threshold: f64,
    /// Queries served.
    pub queries: usize,
}

impl QuoteServer {
    /// Server over a freshly built world graph.
    pub fn new(world: NoraWorld) -> Self {
        let graph = world.build_graph();
        QuoteServer {
            world,
            graph,
            alert_threshold: 3.0,
            queries: 0,
        }
    }

    /// The live graph (exposed for latency benchmarks).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Real-time applicant query: all relationships of `person` with at
    /// least `min_shared` shared addresses, computed on the live graph
    /// (no staleness — the advantage §III credits streaming with). An id
    /// outside the world's people has none.
    pub fn quote(&mut self, person: u32, min_shared: u32) -> Vec<Relationship> {
        if person as usize >= self.world.num_people {
            return Vec::new();
        }
        self.queries += 1;
        let g = &self.graph;
        let hits = jaccard::two_hop(person, |v| g.neighbor_ids(v), |n, _| n >= min_shared);
        let pairs = hits
            .into_iter()
            .map(|(q, n, _)| (person.min(q), person.max(q), n));
        ranked(&self.world, pairs)
    }

    /// Streaming ingest of a new residence record. Returns any
    /// relationship that crossed the alert threshold because of it (the
    /// "test of some sort that, if passed, may trigger larger
    /// computations"). A record naming a person or address outside the
    /// world is refused: nothing changes and nothing is returned.
    pub fn ingest(&mut self, r: Residence) -> Vec<Relationship> {
        let world = &self.world;
        if r.person as usize >= world.num_people || r.address as usize >= world.num_addresses {
            return Vec::new();
        }
        let (pv, av) = (
            world.person_vertex(r.person),
            world.address_vertex(r.address),
        );
        let added = self.graph.insert_edge(pv, av, 1.0, r.year as u64) == ApplyResult::Inserted;
        self.graph.insert_edge(av, pv, 1.0, r.year as u64);
        self.world.residences.push(r);
        // A refreshed residence changes no count. A new one adds one shared
        // address to each pair with a person already at it, and changes no
        // other pair; one that shared nothing before had no relationship.
        if !added {
            return Vec::new();
        }
        let threshold = self.alert_threshold;
        let mut alerts = self.quote(r.person, 1);
        alerts.retain(|rel| {
            let other = if rel.a == r.person { rel.b } else { rel.a };
            let was = rel.shared_addresses - 1;
            rel.score >= threshold
                && self.graph.has_edge(av, other)
                && (was == 0 || score(was, rel.same_last_name) < threshold)
        });
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hash-map search over every wedge: the oracle for the pairs,
    /// counts, scores and order `relationships` returns.
    fn relationships_by_hash(
        world: &NoraWorld,
        g: &DynamicGraph,
        min_shared: u32,
    ) -> (Vec<Relationship>, NoraStats) {
        let mut stats = NoraStats::default();
        let mut shared: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for addr in 0..world.num_addresses as u32 {
            let av = world.address_vertex(addr);
            let people: Vec<u32> = g.neighbor_ids(av).collect();
            for (i, &p) in people.iter().enumerate() {
                for &q in &people[i + 1..] {
                    stats.pair_candidates += 1;
                    let key = (p.min(q), p.max(q));
                    let addrs = shared.entry(key).or_default();
                    if !addrs.contains(&addr) {
                        addrs.push(addr);
                    }
                }
            }
        }
        let mut out: Vec<Relationship> = shared
            .into_iter()
            .filter(|(_, addrs)| addrs.len() as u32 >= min_shared)
            .map(|((a, b), addrs)| {
                let same = world.last_name[a as usize] == world.last_name[b as usize];
                Relationship {
                    a,
                    b,
                    shared_addresses: addrs.len() as u32,
                    same_last_name: same,
                    score: score(addrs.len() as u32, same),
                }
            })
            .collect();
        out.sort_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .unwrap()
                .then((x.a, x.b).cmp(&(y.a, y.b)))
        });
        stats.relationships = out.len() as u64;
        (out, stats)
    }

    /// One applicant's hash-map wedge walk: the oracle for `quote`.
    fn quote_by_hash(
        world: &NoraWorld,
        g: &DynamicGraph,
        person: u32,
        k: u32,
    ) -> Vec<Relationship> {
        let pv = world.person_vertex(person);
        let mut shared: HashMap<u32, Vec<u32>> = HashMap::new();
        for av in g.neighbor_ids(pv) {
            let addr = av - world.num_people as u32;
            for q in g.neighbor_ids(av) {
                if q != person {
                    let entry = shared.entry(q).or_default();
                    if !entry.contains(&addr) {
                        entry.push(addr);
                    }
                }
            }
        }
        let mut out: Vec<Relationship> = shared
            .into_iter()
            .filter(|(_, addrs)| addrs.len() as u32 >= k)
            .map(|(q, addrs)| {
                let same = world.last_name[person as usize] == world.last_name[q as usize];
                Relationship {
                    a: person.min(q),
                    b: person.max(q),
                    shared_addresses: addrs.len() as u32,
                    same_last_name: same,
                    score: score(addrs.len() as u32, same),
                }
            })
            .collect();
        out.sort_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .unwrap()
                .then((x.a, x.b).cmp(&(y.a, y.b)))
        });
        out
    }

    /// Ingest by quoting before and after the insert and keeping the
    /// pairs that reached the threshold in between: the oracle for
    /// `ingest`'s single quote.
    fn ingest_two_quotes(server: &mut QuoteServer, r: Residence) -> Vec<Relationship> {
        let world = &server.world;
        let (pv, av) = (
            world.person_vertex(r.person),
            world.address_vertex(r.address),
        );
        let before = quote_by_hash(world, &server.graph, r.person, 1);
        server.graph.insert_edge(pv, av, 1.0, r.year as u64);
        server.graph.insert_edge(av, pv, 1.0, r.year as u64);
        server.world.residences.push(r);
        let after = quote_by_hash(&server.world, &server.graph, r.person, 1);
        let t = server.alert_threshold;
        after
            .into_iter()
            .filter(|rel| {
                rel.score >= t
                    && !before
                        .iter()
                        .any(|o| (o.a, o.b) == (rel.a, rel.b) && o.score >= t)
            })
            .collect()
    }

    /// Every field, the score as bits.
    fn bits(rels: &[Relationship]) -> Vec<(u32, u32, u32, bool, u64)> {
        rels.iter()
            .map(|r| {
                (
                    r.a,
                    r.b,
                    r.shared_addresses,
                    r.same_last_name,
                    r.score.to_bits(),
                )
            })
            .collect()
    }

    /// The default world with `f` times the people, addresses and rings.
    fn scaled(f: usize) -> NoraParams {
        let d = NoraParams::default();
        NoraParams {
            num_people: d.num_people * f,
            num_addresses: d.num_addresses * f,
            num_rings: d.num_rings * f,
            ..d
        }
    }

    #[test]
    fn relationships_and_quotes_match_the_hash_oracle() {
        for f in [1, 8] {
            for seed in 0..5 {
                let w = NoraWorld::generate(scaled(f), seed);
                let g = w.build_graph();
                for k in 1..=3 {
                    let tag = format!("x{f} seed {seed} k {k}");
                    let (rels, stats) = relationships(&w, &g, k);
                    let (want, want_stats) = relationships_by_hash(&w, &g, k);
                    assert_eq!(bits(&rels), bits(&want), "{tag}");
                    assert_eq!(stats.pair_candidates, want_stats.pair_candidates, "{tag}");
                    assert_eq!(stats.relationships, want_stats.relationships, "{tag}");
                }
                let b = boil(&w, &g);
                assert_eq!(b.ring_recall(&w), 1.0, "x{f} seed {seed}");
                let mut server = QuoteServer::new(w.clone());
                for person in (0..w.num_people as u32).step_by(7 * f) {
                    for k in 1..=3 {
                        let want = quote_by_hash(&w, &g, person, k);
                        assert_eq!(bits(&server.quote(person, k)), bits(&want), "p {person}");
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_ids_are_refused() {
        let w = NoraWorld::generate(NoraParams::default(), 7);
        let (people, addresses) = (w.num_people as u32, w.num_addresses as u32);
        let mut server = QuoteServer::new(w);
        let (edges, records) = (server.graph.num_live_edges(), server.world.residences.len());
        let version = server.graph.version();
        for (person, address) in [(people, 5), (people + 1, 0), (3, addresses), (3, u32::MAX)] {
            let r = Residence {
                person,
                address,
                year: 2024,
            };
            assert!(server.ingest(r).is_empty(), "{r:?}");
        }
        assert!(server.quote(people, 1).is_empty());
        assert!(server.quote(people + 1, 1).is_empty());
        assert_eq!(server.graph.num_live_edges(), edges);
        assert_eq!(server.graph.version(), version);
        assert_eq!(server.world.residences.len(), records);
    }

    #[test]
    fn one_quote_ingest_matches_the_two_quote_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut stream: Vec<Residence> = Vec::new();
        for i in 0..600 {
            // One record in five repeats an earlier one with a new year.
            let r = match stream.len() {
                n if n > 0 && i % 5 == 0 => Residence {
                    year: 2030,
                    ..stream[rng.gen_range(0..n)]
                },
                _ => Residence {
                    person: rng.gen_range(0..40),
                    address: rng.gen_range(0..30),
                    year: 2025,
                },
            };
            stream.push(r);
        }
        // The default threshold, and 0, where every new pair alerts.
        for threshold in [3.0, 0.0] {
            let w = small_world();
            let (mut fast, mut slow) = (QuoteServer::new(w.clone()), QuoteServer::new(w));
            (fast.alert_threshold, slow.alert_threshold) = (threshold, threshold);
            let (mut alerts, mut repeats) = (0, 0);
            for &r in &stream {
                let av = fast.world.address_vertex(r.address);
                repeats += fast.graph.has_edge(r.person, av) as usize;
                let got = fast.ingest(r);
                assert_eq!(bits(&got), bits(&ingest_two_quotes(&mut slow, r)), "{r:?}");
                alerts += got.len();
            }
            let tag = format!("threshold {threshold}: alerts {alerts}, repeats {repeats}");
            assert!(alerts > 20 && repeats > 100, "{tag}");
            assert_eq!(fast.world.residences, slow.world.residences, "{tag}");
            let edges = |s: &QuoteServer| s.graph.edges().collect::<Vec<_>>();
            assert_eq!(edges(&fast), edges(&slow), "{tag}");
        }
    }

    fn small_world() -> NoraWorld {
        NoraWorld::generate(
            NoraParams {
                num_people: 400,
                num_addresses: 300,
                moves_per_person: 1.5,
                num_rings: 4,
                ring_size: 3,
                ring_addresses: 3,
                // ring members 0..12
            },
            42,
        )
    }

    #[test]
    fn world_generation_shape() {
        let w = small_world();
        assert_eq!(w.rings.len(), 4);
        assert_eq!(w.last_name.len(), 400);
        assert!(w.residences.len() > 400);
        // Deterministic.
        let w2 = NoraWorld::generate(
            NoraParams {
                num_people: 400,
                num_addresses: 300,
                moves_per_person: 1.5,
                num_rings: 4,
                ring_size: 3,
                ring_addresses: 3,
            },
            42,
        );
        assert_eq!(w.residences, w2.residences);
    }

    #[test]
    fn boil_finds_planted_rings() {
        let w = small_world();
        let g = w.build_graph();
        let b = boil(&w, &g);
        assert!(
            b.ring_recall(&w) >= 0.99,
            "ring recall {}",
            b.ring_recall(&w)
        );
        // Ring pairs share >= 2 addresses by construction; their scores
        // must reflect it.
        for ring in &w.rings {
            let rels = b.lookup(ring[0]);
            assert!(
                rels.iter()
                    .any(|r| ring.contains(&r.a) && ring.contains(&r.b)),
                "ring member {} has no ring relationship",
                ring[0]
            );
        }
    }

    #[test]
    fn shared_name_boosts_score() {
        let w = small_world();
        let g = w.build_graph();
        let (rels, _) = relationships(&w, &g, 2);
        for r in &rels {
            let base = r.shared_addresses as f64;
            if r.same_last_name {
                assert_eq!(r.score, base * 1.5);
            } else {
                assert_eq!(r.score, base);
            }
        }
    }

    #[test]
    fn quote_matches_boil() {
        let w = small_world();
        let g = w.build_graph();
        let b = boil(&w, &g);
        let mut server = QuoteServer::new(w);
        // Ring member 0's live answers equal the precomputed ones.
        let live = server.quote(0, 2);
        let precomputed = b.lookup(0);
        assert_eq!(live.len(), precomputed.len());
        for rel in &live {
            assert!(
                precomputed
                    .iter()
                    .any(|p| (p.a, p.b) == (rel.a, rel.b)
                        && p.shared_addresses == rel.shared_addresses),
                "live rel {rel:?} not in boil"
            );
        }
    }

    #[test]
    fn ingest_triggers_threshold_alert() {
        let w = NoraWorld::generate(
            NoraParams {
                num_people: 50,
                num_addresses: 40,
                moves_per_person: 0.0,
                num_rings: 0,
                ring_size: 0,
                ring_addresses: 0,
                // clean world: we plant the relationship by hand
            },
            7,
        );
        let mut server = QuoteServer::new(w);
        server.alert_threshold = 2.0;
        // Persons 10 and 11 successively share two addresses.
        assert!(server
            .ingest(Residence {
                person: 10,
                address: 5,
                year: 2020
            })
            .is_empty());
        assert!(server
            .ingest(Residence {
                person: 11,
                address: 5,
                year: 2020
            })
            .is_empty()); // 1 shared address: below threshold
        server.ingest(Residence {
            person: 10,
            address: 6,
            year: 2021,
        });
        let alerts = server.ingest(Residence {
            person: 11,
            address: 6,
            year: 2021,
        });
        assert_eq!(alerts.len(), 1, "alerts: {alerts:?}");
        assert_eq!(
            (alerts[0].a, alerts[0].b, alerts[0].shared_addresses),
            (10, 11, 2)
        );
        // Re-ingesting the same record doesn't re-alert.
        let again = server.ingest(Residence {
            person: 11,
            address: 6,
            year: 2022,
        });
        assert!(again.is_empty(), "{again:?}");
    }

    #[test]
    fn quote_reflects_fresh_updates_immediately() {
        let w = small_world();
        let mut server = QuoteServer::new(w);
        let before = server.quote(100, 1).len();
        // Move person 100 in with person 101 twice.
        for addr in [200, 201] {
            for p in [100, 101] {
                server.ingest(Residence {
                    person: p,
                    address: addr,
                    year: 2024,
                });
            }
        }
        let after = server.quote(100, 2);
        assert!(after.iter().any(|r| (r.a, r.b) == (100, 101)));
        assert!(!after.is_empty() && server.quote(100, 1).len() >= before);
    }
}
