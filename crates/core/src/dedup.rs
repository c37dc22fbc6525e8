//! Record deduplication / linkage — the ingest stage of Fig. 2.
//!
//! §III: "these graphs are initially created via some large batch
//! processing dedup processes that 'clean up' multiple data sets by
//! checking spelling, removing duplicates (*post-process deduping*),
//! identifying faulty or missing values... In a streaming form called
//! *in-line deduping*, once established, updates will be from streams of
//! incoming data."
//!
//! Implemented as the classic blocking + pairwise-similarity + union
//! pipeline (Christen 2012; Elmagarmid 2007 — the paper's refs \[15\],
//! \[17\]):
//!
//! 1. **generate** noisy person records with planted duplicates
//!    ([`generate_records`] keeps ground truth for scoring),
//! 2. **block** on a phonetic-ish key so only plausible pairs compare,
//! 3. **match** pairs by weighted field similarity (normalized
//!    Levenshtein),
//! 4. **merge** matches with union-find → entity clusters
//!    ([`dedup_batch`]),
//! 5. or, for streaming arrivals, match one record against its block's
//!    cluster representatives ([`InlineDeduper`]).

use ga_kernels::UnionFind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// One raw (possibly duplicated, possibly corrupted) input record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRecord {
    /// Record id (position in the input).
    pub id: u32,
    /// Given name.
    pub first: String,
    /// Family name.
    pub last: String,
    /// Street address string.
    pub address: String,
    /// Birth year.
    pub birth_year: u16,
    /// Ground-truth entity this record refers to (not used by the
    /// deduper; only for scoring).
    pub truth_entity: u32,
}

const FIRST_NAMES: &[&str] = &[
    "james",
    "mary",
    "robert",
    "patricia",
    "john",
    "jennifer",
    "michael",
    "linda",
    "david",
    "elizabeth",
    "william",
    "barbara",
    "richard",
    "susan",
    "joseph",
    "jessica",
    "thomas",
    "karen",
];
const LAST_NAMES: &[&str] = &[
    "smith",
    "johnson",
    "williams",
    "brown",
    "jones",
    "garcia",
    "miller",
    "davis",
    "rodriguez",
    "martinez",
    "hernandez",
    "lopez",
    "gonzalez",
    "wilson",
    "anderson",
    "thomas",
];
const STREETS: &[&str] = &[
    "oak st",
    "maple ave",
    "cedar ln",
    "pine rd",
    "elm dr",
    "birch ct",
    "walnut blvd",
    "chestnut way",
    "spruce ter",
    "willow pl",
];

/// Generate `num_records` noisy records describing `num_entities`
/// distinct people: each extra record duplicates a random entity with
/// typo probability `typo_rate` per field.
pub fn generate_records(
    num_entities: usize,
    num_records: usize,
    typo_rate: f64,
    seed: u64,
) -> Vec<RawRecord> {
    assert!(num_records >= num_entities);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Each true entity has clean field values.
    let entities: Vec<(String, String, String, u16)> = (0..num_entities)
        .map(|i| {
            (
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())].to_string(),
                LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())].to_string(),
                format!(
                    "{} {} #{i}",
                    rng.gen_range(1..999),
                    STREETS[rng.gen_range(0..STREETS.len())]
                ),
                1930 + rng.gen_range(0..70) as u16,
            )
        })
        .collect();
    let mut records = Vec::with_capacity(num_records);
    for id in 0..num_records {
        // First pass covers every entity once; extras duplicate randomly.
        let e = if id < num_entities {
            id
        } else {
            rng.gen_range(0..num_entities)
        };
        let (f, l, a, y) = &entities[e];
        let mut corrupt = |s: &str| -> String {
            if rng.gen::<f64>() < typo_rate {
                typo(s, &mut rng)
            } else {
                s.to_string()
            }
        };
        records.push(RawRecord {
            id: id as u32,
            first: corrupt(f),
            last: corrupt(l),
            address: corrupt(a),
            birth_year: *y,
            truth_entity: e as u32,
        });
    }
    records
}

fn typo(s: &str, rng: &mut impl Rng) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() < 2 {
        return s.to_string();
    }
    match rng.gen_range(0..3) {
        0 => {
            // transpose two adjacent characters
            let i = rng.gen_range(0..chars.len() - 1);
            chars.swap(i, i + 1);
        }
        1 => {
            // drop a character
            let i = rng.gen_range(0..chars.len());
            chars.remove(i);
        }
        _ => {
            // duplicate a character
            let i = rng.gen_range(0..chars.len());
            let c = chars[i];
            chars.insert(i, c);
        }
    }
    chars.into_iter().collect()
}

/// Normalized Levenshtein similarity in [0, 1].
pub fn similarity(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let (la, lb) = (a.chars().count(), b.chars().count());
    if la == 0 || lb == 0 {
        return 0.0;
    }
    let bv: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=lb).collect();
    let mut cur = vec![0usize; lb + 1];
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for j in 0..lb {
            let cost = usize::from(ca != bv[j]);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    1.0 - prev[lb] as f64 / la.max(lb) as f64
}

/// Blocking key: first two letters of the last name + birth decade.
/// Cheap, high-recall: typo'd duplicates usually share it.
fn block_key(r: &RawRecord) -> String {
    let prefix: String = r.last.chars().take(2).collect();
    format!("{}:{}", prefix, r.birth_year / 10)
}

/// Weighted field similarity of two records.
fn record_similarity(a: &RawRecord, b: &RawRecord) -> f64 {
    0.3 * similarity(&a.first, &b.first)
        + 0.3 * similarity(&a.last, &b.last)
        + 0.3 * similarity(&a.address, &b.address)
        + 0.1 * f64::from(a.birth_year == b.birth_year)
}

/// Result of a dedup pass.
#[derive(Clone, Debug)]
pub struct DedupResult {
    /// `entity_of[record_id]` = dense entity id.
    pub entity_of: Vec<u32>,
    /// Number of entities found.
    pub num_entities: usize,
    /// Pairwise comparisons performed (instrumentation — this is the
    /// compute demand the NORA model's "dedup/link" step prices).
    pub comparisons: usize,
}

impl DedupResult {
    /// Pairwise precision/recall against ground truth.
    pub fn score(&self, records: &[RawRecord]) -> (f64, f64) {
        let n = records.len();
        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        for i in 0..n {
            for j in (i + 1)..n {
                let same_found = self.entity_of[i] == self.entity_of[j];
                let same_truth = records[i].truth_entity == records[j].truth_entity;
                match (same_found, same_truth) {
                    (true, true) => tp += 1,
                    (true, false) => fp += 1,
                    (false, true) => fn_ += 1,
                    _ => {}
                }
            }
        }
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            1.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        (precision, recall)
    }
}

/// Post-process (batch) dedup: block, compare within blocks, union
/// matches above `threshold`.
pub fn dedup_batch(records: &[RawRecord], threshold: f64) -> DedupResult {
    let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        blocks.entry(block_key(r)).or_default().push(i);
    }
    let mut uf = UnionFind::new(records.len());
    let mut comparisons = 0;
    for members in blocks.values() {
        for (x, &i) in members.iter().enumerate() {
            for &j in &members[x + 1..] {
                comparisons += 1;
                if record_similarity(&records[i], &records[j]) >= threshold {
                    uf.union(i as u32, j as u32);
                }
            }
        }
    }
    let labels = uf.labels();
    // Densify entity ids.
    let mut dense: HashMap<u32, u32> = HashMap::new();
    let mut entity_of = Vec::with_capacity(records.len());
    for l in labels {
        let next = dense.len() as u32;
        entity_of.push(*dense.entry(l).or_insert(next));
    }
    DedupResult {
        num_entities: dense.len(),
        entity_of,
        comparisons,
    }
}

/// In-line (streaming) deduper: each arriving record is compared to the
/// representatives of its block and either joins an existing entity or
/// founds a new one.
pub struct InlineDeduper {
    threshold: f64,
    /// block key -> list of (entity id, representative record).
    blocks: HashMap<String, Vec<(u32, RawRecord)>>,
    next_entity: u32,
    /// Comparisons performed (instrumentation).
    pub comparisons: usize,
}

impl InlineDeduper {
    /// Deduper with the given match threshold.
    pub fn new(threshold: f64) -> Self {
        InlineDeduper {
            threshold,
            blocks: HashMap::new(),
            next_entity: 0,
            comparisons: 0,
        }
    }

    /// Entities founded so far.
    pub fn num_entities(&self) -> usize {
        self.next_entity as usize
    }

    /// Process one arriving record; returns its entity id.
    pub fn ingest(&mut self, r: &RawRecord) -> u32 {
        let key = block_key(r);
        let bucket = self.blocks.entry(key).or_default();
        let mut best: Option<(u32, f64)> = None;
        for (entity, repr) in bucket.iter() {
            self.comparisons += 1;
            let s = record_similarity(r, repr);
            if s >= self.threshold && best.is_none_or(|(_, bs)| s > bs) {
                best = Some((*entity, s));
            }
        }
        match best {
            Some((entity, _)) => entity,
            None => {
                let entity = self.next_entity;
                self.next_entity += 1;
                bucket.push((entity, r.clone()));
                entity
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn similarity_basics() {
        assert_eq!(similarity("smith", "smith"), 1.0);
        assert!(similarity("smith", "smyth") >= 0.8);
        assert!(similarity("smith", "garcia") < 0.4);
        assert_eq!(similarity("", "abc"), 0.0);
    }

    #[test]
    fn generator_covers_entities_and_is_deterministic() {
        let a = generate_records(50, 200, 0.2, 1);
        let b = generate_records(50, 200, 0.2, 1);
        assert_eq!(a, b);
        let mut seen: Vec<u32> = a.iter().map(|r| r.truth_entity).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn batch_dedup_recovers_entities() {
        let records = generate_records(60, 300, 0.15, 7);
        let result = dedup_batch(&records, 0.78);
        let (precision, recall) = result.score(&records);
        assert!(precision > 0.95, "precision {precision}");
        assert!(recall > 0.8, "recall {recall}");
        // Entity count in the right ballpark.
        assert!(
            (40..=90).contains(&result.num_entities),
            "entities {}",
            result.num_entities
        );
        assert!(result.comparisons > 0);
    }

    #[test]
    fn clean_duplicates_merge_exactly() {
        // No typos: dedup should find exactly the true entities.
        let records = generate_records(30, 120, 0.0, 3);
        let result = dedup_batch(&records, 0.9);
        let (precision, recall) = result.score(&records);
        assert!(precision > 0.98, "precision {precision}");
        assert_eq!(recall, 1.0);
    }

    #[test]
    fn blocking_limits_comparisons() {
        let records = generate_records(100, 400, 0.1, 5);
        let result = dedup_batch(&records, 0.8);
        let all_pairs = 400 * 399 / 2;
        assert!(
            result.comparisons < all_pairs / 3,
            "blocking didn't prune: {} of {all_pairs}",
            result.comparisons
        );
    }

    #[test]
    fn inline_matches_batch_entity_count_approximately() {
        let records = generate_records(40, 200, 0.1, 9);
        let batch = dedup_batch(&records, 0.78);
        let mut inline = InlineDeduper::new(0.78);
        for r in &records {
            inline.ingest(r);
        }
        let (b, i) = (batch.num_entities as f64, inline.num_entities() as f64);
        assert!((i - b).abs() / b < 0.35, "inline {i} vs batch {b} entities");
    }

    #[test]
    fn inline_duplicate_joins_existing_entity() {
        let mut d = InlineDeduper::new(0.8);
        let r1 = RawRecord {
            id: 0,
            first: "james".into(),
            last: "smith".into(),
            address: "12 oak st".into(),
            birth_year: 1960,
            truth_entity: 0,
        };
        let mut r2 = r1.clone();
        r2.id = 1;
        r2.first = "jmaes".into(); // transposition typo
        let e1 = d.ingest(&r1);
        let e2 = d.ingest(&r2);
        assert_eq!(e1, e2);
        let r3 = RawRecord {
            id: 2,
            first: "linda".into(),
            last: "smithers".into(),
            address: "99 pine rd".into(),
            birth_year: 1965,
            truth_entity: 1,
        };
        assert_ne!(d.ingest(&r3), e1);
    }
}
