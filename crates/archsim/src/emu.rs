//! Fig. 5: the Emu migrating-thread architecture.
//!
//! "A mobile thread executes within some GC until it makes a memory
//! reference to a location not in the current nodelet. In such cases,
//! the GC hardware suspends the thread, packages up its internal state,
//! and sends it over the system's internal network to the correct
//! nodelet... The net result is that all memory references are local."
//!
//! [`EmuConfig`] + [`ThreadSim`] model the memory-side of that design: a global
//! address space block-cyclically interleaved across
//! `nodes × nodelets_per_node` nodelets. Workloads issue *real* memory
//! traces (pointer chases over real permutations, GUPS over real random
//! indices, BFS and Jaccard over real graphs), and the machine prices
//! each reference under one of two execution models:
//!
//! * [`ExecModel::Migrating`] — a non-local reference moves the thread:
//!   one one-way packet of `thread_state_bytes`; every subsequent
//!   reference to the same nodelet is local. AMOs run at the memory
//!   controller. Fire-and-forget single-op remote threads cost one small
//!   packet and no reply.
//! * [`ExecModel::RemoteAccess`] — the conventional alternative: the
//!   thread stays put and every non-local reference is a request/
//!   response round trip (reads) or request/ack (atomics).
//!
//! The paper's §V-B claim — migrating threads "consume half or less the
//! bandwidth and latency of a conventional thread trying to do the same
//! thing" for pointer-chasing with atomic updates — falls out of the
//! accounting: chasing one list element needs ~3 references (next
//! pointer, payload, atomic counter), i.e. three round trips remotely
//! but a single one-way migration.

use crate::counters::TrafficReport;
use ga_graph::{CsrGraph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Machine configuration (sizes in bytes, times in nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct EmuConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Nodelets per node (8 in the Chick).
    pub nodelets_per_node: usize,
    /// Gossamer cores per nodelet (4 in the Chick).
    pub gcs_per_nodelet: usize,
    /// Concurrent threads per GC (64 in the Chick).
    pub threads_per_gc: usize,
    /// Words per block of the block-cyclic address interleave.
    pub interleave_words: u64,
    /// Local memory access latency (ns).
    pub local_access_ns: f64,
    /// One-way latency between nodelets on the same node (ns).
    pub intra_node_hop_ns: f64,
    /// One-way latency between nodes (ns).
    pub inter_node_hop_ns: f64,
    /// Thread-state packet size for a migration.
    pub thread_state_bytes: u64,
    /// Fire-and-forget single-op remote thread packet size.
    pub remote_op_bytes: u64,
    /// Remote-access request header size.
    pub req_bytes: u64,
    /// Remote-access response size (header + 8-byte datum).
    pub resp_bytes: u64,
    /// Aggregate interconnect bandwidth (bytes/s).
    pub network_bw: f64,
}

impl EmuConfig {
    /// The deskside Emu Chick: 8 nodes × 8 nodelets × 4 GCs × 64 threads.
    pub fn chick() -> Self {
        EmuConfig {
            nodes: 8,
            nodelets_per_node: 8,
            gcs_per_nodelet: 4,
            threads_per_gc: 64,
            interleave_words: 8,
            local_access_ns: 60.0,
            intra_node_hop_ns: 150.0,
            inter_node_hop_ns: 400.0,
            // Thread state: ~8 live registers + PC + status, two flits.
            thread_state_bytes: 72,
            // Single-op packet: opcode + address + operand + header.
            remote_op_bytes: 32,
            // Conventional RDMA-class transport headers (LRH+BTH+ICRC
            // class framing): ~30 B request, ~38 B response with datum.
            req_bytes: 30,
            resp_bytes: 38,
            network_bw: 8.0 * 2e9,
        }
    }

    /// Total nodelets.
    fn total_nodelets(&self) -> usize {
        self.nodes * self.nodelets_per_node
    }

    /// Total hardware thread contexts.
    pub fn total_threads(&self) -> usize {
        self.total_nodelets() * self.gcs_per_nodelet * self.threads_per_gc
    }

    /// Owning nodelet of a word address (block-cyclic).
    fn nodelet_of(&self, word_addr: u64) -> usize {
        ((word_addr / self.interleave_words) % self.total_nodelets() as u64) as usize
    }

    fn hop_ns(&self, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else if from / self.nodelets_per_node == to / self.nodelets_per_node {
            self.intra_node_hop_ns
        } else {
            self.inter_node_hop_ns
        }
    }
}

/// Which execution model prices the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecModel {
    /// Threads migrate to data (the Emu way).
    Migrating,
    /// Threads issue remote reads/atomics (the conventional way).
    RemoteAccess,
}

/// A thread's position plus the running cost account.
pub struct ThreadSim<'a> {
    cfg: &'a EmuConfig,
    model: ExecModel,
    /// Nodelet the thread currently executes on.
    pub position: usize,
    /// Accumulated report.
    pub report: TrafficReport,
}

impl<'a> ThreadSim<'a> {
    /// New thread homed at nodelet `home`.
    pub fn new(cfg: &'a EmuConfig, model: ExecModel, home: usize) -> Self {
        ThreadSim {
            cfg,
            model,
            position: home,
            report: TrafficReport::default(),
        }
    }

    /// One memory reference (read or write) to `word_addr`.
    pub fn access(&mut self, word_addr: u64) {
        let target = self.cfg.nodelet_of(word_addr);
        match self.model {
            ExecModel::Migrating => {
                if target != self.position {
                    let hop = self.cfg.hop_ns(self.position, target);
                    self.report.messages += 1;
                    self.report.bytes += self.cfg.thread_state_bytes;
                    self.report.total_latency_ns += hop;
                    self.position = target;
                }
                self.report.total_latency_ns += self.cfg.local_access_ns;
            }
            ExecModel::RemoteAccess => {
                if target != self.position {
                    let hop = self.cfg.hop_ns(self.position, target);
                    self.report.messages += 2;
                    self.report.bytes += self.cfg.req_bytes + self.cfg.resp_bytes;
                    self.report.total_latency_ns += 2.0 * hop + self.cfg.local_access_ns;
                } else {
                    self.report.total_latency_ns += self.cfg.local_access_ns;
                }
            }
        }
        self.report.ops += 1;
    }

    /// An atomic memory operation at `word_addr`. Under migration the
    /// AMO executes at the (now-local) memory controller; remotely it is
    /// a request/ack round trip.
    pub fn atomic(&mut self, word_addr: u64) {
        // Identical traffic accounting to a plain access in both models
        // (AMO ack == read response size); kept separate for clarity
        // and for workloads that want to count AMOs.
        self.access(word_addr);
    }

    /// Fire-and-forget single-op remote thread ("instructions may be
    /// invoked that launch tiny single-function threads to perform
    /// single operations at a target location"). Only meaningful under
    /// the migrating model; the remote model must fall back to an
    /// atomic round trip.
    fn remote_single_op(&mut self, word_addr: u64) {
        match self.model {
            ExecModel::Migrating => {
                let target = self.cfg.nodelet_of(word_addr);
                if target != self.position {
                    self.report.messages += 1;
                    self.report.bytes += self.cfg.remote_op_bytes;
                    // No reply: injection cost only; latency is off the
                    // issuing thread's critical path.
                }
                self.report.ops += 1;
            }
            ExecModel::RemoteAccess => self.atomic(word_addr),
        }
    }

    /// Finalize: wall estimate = max(bandwidth-bound, latency-bound /
    /// `parallel_threads` concurrent chains).
    pub fn finish(mut self, parallel_threads: usize) -> TrafficReport {
        let bw_time_ns = self.report.bytes as f64 / self.cfg.network_bw * 1e9;
        let lat_time_ns = self.report.total_latency_ns / parallel_threads.max(1) as f64;
        self.report.wall_ns = bw_time_ns.max(lat_time_ns);
        self.report
    }
}

/// Pointer-chase with atomic updates (the paper's example): a linked
/// list of `len` elements laid out as a seeded random permutation; per
/// element the thread reads the next pointer, reads the payload, and
/// atomically bumps the element's counter.
pub fn pointer_chase(cfg: &EmuConfig, model: ExecModel, len: usize, seed: u64) -> TrafficReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Random cycle over `len` slots, 4 words per element.
    let mut order: Vec<u64> = (0..len as u64).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut sim = ThreadSim::new(cfg, model, 0);
    for &slot in &order {
        let base = slot * 4;
        sim.access(base); // next pointer
        sim.access(base + 1); // payload
        sim.atomic(base + 2); // counter update
    }
    sim.finish(1) // a chase is inherently serial
}

/// GUPS-style random update: `updates` atomic increments into a table of
/// `table_words` words, spread over `threads` worker threads. The
/// migrating model issues fire-and-forget remote ops.
pub fn gups(
    cfg: &EmuConfig,
    model: ExecModel,
    table_words: u64,
    updates: usize,
    threads: usize,
    seed: u64,
) -> TrafficReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sim = ThreadSim::new(cfg, model, 0);
    for _ in 0..updates {
        let addr = rng.gen_range(0..table_words);
        sim.remote_single_op(addr);
    }
    sim.finish(threads)
}

/// BFS frontier expansion over a real graph: vertex v's adjacency lives
/// on `nodelet_of(adj_base(v))`; visiting v's edges means migrating (or
/// remote-reading) to that nodelet, then one reference per neighbor to
/// claim it (a CAS on `parent[n]`, owned by the neighbor's nodelet).
pub fn bfs_expand(cfg: &EmuConfig, model: ExecModel, g: &CsrGraph, src: VertexId) -> TrafficReport {
    let order = ga_kernels_bfs_order(g, src);
    let mut sim = ThreadSim::new(cfg, model, 0);
    for &u in &order {
        let adj_base = g.raw_offsets()[u as usize] + (g.num_vertices() as u64 * 2);
        match model {
            ExecModel::Migrating => {
                // Migrate once to u's adjacency; the list scan is then
                // local, and each neighbor is claimed with a
                // fire-and-forget single-op thread at its home nodelet.
                sim.access(adj_base);
                for &v in g.neighbors(u) {
                    sim.remote_single_op(v as u64 * 2);
                }
            }
            ExecModel::RemoteAccess => {
                // Remote reads fetch the adjacency 8 words at a time,
                // then one atomic round trip claims each neighbor.
                let deg = g.degree(u) as u64;
                for chunk in 0..deg.div_ceil(8) {
                    sim.access(adj_base + chunk * 8);
                }
                for &v in g.neighbors(u) {
                    sim.atomic(v as u64 * 2);
                }
            }
        }
    }
    // Frontier parallelism: bounded by hardware contexts and the mean
    // frontier width (approximate with sqrt(|order|) for skewed graphs).
    let par = (order.len() as f64).sqrt().ceil() as usize;
    sim.finish(par.min(cfg.total_threads()))
}

// The queue's visit order, kept here rather than taken from
// `ga_kernels::bfs`: the migrating model's price depends on the order
// within a level (each adjacency visit migrates unless the previous
// one left the thread on the same nodelet), and `bfs` returns depths
// and smallest-id parents, from which discovery order cannot be rebuilt
// past level 2. Ordering by (depth, id) instead moves the numbers: the
// scale-10 test's migrating run drops from 12 604 to 12 450 messages,
// and `fig5_emu`'s scale-14 one from 431 699 to 428 837.
fn ga_kernels_bfs_order(g: &CsrGraph, src: VertexId) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut q = std::collections::VecDeque::new();
    let mut order = Vec::new();
    if n == 0 {
        return order;
    }
    seen[src as usize] = true;
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                q.push_back(v);
            }
        }
    }
    order
}

/// One streaming Jaccard query (the §V-B "10s of microseconds" claim):
/// visit each neighbor's adjacency to accumulate shared-neighbor
/// counts — a 2-hop traversal with spawn parallelism up to the
/// neighbor count.
pub fn jaccard_query(
    cfg: &EmuConfig,
    model: ExecModel,
    g: &CsrGraph,
    v: VertexId,
) -> TrafficReport {
    let mut sim = ThreadSim::new(cfg, model, cfg.nodelet_of(v as u64 * 2));
    let nbrs = g.neighbors(v);
    for &w in nbrs {
        let adj_base = g.raw_offsets()[w as usize] + (g.num_vertices() as u64 * 2);
        sim.access(adj_base); // move to w's adjacency
        for &x in g.neighbors(w) {
            if x != v {
                sim.access(adj_base + 1 + x as u64 % 8); // scan entry
            }
        }
    }
    // Child threads fan out per neighbor ("a thread may also spawn a
    // child thread with as little as a single instruction").
    let par = match model {
        ExecModel::Migrating => nbrs.len().max(1),
        ExecModel::RemoteAccess => (nbrs.len() / 4).max(1), // software threads
    };
    sim.finish(par.min(cfg.total_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_graph::gen;

    fn cfg() -> EmuConfig {
        EmuConfig::chick()
    }

    #[test]
    fn address_map_is_block_cyclic() {
        let c = cfg();
        assert_eq!(c.total_nodelets(), 64);
        assert_eq!(c.nodelet_of(0), 0);
        assert_eq!(c.nodelet_of(7), 0); // same 8-word block
        assert_eq!(c.nodelet_of(8), 1);
        assert_eq!(c.nodelet_of(8 * 64), 0); // wraps
    }

    #[test]
    fn local_access_is_free_of_traffic() {
        let c = cfg();
        let mut sim = ThreadSim::new(&c, ExecModel::Migrating, 0);
        sim.access(0);
        sim.access(1); // same block
        assert_eq!(sim.report.messages, 0);
        assert_eq!(sim.report.bytes, 0);
        assert_eq!(sim.report.ops, 2);
    }

    #[test]
    fn migration_moves_thread_once() {
        let c = cfg();
        let mut sim = ThreadSim::new(&c, ExecModel::Migrating, 0);
        sim.access(8); // nodelet 1 -> migrate
        assert_eq!(sim.report.messages, 1);
        assert_eq!(sim.position, 1);
        sim.access(9); // now local
        assert_eq!(sim.report.messages, 1);
    }

    #[test]
    fn remote_access_never_moves() {
        let c = cfg();
        let mut sim = ThreadSim::new(&c, ExecModel::RemoteAccess, 0);
        sim.access(8);
        sim.access(9);
        assert_eq!(sim.position, 0);
        assert_eq!(sim.report.messages, 4); // two round trips
    }

    #[test]
    fn pointer_chase_half_or_less_bandwidth_and_latency() {
        let c = cfg();
        let mig = pointer_chase(&c, ExecModel::Migrating, 20_000, 7);
        let rem = pointer_chase(&c, ExecModel::RemoteAccess, 20_000, 7);
        let byte_ratio = mig.bytes as f64 / rem.bytes as f64;
        let lat_ratio = mig.total_latency_ns / rem.total_latency_ns;
        // The paper: "half or less the bandwidth and latency".
        assert!(byte_ratio <= 0.55, "byte ratio {byte_ratio}");
        assert!(lat_ratio <= 0.5, "latency ratio {lat_ratio}");
    }

    #[test]
    fn gups_fire_and_forget_wins_big() {
        let c = cfg();
        let mig = gups(&c, ExecModel::Migrating, 1 << 20, 100_000, 1024, 3);
        let rem = gups(&c, ExecModel::RemoteAccess, 1 << 20, 100_000, 1024, 3);
        assert!(mig.bytes < rem.bytes);
        assert!(
            mig.ops_per_sec() > 2.0 * rem.ops_per_sec(),
            "mig {} vs rem {}",
            mig.ops_per_sec(),
            rem.ops_per_sec()
        );
    }

    #[test]
    fn bfs_migrating_cheaper_on_rmat() {
        let c = cfg();
        let edges = gen::rmat(10, 8 << 10, gen::RmatParams::GRAPH500, 5);
        let g = CsrGraph::from_edges_undirected(1 << 10, &edges);
        let mig = bfs_expand(&c, ExecModel::Migrating, &g, 0);
        let rem = bfs_expand(&c, ExecModel::RemoteAccess, &g, 0);
        assert!(mig.bytes < rem.bytes, "mig {} rem {}", mig.bytes, rem.bytes);
        assert!(mig.wall_ns < rem.wall_ns);
    }

    #[test]
    fn jaccard_query_latency_tens_of_microseconds() {
        let c = cfg();
        let edges = gen::rmat(14, 16 << 14, gen::RmatParams::GRAPH500, 9);
        let g = CsrGraph::from_edges_undirected(1 << 14, &edges);
        // A mid-degree vertex; hubs are slower, leaves faster.
        let v = (0..g.num_vertices() as u32)
            .find(|&v| (8..64).contains(&g.degree(v)))
            .unwrap();
        let mig = jaccard_query(&c, ExecModel::Migrating, &g, v);
        let us = mig.wall_ns / 1000.0;
        assert!(
            (1.0..200.0).contains(&us),
            "expected tens of µs, got {us} µs"
        );
        let rem = jaccard_query(&c, ExecModel::RemoteAccess, &g, v);
        assert!(mig.wall_ns < rem.wall_ns);
    }

    #[test]
    fn deterministic_per_seed() {
        let c = cfg();
        let a = pointer_chase(&c, ExecModel::Migrating, 1000, 1);
        let b = pointer_chase(&c, ExecModel::Migrating, 1000, 1);
        assert_eq!(a, b);
    }
}
