//! The one serial/parallel knob, [`Parallelism`], shared by the batch
//! kernels and the snapshot pipeline.

/// How a parallelizable operation (kernel invocation, snapshot freeze)
/// should execute.
///
/// Defined here, in the storage crate, so both the batch kernels
/// (`ga-kernels` re-exports it) and the snapshot pipeline share one
/// knob.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Always the sequential engine.
    Serial,
    /// Always the rayon-parallel engine.
    Parallel,
    /// Parallel when the thread pool has more than one thread and the
    /// input is large enough to repay waking its workers (the default).
    #[default]
    Auto,
}

/// Inputs smaller than this stay serial under [`Parallelism::Auto`]: a
/// parallel phase wakes parked workers (5–50 µs). Measured break-evens
/// (EXPERIMENTS E20): freeze ≈10 k edges, compressed build ≈30 k.
pub const AUTO_WORK_CUTOFF: usize = 32_768;

impl Parallelism {
    /// Decide whether an operation facing roughly `work` units (edges)
    /// of work should take its parallel path.
    pub fn use_parallel(self, work: usize) -> bool {
        match self {
            Parallelism::Serial => false,
            Parallelism::Parallel => true,
            Parallelism::Auto => rayon::current_num_threads() > 1 && work >= AUTO_WORK_CUTOFF,
        }
    }
}
