//! Fault injection, re-exported at the flow-engine level, plus the
//! seeded fault *matrices* the chaos suites iterate.
//!
//! The registry itself lives in [`ga_graph::faults`] (the bottom of the
//! dependency stack, so the WAL in `ga-stream`, the segment tier in
//! `ga-graph` and the checkpoint writer here can all reach it); this
//! module re-exports it and adds [`FaultPlan`], the one deterministic
//! seed → fault-scenario mapping driven by the `GA_FAULT_SEED`
//! environment variable in CI: three constructors (crash recovery, shard
//! failover, segment IO) over one row type.

pub use ga_graph::faults::{
    apply_delay, arm, check, clear_all, fired_count, injected, intercept, is_injected, with_scope,
    FaultMode, Intercept,
};

/// One point of a seeded chaos matrix: which site misbehaves, how, and
/// when. Three matrices share this one row type, each with its own
/// seeded constructor over [`MATRIX_SIZE`] scenarios:
///
/// * [`FaultPlan::crash`] — one durable engine, process-death crashes
///   (`tests/crash_recovery.rs`);
/// * [`FaultPlan::shard`] — one member of a live fleet faulted at a
///   shard-scoped site; the fleet must classify the error, fail over and
///   rebuild the member online — see [`crate::sharded::ShardSupervisor`]
///   (`tests/failover.rs`);
/// * [`FaultPlan::segment`] — segment-IO faults under a spill-forcing
///   RAM budget, no process death: the tier must retry transient errors,
///   quarantine (never decode) corruption, repair from a source of
///   truth, fall back to the pinned snapshot and trip its breaker when
///   the device keeps failing (`tests/tier_chaos.rs`).
///
/// Every matrix promises the same thing: zero acknowledged updates lost
/// and bit-identical results after recovery. Seeds beyond the matrix
/// wrap with a varied timing or magnitude (`wave`), so any
/// `GA_FAULT_SEED` value is valid and large seeds still add coverage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed this plan was derived from.
    pub seed: u64,
    /// Fault site to arm (`None` = clean crash / explicit kill, no
    /// injected I/O fault). Shard plans carry fully scoped names
    /// (`"shard-01/wal.append"`, see [`ga_graph::faults::with_scope`]):
    /// the fleet wraps each shard's durable I/O in its label's scope, so
    /// arming a scoped site faults exactly one shard.
    pub site: Option<String>,
    /// How the armed site misbehaves.
    pub mode: Option<FaultMode>,
    /// Crash matrix: abandon the engine after this many batches have
    /// been offered to the durable path. Shard matrix: arm the fault
    /// (and/or kill) after this many batches.
    pub after_batches: usize,
    /// Force a checkpoint right before that point (recovery from a
    /// just-written checkpoint, checkpoint-time faults, short WAL
    /// suffix on rebuild).
    pub checkpoint_first: bool,
    /// Durability retry budget the run should configure
    /// ([`crate::retry::RetryPolicy::max_retries`]). Zero except on the
    /// crash matrix's transient points 8–9, which set it high enough to
    /// ride out the fault; everything else keeps fail-fast semantics.
    pub retries: u32,
    /// Shard matrix: the targeted shard (derived from the seed, wrapped
    /// to the fleet size so every seed is valid for every shard count).
    pub shard: usize,
    /// Shard matrix: the driver kills the shard outright at the fault
    /// point (member death rather than an I/O fault).
    pub kill: bool,
}

/// Number of distinct scenarios each [`FaultPlan`] constructor generates
/// before wrapping (CI loops `GA_FAULT_SEED` over `0..MATRIX_SIZE`).
pub const MATRIX_SIZE: u64 = 10;

impl FaultPlan {
    /// Row `seed % MATRIX_SIZE` of a matrix, plus the wrap count that
    /// varies its timing or magnitude.
    fn row(seed: u64) -> (u64, u64) {
        (seed % MATRIX_SIZE, seed / MATRIX_SIZE % 3)
    }

    /// Crash-recovery scenario for `seed`.
    pub fn crash(seed: u64) -> FaultPlan {
        let (point, wave) = Self::row(seed);
        use FaultMode::*;
        let (site, mode, after_batches, checkpoint_first, retries) = match point {
            // Crash during a WAL append: the frame is vetoed entirely.
            0 => (Some("wal.append"), Some(FailOnce), 3, false, 0),
            // Crash mid-WAL-append: a torn frame of 5 bytes.
            1 => (Some("wal.append"), Some(ShortWrite(5)), 4, false, 0),
            // Torn frame that cuts inside the payload, not the header.
            2 => (Some("wal.append"), Some(ShortWrite(21)), 6, false, 0),
            // Checkpoint write fails outright; WAL must carry recovery.
            3 => (Some("checkpoint.write"), Some(FailOnce), 5, true, 0),
            // Checkpoint write is torn at the final path; recovery must
            // skip the corrupt file and fall back.
            4 => (Some("checkpoint.write"), Some(ShortWrite(64)), 5, true, 0),
            // Loading the newest checkpoint fails; recovery falls back
            // to an older one and replays more WAL.
            5 => (Some("checkpoint.load"), Some(FailOnce), 5, true, 0),
            // Clean crash between batches, no injected fault.
            6 => (None, None, 4, false, 0),
            // Crash immediately after a successful checkpoint.
            7 => (None, None, 4, true, 0),
            // Transient WAL fault: the append fails twice, then the
            // retried write succeeds. With retries configured, no batch
            // is lost and no quarantine happens.
            8 => (Some("wal.append"), Some(FailTimes(2)), 5, false, 3),
            // Transient checkpoint fault: two failed writes, then the
            // retry lands the checkpoint.
            _ => (Some("checkpoint.write"), Some(FailTimes(2)), 5, true, 3),
        };
        FaultPlan {
            seed,
            site: site.map(String::from),
            mode,
            after_batches: after_batches + wave as usize,
            checkpoint_first,
            retries,
            shard: 0,
            kill: false,
        }
    }

    /// Shard-failover scenario for `seed` against a fleet of
    /// `num_shards`.
    pub fn shard(seed: u64, num_shards: usize) -> FaultPlan {
        assert!(num_shards >= 1);
        let (point, wave) = Self::row(seed);
        use FaultMode::*;
        let (site, mode, checkpoint_first, kill) = match point {
            // Hard WAL fault: three consecutive append vetoes exhaust
            // the supervisor's strike budget — Suspect → Dead → online
            // rebuild from checkpoint + WAL + redelivered backlog.
            0 => (Some("wal.append"), Some(FailTimes(3)), false, false),
            // One vetoed append: Suspect, the batch is queued, and the
            // next round's redelivery heals the shard.
            1 => (Some("wal.append"), Some(FailOnce), false, false),
            // Torn WAL frame: the engine repairs the tail, the router
            // redelivers, the shard self-heals.
            2 => (Some("wal.append"), Some(ShortWrite(5)), false, false),
            // Checkpoint write fails on one shard mid-fleet-checkpoint:
            // Suspect, then healed by the next successful delivery.
            3 => (Some("checkpoint.write"), Some(FailOnce), true, false),
            // In-band crash: the shard's delivery path dies — immediate
            // Dead, WAL rebuild.
            4 => (Some("crash"), Some(FailOnce), false, false),
            // Crash immediately after a fleet checkpoint (short WAL
            // suffix on rebuild).
            5 => (Some("crash"), Some(FailOnce), true, false),
            // Router delivery drop (network loss): two sub-batches are
            // dropped on the wire, queued, and redelivered — the shard
            // never leaves Healthy and no update is lost.
            6 => (Some("route.drop"), Some(FailTimes(2)), false, false),
            // Transient WAL fault below the strike budget: two vetoes
            // → Suspect, third attempt lands, healed.
            7 => (Some("wal.append"), Some(FailTimes(2)), false, false),
            // Member death plus a corrupt-newest-checkpoint rebuild:
            // recovery must fall back to the previous checkpoint and
            // replay a longer WAL suffix.
            8 => (Some("checkpoint.load"), Some(FailOnce), true, true),
            // Clean member death mid-stream, plain WAL rebuild.
            _ => (None, None, false, true),
        };
        let shard = seed as usize % num_shards;
        let label = crate::sharded::shard_label(shard);
        FaultPlan {
            seed,
            site: site.map(|s| format!("{label}/{s}")),
            mode,
            after_batches: 3 + wave as usize,
            checkpoint_first,
            retries: 0,
            shard,
            kill,
        }
    }

    /// Segment-IO scenario for `seed`.
    pub fn segment(seed: u64) -> FaultPlan {
        let (point, wave) = Self::row(seed);
        use FaultMode::*;
        let (site, mode) = match point {
            // Spill write vetoed once; the write retry lands it.
            0 => ("segment.write", FailOnce),
            // Torn spill: a 12-byte frame fragment at the final path —
            // exactly what a crash mid-write leaves. The next read must
            // CRC-detect it, quarantine, and repair.
            1 => ("segment.write", ShortWrite(12 + wave as usize)),
            // Persistent write failure past the retry budget: the
            // segment stays resident (non-evictable) rather than lost,
            // and the breaker arms.
            2 => ("segment.write", FailTimes(3 + wave)),
            // One vetoed demand read; the read retry recovers it.
            3 => ("segment.read", FailOnce),
            // A device that fails every read: pinned fallback serves
            // every row and the breaker trips to pinned mode.
            4 => ("segment.read", FailTimes(64)),
            // Intermittent read errors (every 3rd IO).
            5 => ("segment.read", FailEveryNth(3)),
            // A slow disk, not a broken one: every read delayed, all
            // answers still exact, `slow_ios` counted.
            6 => ("segment.read", Delay(wave)),
            // Scrub read errors: counted as scrub errors, and the
            // segment is NOT quarantined — an IO error is not a verdict
            // on the bytes.
            7 => ("segment.scrub", FailOnce),
            // Slow scrub pass.
            8 => ("segment.scrub", Delay(wave)),
            // Slow spill path.
            _ => ("segment.write", Delay(wave)),
        };
        FaultPlan {
            seed,
            site: Some(site.into()),
            mode: Some(mode),
            after_batches: 0,
            checkpoint_first: false,
            retries: 0,
            shard: 0,
            kill: false,
        }
    }

    /// The plan `GA_FAULT_SEED` selects from `matrix` (one of the three
    /// constructors), or `None` when the variable is unset/unparsable —
    /// test drivers then sweep the whole matrix themselves.
    pub fn from_env(matrix: impl FnOnce(u64) -> FaultPlan) -> Option<FaultPlan> {
        let seed = std::env::var("GA_FAULT_SEED").ok()?.trim().parse().ok()?;
        Some(matrix(seed))
    }

    /// Arm this plan's fault (if any) in the global registry.
    pub fn arm(&self) {
        if let (Some(site), Some(mode)) = (&self.site, self.mode) {
            arm(site, mode);
        }
    }

    /// Whether this plan arms `site` (an unscoped name such as
    /// `"checkpoint.load"`; shard plans match on the scoped suffix).
    pub fn targets(&self, site: &str) -> bool {
        self.site
            .as_deref()
            .and_then(|s| s.strip_suffix(site))
            .is_some_and(|scope| scope.is_empty() || scope.ends_with('/'))
    }

    /// Shard matrix: whether this scenario is expected to take the shard
    /// to `Dead` (and therefore require a rebuild), given the default
    /// supervisor strike budget of
    /// [`crate::sharded::DEFAULT_SUSPECT_STRIKES`].
    pub fn expects_death(&self) -> bool {
        self.kill
            || self.targets("crash")
            || matches!(self.mode, Some(FaultMode::FailTimes(k))
                if k >= crate::sharded::DEFAULT_SUSPECT_STRIKES as u64
                    && self.targets("wal.append"))
    }

    /// Whether this scenario only slows IO (a [`FaultMode::Delay`]
    /// point): no error path should fire at all, only `slow_ios`.
    pub fn slow_only(&self) -> bool {
        matches!(self.mode, Some(FaultMode::Delay(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FaultMode::*;

    /// `(site, mode, after_batches, checkpoint_first, retries, kill)` of
    /// every row, as the three pre-merge matrices generated them: the CI
    /// seed loops must keep exercising the same scenarios.
    type Row = (
        Option<&'static str>,
        Option<FaultMode>,
        usize,
        bool,
        u32,
        bool,
    );

    const CRASH: [Row; 10] = [
        (Some("wal.append"), Some(FailOnce), 3, false, 0, false),
        (Some("wal.append"), Some(ShortWrite(5)), 4, false, 0, false),
        (Some("wal.append"), Some(ShortWrite(21)), 6, false, 0, false),
        (Some("checkpoint.write"), Some(FailOnce), 5, true, 0, false),
        (
            Some("checkpoint.write"),
            Some(ShortWrite(64)),
            5,
            true,
            0,
            false,
        ),
        (Some("checkpoint.load"), Some(FailOnce), 5, true, 0, false),
        (None, None, 4, false, 0, false),
        (None, None, 4, true, 0, false),
        (Some("wal.append"), Some(FailTimes(2)), 5, false, 3, false),
        (
            Some("checkpoint.write"),
            Some(FailTimes(2)),
            5,
            true,
            3,
            false,
        ),
    ];
    const SHARD: [Row; 10] = [
        (Some("wal.append"), Some(FailTimes(3)), 3, false, 0, false),
        (Some("wal.append"), Some(FailOnce), 3, false, 0, false),
        (Some("wal.append"), Some(ShortWrite(5)), 3, false, 0, false),
        (Some("checkpoint.write"), Some(FailOnce), 3, true, 0, false),
        (Some("crash"), Some(FailOnce), 3, false, 0, false),
        (Some("crash"), Some(FailOnce), 3, true, 0, false),
        (Some("route.drop"), Some(FailTimes(2)), 3, false, 0, false),
        (Some("wal.append"), Some(FailTimes(2)), 3, false, 0, false),
        (Some("checkpoint.load"), Some(FailOnce), 3, true, 0, true),
        (None, None, 3, false, 0, true),
    ];
    const SEGMENT: [Row; 10] = [
        (Some("segment.write"), Some(FailOnce), 0, false, 0, false),
        (
            Some("segment.write"),
            Some(ShortWrite(12)),
            0,
            false,
            0,
            false,
        ),
        (
            Some("segment.write"),
            Some(FailTimes(3)),
            0,
            false,
            0,
            false,
        ),
        (Some("segment.read"), Some(FailOnce), 0, false, 0, false),
        (
            Some("segment.read"),
            Some(FailTimes(64)),
            0,
            false,
            0,
            false,
        ),
        (
            Some("segment.read"),
            Some(FailEveryNth(3)),
            0,
            false,
            0,
            false,
        ),
        (Some("segment.read"), Some(Delay(0)), 0, false, 0, false),
        (Some("segment.scrub"), Some(FailOnce), 0, false, 0, false),
        (Some("segment.scrub"), Some(Delay(0)), 0, false, 0, false),
        (Some("segment.write"), Some(Delay(0)), 0, false, 0, false),
    ];

    fn assert_row(plan: &FaultPlan, scope: &str, row: &Row) {
        let (site, mode, after_batches, checkpoint_first, retries, kill) = *row;
        let want = FaultPlan {
            seed: plan.seed,
            site: site.map(|s| format!("{scope}{s}")),
            mode,
            after_batches,
            checkpoint_first,
            retries,
            shard: plan.shard,
            kill,
        };
        assert_eq!(*plan, want, "seed {}", plan.seed);
    }

    #[test]
    fn all_thirty_rows_keep_their_site_mode_and_timing() {
        for seed in 0..MATRIX_SIZE {
            let i = seed as usize;
            assert_row(&FaultPlan::crash(seed), "", &CRASH[i]);
            assert_row(&FaultPlan::segment(seed), "", &SEGMENT[i]);
            for num_shards in [2usize, 4] {
                let plan = FaultPlan::shard(seed, num_shards);
                assert_eq!(plan.shard, i % num_shards);
                let scope = format!("{}/", crate::sharded::shard_label(plan.shard));
                assert_row(&plan, &scope, &SHARD[i]);
            }
        }
    }

    #[test]
    fn transient_crash_points_carry_a_retry_budget() {
        for p in (0..MATRIX_SIZE).map(FaultPlan::crash) {
            let transient = matches!(p.mode, Some(FailTimes(_)));
            assert_eq!(transient, p.retries > 0, "point {}", p.seed);
            if let Some(FailTimes(k)) = p.mode {
                // The budget must be able to outlast the fault.
                assert!(p.retries as u64 >= k, "point {}", p.seed);
            }
        }
    }

    #[test]
    fn large_seeds_wrap_with_varied_timing_or_magnitude() {
        let (a, b) = (FaultPlan::crash(0), FaultPlan::crash(MATRIX_SIZE));
        assert_eq!(a.site, b.site);
        assert_eq!(a.after_batches + 1, b.after_batches);
        let (a, b) = (FaultPlan::shard(0, 4), FaultPlan::shard(2 * MATRIX_SIZE, 4));
        assert_eq!(a.after_batches + 2, b.after_batches);
        let (a, b) = (FaultPlan::segment(1), FaultPlan::segment(1 + MATRIX_SIZE));
        assert_eq!(a.site, b.site);
        assert_eq!(b.mode, Some(ShortWrite(13)));
        assert_eq!(
            FaultPlan::segment(3 * MATRIX_SIZE),
            FaultPlan {
                seed: 30,
                ..FaultPlan::segment(0)
            }
        );
    }

    #[test]
    fn shard_matrix_covers_both_death_modes_and_both_survivable_ones() {
        let plans: Vec<FaultPlan> = (0..MATRIX_SIZE).map(|s| FaultPlan::shard(s, 4)).collect();
        let deaths: Vec<u64> = plans
            .iter()
            .filter(|p| p.expects_death())
            .map(|p| p.seed)
            .collect();
        assert_eq!(
            deaths,
            [0, 4, 5, 8, 9],
            "I/O-driven, crash and explicit-kill deaths"
        );
        assert!(plans
            .iter()
            .any(|p| p.targets("route.drop") && !p.expects_death()));
    }

    #[test]
    fn segment_matrix_slows_every_site() {
        let plans: Vec<FaultPlan> = (0..MATRIX_SIZE).map(FaultPlan::segment).collect();
        for site in ["segment.write", "segment.read", "segment.scrub"] {
            assert!(
                plans.iter().any(|p| p.targets(site) && p.slow_only()),
                "Delay must cover {site}"
            );
        }
    }
}
