//! Fault injection, re-exported at the flow-engine level, plus the
//! seeded fault *matrix* the crash-recovery suite iterates.
//!
//! The registry itself lives in [`ga_graph::faults`] (the bottom of the
//! dependency stack, so both the WAL in `ga-stream` and the checkpoint
//! writer here can reach it); this module re-exports it and adds the
//! deterministic seed → fault-scenario mapping driven by the
//! `GA_FAULT_SEED` environment variable in CI.

pub use ga_graph::faults::{
    apply_delay, arm, check, clear_all, fired_count, injected, intercept, is_injected, with_scope,
    FaultMode, Intercept,
};

/// One point of the crash-recovery fault matrix: which site misbehaves,
/// how, and after how many successfully processed batches the simulated
/// crash happens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed this plan was derived from.
    pub seed: u64,
    /// Fault site to arm (`None` = clean crash, no injected I/O fault).
    pub site: Option<&'static str>,
    /// How the armed site misbehaves.
    pub mode: Option<FaultMode>,
    /// Crash (abandon the engine) after this many batches have been
    /// offered to the durable path.
    pub crash_after_batches: usize,
    /// Force a checkpoint right before the crash point (exercises
    /// recovery from a just-written checkpoint and checkpoint-time
    /// faults).
    pub checkpoint_before_crash: bool,
    /// Durability retry budget the run should configure
    /// ([`crate::retry::RetryPolicy::max_retries`]). Zero for the
    /// classic points 0–7, preserving their fail-fast semantics; the
    /// transient points 8–9 set it high enough to ride out the fault.
    pub retries: u32,
}

/// Number of distinct scenarios [`FaultPlan::from_seed`] generates
/// before wrapping (CI loops `GA_FAULT_SEED` over `0..MATRIX_SIZE`).
pub const MATRIX_SIZE: u64 = 10;

impl FaultPlan {
    /// Deterministically map a seed to a fault scenario. Seeds beyond
    /// [`MATRIX_SIZE`] wrap, so any `GA_FAULT_SEED` value is valid.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let point = seed % MATRIX_SIZE;
        // Vary the crash point a little with the wrap count so large
        // seeds still add coverage, deterministically.
        let wave = (seed / MATRIX_SIZE) as usize % 3;
        match point {
            // Crash during a WAL append: the frame is vetoed entirely.
            0 => FaultPlan {
                seed,
                site: Some("wal.append"),
                mode: Some(FaultMode::FailOnce),
                crash_after_batches: 3 + wave,
                checkpoint_before_crash: false,
                retries: 0,
            },
            // Crash mid-WAL-append: a torn frame of 5 bytes.
            1 => FaultPlan {
                seed,
                site: Some("wal.append"),
                mode: Some(FaultMode::ShortWrite(5)),
                crash_after_batches: 4 + wave,
                checkpoint_before_crash: false,
                retries: 0,
            },
            // Torn frame that cuts inside the payload, not the header.
            2 => FaultPlan {
                seed,
                site: Some("wal.append"),
                mode: Some(FaultMode::ShortWrite(21)),
                crash_after_batches: 6 + wave,
                checkpoint_before_crash: false,
                retries: 0,
            },
            // Checkpoint write fails outright; WAL must carry recovery.
            3 => FaultPlan {
                seed,
                site: Some("checkpoint.write"),
                mode: Some(FaultMode::FailOnce),
                crash_after_batches: 5 + wave,
                checkpoint_before_crash: true,
                retries: 0,
            },
            // Checkpoint write is torn at the final path; recovery must
            // skip the corrupt file and fall back.
            4 => FaultPlan {
                seed,
                site: Some("checkpoint.write"),
                mode: Some(FaultMode::ShortWrite(64)),
                crash_after_batches: 5 + wave,
                checkpoint_before_crash: true,
                retries: 0,
            },
            // Loading the newest checkpoint fails; recovery falls back
            // to an older one and replays more WAL.
            5 => FaultPlan {
                seed,
                site: Some("checkpoint.load"),
                mode: Some(FaultMode::FailOnce),
                crash_after_batches: 5 + wave,
                checkpoint_before_crash: true,
                retries: 0,
            },
            // Transient WAL fault: the append fails twice, then the
            // retried write succeeds. With retries configured, no batch
            // is lost and no quarantine happens.
            8 => FaultPlan {
                seed,
                site: Some("wal.append"),
                mode: Some(FaultMode::FailTimes(2)),
                crash_after_batches: 5 + wave,
                checkpoint_before_crash: false,
                retries: 3,
            },
            // Transient checkpoint fault: two failed writes, then the
            // retry lands the checkpoint.
            9 => FaultPlan {
                seed,
                site: Some("checkpoint.write"),
                mode: Some(FaultMode::FailTimes(2)),
                crash_after_batches: 5 + wave,
                checkpoint_before_crash: true,
                retries: 3,
            },
            // Clean crash between batches, no injected fault.
            6 => FaultPlan {
                seed,
                site: None,
                mode: None,
                crash_after_batches: 4 + wave,
                checkpoint_before_crash: false,
                retries: 0,
            },
            // Crash immediately after a successful checkpoint.
            _ => FaultPlan {
                seed,
                site: None,
                mode: None,
                crash_after_batches: 4 + wave,
                checkpoint_before_crash: true,
                retries: 0,
            },
        }
    }

    /// Arm this plan's fault (if any) in the global registry.
    pub fn arm(&self) {
        if let (Some(site), Some(mode)) = (self.site, self.mode) {
            arm(site, mode);
        }
    }
}

/// The `GA_FAULT_SEED` environment variable, or `None` when
/// unset/unparsable (test drivers then iterate the full matrix
/// themselves).
fn fault_seed_from_env() -> Option<u64> {
    std::env::var("GA_FAULT_SEED").ok()?.trim().parse().ok()
}

/// The plan selected by `GA_FAULT_SEED`, if set.
pub fn plan_from_env() -> Option<FaultPlan> {
    fault_seed_from_env().map(FaultPlan::from_seed)
}

/// One point of the **shard** chaos matrix: which shard of a fleet is
/// faulted, at which shard-scoped site, and when. Unlike [`FaultPlan`]
/// (one engine, process-death crashes), these scenarios fault one
/// member of a live fleet and expect the fleet to classify the error,
/// fail over, and rebuild the member online — see
/// [`crate::sharded::ShardSupervisor`].
///
/// Site names are fully scoped (`"shard-01/wal.append"`), matching the
/// scoped-intercept support in [`ga_graph::faults::with_scope`]; the
/// sharded router wraps each shard's durable I/O in its label's scope,
/// so arming a scoped site faults exactly one shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFaultPlan {
    /// Seed this plan was derived from.
    pub seed: u64,
    /// The targeted shard (derived from the seed, wrapped to the fleet
    /// size so every seed is valid for every shard count).
    pub shard: usize,
    /// Shard-scoped fault site to arm at the fault point (`None` for
    /// the explicit-kill points).
    pub site: Option<String>,
    /// How the armed site misbehaves.
    pub mode: Option<FaultMode>,
    /// Whether the driver kills the shard outright at the fault point
    /// (simulating member death rather than an I/O fault).
    pub kill: bool,
    /// Arm the fault (and/or kill) after this many batches.
    pub fault_after_batches: usize,
    /// Force a fleet checkpoint right before the fault point, so
    /// rebuild exercises a fresh checkpoint + short WAL suffix.
    pub checkpoint_at_fault: bool,
}

/// Number of distinct scenarios [`ShardFaultPlan::from_seed`]
/// generates before wrapping (CI loops `GA_FAULT_SEED` over
/// `0..SHARD_MATRIX_SIZE` × `GA_SHARDS` ∈ {2, 4}).
pub const SHARD_MATRIX_SIZE: u64 = 10;

impl ShardFaultPlan {
    /// Deterministically map a seed to a shard fault scenario for a
    /// fleet of `num_shards`. Seeds beyond [`SHARD_MATRIX_SIZE`] wrap
    /// with a varied fault point, like [`FaultPlan::from_seed`].
    pub fn from_seed(seed: u64, num_shards: usize) -> ShardFaultPlan {
        assert!(num_shards >= 1);
        let point = seed % SHARD_MATRIX_SIZE;
        let wave = (seed / SHARD_MATRIX_SIZE) as usize % 3;
        let shard = (seed as usize) % num_shards;
        let label = crate::sharded::shard_label(shard);
        let base = ShardFaultPlan {
            seed,
            shard,
            site: None,
            mode: None,
            kill: false,
            fault_after_batches: 3 + wave,
            checkpoint_at_fault: false,
        };
        match point {
            // Hard WAL fault: three consecutive append vetoes exhaust
            // the supervisor's strike budget — Suspect → Dead → online
            // rebuild from checkpoint + WAL + redelivered backlog.
            0 => ShardFaultPlan {
                site: Some(format!("{label}/wal.append")),
                mode: Some(FaultMode::FailTimes(3)),
                ..base
            },
            // One vetoed append: Suspect, the batch is queued, and the
            // next round's redelivery heals the shard.
            1 => ShardFaultPlan {
                site: Some(format!("{label}/wal.append")),
                mode: Some(FaultMode::FailOnce),
                ..base
            },
            // Torn WAL frame: the engine repairs the tail, the router
            // redelivers, the shard self-heals.
            2 => ShardFaultPlan {
                site: Some(format!("{label}/wal.append")),
                mode: Some(FaultMode::ShortWrite(5)),
                ..base
            },
            // Checkpoint write fails on one shard mid-fleet-checkpoint:
            // Suspect, then healed by the next successful delivery.
            3 => ShardFaultPlan {
                site: Some(format!("{label}/checkpoint.write")),
                mode: Some(FaultMode::FailOnce),
                checkpoint_at_fault: true,
                ..base
            },
            // In-band crash: the shard's delivery path dies — immediate
            // Dead, WAL rebuild.
            4 => ShardFaultPlan {
                site: Some(format!("{label}/crash")),
                mode: Some(FaultMode::FailOnce),
                ..base
            },
            // Crash immediately after a fleet checkpoint (short WAL
            // suffix on rebuild).
            5 => ShardFaultPlan {
                site: Some(format!("{label}/crash")),
                mode: Some(FaultMode::FailOnce),
                checkpoint_at_fault: true,
                ..base
            },
            // Router delivery drop (network loss): two sub-batches are
            // dropped on the wire, queued, and redelivered — the shard
            // never leaves Healthy and no update is lost.
            6 => ShardFaultPlan {
                site: Some(format!("{label}/route.drop")),
                mode: Some(FaultMode::FailTimes(2)),
                ..base
            },
            // Transient WAL fault below the strike budget: two vetoes
            // → Suspect, third attempt lands, healed.
            7 => ShardFaultPlan {
                site: Some(format!("{label}/wal.append")),
                mode: Some(FaultMode::FailTimes(2)),
                ..base
            },
            // Member death plus a corrupt-newest-checkpoint rebuild:
            // recovery must fall back to the previous checkpoint and
            // replay a longer WAL suffix.
            8 => ShardFaultPlan {
                site: Some(format!("{label}/checkpoint.load")),
                mode: Some(FaultMode::FailOnce),
                kill: true,
                checkpoint_at_fault: true,
                ..base
            },
            // Clean member death mid-stream, plain WAL rebuild.
            _ => ShardFaultPlan { kill: true, ..base },
        }
    }

    /// Arm this plan's fault site (if any) in the global registry.
    pub fn arm(&self) {
        if let (Some(site), Some(mode)) = (&self.site, self.mode) {
            arm(site, mode);
        }
    }

    /// Whether this scenario is expected to take the shard to `Dead`
    /// (and therefore require a rebuild), given the default supervisor
    /// strike budget of [`crate::sharded::DEFAULT_SUSPECT_STRIKES`].
    pub fn expects_death(&self) -> bool {
        if self.kill {
            return true;
        }
        let Some(site) = &self.site else {
            return false;
        };
        if site.ends_with("/crash") {
            return true;
        }
        matches!(self.mode, Some(FaultMode::FailTimes(k))
            if k >= crate::sharded::DEFAULT_SUSPECT_STRIKES as u64
                && site.ends_with("/wal.append"))
    }
}

/// One point of the **segment-IO** chaos matrix: which tier site
/// misbehaves and how, while a spill-forcing RAM budget keeps the
/// segment store on the hot path. Unlike the crash/shard matrices there
/// is no process death here — the contract under test is the tier's
/// own ladder: retry transient errors, quarantine (never decode)
/// corruption, repair from a source of truth, fall back to the pinned
/// snapshot, and trip the breaker into pinned-in-RAM operation when the
/// device keeps failing — with zero acknowledged updates lost and all
/// kernels bit-identical after scrub + repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentFaultPlan {
    /// Seed this plan was derived from.
    pub seed: u64,
    /// Tier fault site to arm (`segment.write`, `segment.read`, or
    /// `segment.scrub`).
    pub site: &'static str,
    /// How the armed site misbehaves.
    pub mode: FaultMode,
}

/// Number of distinct scenarios [`SegmentFaultPlan::from_seed`]
/// generates before wrapping (CI loops `GA_FAULT_SEED` over
/// `0..SEGMENT_MATRIX_SIZE`).
pub const SEGMENT_MATRIX_SIZE: u64 = 10;

impl SegmentFaultPlan {
    /// Deterministically map a seed to a segment-IO scenario. Seeds
    /// beyond [`SEGMENT_MATRIX_SIZE`] wrap with a varied fault
    /// magnitude, like the other matrices.
    pub fn from_seed(seed: u64) -> SegmentFaultPlan {
        let point = seed % SEGMENT_MATRIX_SIZE;
        let wave = (seed / SEGMENT_MATRIX_SIZE) % 3;
        let (site, mode) = match point {
            // Spill write vetoed once; the write retry lands it.
            0 => ("segment.write", FaultMode::FailOnce),
            // Torn spill: a 12-byte frame fragment at the final path —
            // exactly what a crash mid-write leaves. The next read must
            // CRC-detect it, quarantine, and repair.
            1 => ("segment.write", FaultMode::ShortWrite(12 + wave as usize)),
            // Persistent write failure past the retry budget: the
            // segment stays resident (non-evictable) rather than lost,
            // and the breaker arms.
            2 => ("segment.write", FaultMode::FailTimes(3 + wave)),
            // One vetoed demand read; the read retry recovers it.
            3 => ("segment.read", FaultMode::FailOnce),
            // A device that fails every read: pinned fallback serves
            // every row and the breaker trips to pinned mode.
            4 => ("segment.read", FaultMode::FailTimes(64)),
            // Intermittent read errors (every 3rd IO).
            5 => ("segment.read", FaultMode::FailEveryNth(3)),
            // A slow disk, not a broken one: every read delayed, all
            // answers still exact, `slow_ios` counted.
            6 => ("segment.read", FaultMode::Delay(wave)),
            // Scrub read errors: counted as scrub errors, and the
            // segment is NOT quarantined — an IO error is not a verdict
            // on the bytes.
            7 => ("segment.scrub", FaultMode::FailOnce),
            // Slow scrub pass.
            8 => ("segment.scrub", FaultMode::Delay(wave)),
            // Slow spill path.
            _ => ("segment.write", FaultMode::Delay(wave)),
        };
        SegmentFaultPlan { seed, site, mode }
    }

    /// Arm this plan's fault in the global registry.
    pub fn arm(&self) {
        arm(self.site, self.mode);
    }

    /// Whether this scenario only slows IO (a [`FaultMode::Delay`]
    /// point): no error path should fire at all, only `slow_ios`.
    pub fn slow_only(&self) -> bool {
        matches!(self.mode, FaultMode::Delay(_))
    }
}

/// The segment plan selected by `GA_FAULT_SEED`, if set.
pub fn segment_plan_from_env() -> Option<SegmentFaultPlan> {
    fault_seed_from_env().map(SegmentFaultPlan::from_seed)
}

/// The shard plan selected by `GA_FAULT_SEED` for a fleet of
/// `num_shards`, if set.
pub fn shard_plan_from_env(num_shards: usize) -> Option<ShardFaultPlan> {
    fault_seed_from_env().map(|s| ShardFaultPlan::from_seed(s, num_shards))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_cover_all_sites() {
        let plans: Vec<FaultPlan> = (0..MATRIX_SIZE).map(FaultPlan::from_seed).collect();
        assert_eq!(
            plans,
            (0..MATRIX_SIZE)
                .map(FaultPlan::from_seed)
                .collect::<Vec<_>>()
        );
        let sites: std::collections::HashSet<_> = plans.iter().filter_map(|p| p.site).collect();
        assert!(sites.contains("wal.append"));
        assert!(sites.contains("checkpoint.write"));
        assert!(sites.contains("checkpoint.load"));
        // And at least one clean-crash point.
        assert!(plans.iter().any(|p| p.site.is_none()));
    }

    #[test]
    fn transient_points_carry_a_retry_budget() {
        for p in (0..MATRIX_SIZE).map(FaultPlan::from_seed) {
            let transient = matches!(p.mode, Some(FaultMode::FailTimes(_)));
            assert_eq!(transient, p.retries > 0, "point {}", p.seed);
            if let Some(FaultMode::FailTimes(k)) = p.mode {
                // The budget must be able to outlast the fault.
                assert!(p.retries as u64 >= k, "point {}", p.seed);
            }
        }
        // Both transient points exist: one per durable write site.
        assert_eq!(FaultPlan::from_seed(8).mode, Some(FaultMode::FailTimes(2)));
        assert_eq!(FaultPlan::from_seed(8).site, Some("wal.append"));
        assert_eq!(FaultPlan::from_seed(9).site, Some("checkpoint.write"));
    }

    #[test]
    fn large_seeds_wrap_with_varied_crash_points() {
        let a = FaultPlan::from_seed(0);
        let b = FaultPlan::from_seed(MATRIX_SIZE);
        assert_eq!(a.site, b.site);
        assert_ne!(a.crash_after_batches, b.crash_after_batches);
    }

    #[test]
    fn shard_matrix_is_deterministic_and_scoped_to_the_target() {
        for num_shards in [2usize, 4] {
            let plans: Vec<ShardFaultPlan> = (0..SHARD_MATRIX_SIZE)
                .map(|s| ShardFaultPlan::from_seed(s, num_shards))
                .collect();
            assert_eq!(
                plans,
                (0..SHARD_MATRIX_SIZE)
                    .map(|s| ShardFaultPlan::from_seed(s, num_shards))
                    .collect::<Vec<_>>()
            );
            for p in &plans {
                assert!(p.shard < num_shards);
                if let Some(site) = &p.site {
                    let label = crate::sharded::shard_label(p.shard);
                    assert!(
                        site.starts_with(&format!("{label}/")),
                        "site must be scoped to the target shard: {site}"
                    );
                }
            }
            // All four shard-scoped site kinds appear in the matrix.
            let suffixes = [
                "/wal.append",
                "/checkpoint.write",
                "/checkpoint.load",
                "/crash",
            ];
            for suffix in suffixes {
                assert!(
                    plans
                        .iter()
                        .any(|p| p.site.as_deref().is_some_and(|s| s.ends_with(suffix))),
                    "matrix must cover {suffix}"
                );
            }
            assert!(plans.iter().any(|p| p
                .site
                .as_deref()
                .is_some_and(|s| s.ends_with("/route.drop"))));
            // Both death modes (I/O-driven and explicit kill) and both
            // survivable modes exist.
            assert!(plans.iter().any(|p| p.kill));
            assert!(plans.iter().any(|p| p.expects_death() && !p.kill));
            assert!(plans.iter().any(|p| !p.expects_death()));
        }
    }

    #[test]
    fn shard_matrix_wraps_with_varied_fault_points() {
        let a = ShardFaultPlan::from_seed(0, 4);
        let b = ShardFaultPlan::from_seed(SHARD_MATRIX_SIZE, 4);
        assert_ne!(a.fault_after_batches, b.fault_after_batches);
    }

    #[test]
    fn segment_matrix_is_deterministic_and_covers_all_sites_and_modes() {
        let plans: Vec<SegmentFaultPlan> = (0..SEGMENT_MATRIX_SIZE)
            .map(SegmentFaultPlan::from_seed)
            .collect();
        assert_eq!(
            plans,
            (0..SEGMENT_MATRIX_SIZE)
                .map(SegmentFaultPlan::from_seed)
                .collect::<Vec<_>>()
        );
        for site in ["segment.write", "segment.read", "segment.scrub"] {
            assert!(
                plans.iter().any(|p| p.site == site),
                "matrix must cover {site}"
            );
        }
        // All five fault modes appear, including slow-IO Delay.
        assert!(plans.iter().any(|p| matches!(p.mode, FaultMode::FailOnce)));
        assert!(plans
            .iter()
            .any(|p| matches!(p.mode, FaultMode::FailTimes(_))));
        assert!(plans
            .iter()
            .any(|p| matches!(p.mode, FaultMode::FailEveryNth(_))));
        assert!(plans
            .iter()
            .any(|p| matches!(p.mode, FaultMode::ShortWrite(_))));
        assert!(plans.iter().any(|p| p.slow_only()));
        // Delay appears on every one of the three sites across the
        // matrix (read, scrub, write at points 6, 8, 9).
        for site in ["segment.write", "segment.read", "segment.scrub"] {
            assert!(
                plans.iter().any(|p| p.site == site && p.slow_only()),
                "Delay must cover {site}"
            );
        }
    }

    #[test]
    fn segment_matrix_wraps_with_varied_magnitudes() {
        let a = SegmentFaultPlan::from_seed(1);
        let b = SegmentFaultPlan::from_seed(1 + SEGMENT_MATRIX_SIZE);
        assert_eq!(a.site, b.site);
        assert_ne!(a.mode, b.mode);
    }
}
