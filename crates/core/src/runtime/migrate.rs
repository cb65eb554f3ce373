//! Traffic-driven online re-sharding: the coordinator that turns observed
//! lookup counters into published arena generations.
//!
//! The [`Resharder`] closes the feedback loop the static search cannot:
//! Algorithm 1 places tables under a uniform-workload assumption, live
//! traffic is skewed, and the skew moves. At each evaluation the resharder
//! distills the runtime's per-table cache counters into a
//! [`TrafficProfile`], re-runs the fixed-merge traffic-aware allocation
//! ([`allocate_with_traffic`]), and compares the current plan against the
//! candidate under the traffic-weighted cost. When the predicted
//! improvement clears the [`ReshardingPolicy`] gates, it rebuilds the
//! arena under the candidate's channel assignment *off-thread* (shielded —
//! a panic mid-build leaves the old generation serving), publishes the new
//! generation through the epoch [`GenerationCell`].
//!
//! The merge plan is deliberately fixed online: engine catalogs (logical →
//! physical table resolution, hot-row-cache keying) are immutable for the
//! process lifetime, so an online migration only re-distributes tables
//! across memory channels. Changing the merge remains an offline decision
//! (restart with a new plan). Rebuilt generations relocate encoded row
//! bytes verbatim, so a swap is bit-invisible to predictions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::{BankId, MemoryConfig};
use microrec_placement::{
    allocate_with_traffic, heuristic_search, AllocStrategy, PlacementError, Plan, TrafficProfile,
};

use crate::engine::MicroRecBuilder;
use crate::epoch::{build_generation_shielded, ArenaGeneration, GenerationCell};
use crate::error::MicroRecError;
use crate::report::MigrationRecord;

/// Gates deciding when observed traffic justifies an online re-shard.
///
/// All three gates must pass (unless forced): enough traffic observed in
/// the window, enough predicted improvement, and enough time since the
/// previous migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReshardingPolicy {
    /// Minimum predicted fractional improvement of the traffic-weighted
    /// lookup score — `(old − new) / old` — before a migration fires.
    pub divergence_threshold: f64,
    /// Minimum lookups (hits + misses) observed in the trigger window;
    /// below this the profile is noise, not signal.
    pub min_traffic: u64,
    /// Minimum milliseconds between migrations, so a boundary-straddling
    /// workload cannot thrash rebuilds.
    pub cooldown_ms: u64,
}

impl Default for ReshardingPolicy {
    fn default() -> Self {
        ReshardingPolicy { divergence_threshold: 0.05, min_traffic: 10_000, cooldown_ms: 200 }
    }
}

/// Channel assignment induced by a plan, computed from the plan alone:
/// each logical table takes the dense index of its physical table's
/// primary bank, in first-seen order over logical tables. Must agree with
/// `engine::channel_assignment` (which derives the same mapping through a
/// built catalog) — the equivalence is pinned by a test below — so a
/// migration reproduces exactly the channel layout a fresh build with the
/// same plan would produce.
pub(crate) fn channels_for_plan(plan: &Plan, n_logical: usize) -> Vec<usize> {
    let mut bank_of: Vec<Option<BankId>> = vec![None; n_logical];
    for table in &plan.placed {
        for &member in &table.members {
            if let Some(slot) = bank_of.get_mut(member) {
                *slot = table.banks.first().copied();
            }
        }
    }
    let mut banks: Vec<BankId> = Vec::new();
    bank_of
        .iter()
        .map(|bank| match bank {
            Some(bank) => banks.iter().position(|b| b == bank).unwrap_or_else(|| {
                banks.push(*bank);
                banks.len() - 1
            }),
            // A logical table no physical table claims cannot occur in a
            // validated plan; map it to channel 0 rather than failing.
            None => 0,
        })
        .collect()
}

/// Everything known about a migration at decision time, handed from the
/// gate evaluation to the swap so the published record carries the
/// trigger, not a re-derivation.
struct MigrationTrigger {
    trigger_hits: u64,
    trigger_misses: u64,
    divergence: f64,
    old_weighted_us: f64,
    new_weighted_us: f64,
    tables_moved: u64,
}

/// The online re-sharding coordinator: single writer of the epoch
/// [`GenerationCell`] every serving engine reads.
///
/// Counters flow in through [`Resharder::evaluate`] (cumulative per-table
/// hit/miss snapshots, as [`lookup_stats`](crate::ServingRuntime::lookup_stats)
/// reports them); the resharder internally windows them against the last
/// migration. It never touches the engines: publication is the only side
/// effect, and workers pick the new generation up at batch boundaries.
#[derive(Debug)]
pub struct Resharder {
    model: ModelSpec,
    memory: MemoryConfig,
    precision: Precision,
    strategy: AllocStrategy,
    policy: ReshardingPolicy,
    cell: Arc<GenerationCell>,
    /// The plan currently serving (updated on every migration).
    plan: Plan,
    /// Channel of each logical table under `plan`.
    channel_of: Vec<usize>,
    /// Cumulative counter snapshot at the last migration — the base of
    /// the current trigger window.
    prev_hits: Vec<u64>,
    prev_misses: Vec<u64>,
    last_migration: Option<Instant>,
    records: Vec<MigrationRecord>,
    /// Fault-injection hook run inside the shielded build thread (tests
    /// inject a panic here to prove the old generation keeps serving).
    build_hook: Option<fn()>,
}

impl Resharder {
    /// Builds a resharder for the engines `builder` produces: same model,
    /// memory platform, precision, and search options, so its as-built
    /// plan is exactly the plan every engine replica serves.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the placement search fails (it cannot,
    /// if an engine already built from the same configuration).
    pub fn from_builder(
        builder: &MicroRecBuilder,
        cell: Arc<GenerationCell>,
        policy: ReshardingPolicy,
    ) -> Result<Self, MicroRecError> {
        let model = builder.model_spec().clone();
        let options = builder.heuristic_options().clone();
        let outcome = heuristic_search(
            &model,
            builder.memory_config(),
            builder.stored_precision(),
            &options,
        )?;
        let n = model.num_tables();
        let channel_of = channels_for_plan(&outcome.plan, n);
        Ok(Resharder {
            model,
            memory: builder.memory_config().clone(),
            precision: builder.stored_precision(),
            strategy: options.strategy,
            policy,
            cell,
            plan: outcome.plan,
            channel_of,
            prev_hits: vec![0; n],
            prev_misses: vec![0; n],
            last_migration: None,
            records: Vec::new(),
            build_hook: None,
        })
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> ReshardingPolicy {
        self.policy
    }

    /// Replaces the policy (applies from the next evaluation).
    pub fn set_policy(&mut self, policy: ReshardingPolicy) {
        self.policy = policy;
    }

    /// Every migration performed so far, oldest first.
    #[must_use]
    pub fn records(&self) -> &[MigrationRecord] {
        &self.records
    }

    /// The plan currently serving.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Memory channel of each logical table under the serving plan. The
    /// exact assignment is traffic-dependent (cold-table tie-breaks move
    /// with counter noise), so callers that need to know which tables a
    /// migration co-located must observe it rather than predict it.
    #[must_use]
    pub fn channels(&self) -> &[usize] {
        &self.channel_of
    }

    /// Installs a hook run inside the shielded build thread, before the
    /// rebuild. Fault-injection tests pass a panicking hook to prove a
    /// crash mid-build leaves the old generation serving.
    #[doc(hidden)]
    pub fn set_build_hook(&mut self, hook: fn()) {
        self.build_hook = Some(hook);
    }

    /// Evaluates the policy against cumulative per-table counters and
    /// migrates if every gate passes. Returns whether a migration was
    /// published.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the candidate allocation fails
    /// unexpectedly or the rebuild errors/panics; the old generation keeps
    /// serving in every error case.
    pub fn evaluate(&mut self, hits: &[u64], misses: &[u64]) -> Result<bool, MicroRecError> {
        self.consider(hits, misses, false)
    }

    /// [`Resharder::evaluate`] with the traffic, divergence, and cooldown
    /// gates skipped: migrates whenever the traffic-aware candidate moves
    /// at least one table. Returns `Ok(false)` when the observed profile
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// Same contract as [`Resharder::evaluate`].
    pub fn force_migrate(&mut self, hits: &[u64], misses: &[u64]) -> Result<bool, MicroRecError> {
        self.consider(hits, misses, true)
    }

    fn consider(
        &mut self,
        hits: &[u64],
        misses: &[u64],
        force: bool,
    ) -> Result<bool, MicroRecError> {
        let n = self.model.num_tables();
        if hits.len() != n || misses.len() != n {
            // No per-table counters (cache disabled): nothing to distill
            // from.
            return Ok(false);
        }
        // Window since the last migration: the counters are cumulative,
        // saturating in case a caller reset them underneath us.
        let delta_hits: Vec<u64> =
            hits.iter().zip(&self.prev_hits).map(|(&c, &p)| c.saturating_sub(p)).collect();
        let delta_misses: Vec<u64> =
            misses.iter().zip(&self.prev_misses).map(|(&c, &p)| c.saturating_sub(p)).collect();
        let trigger_hits: u64 = delta_hits.iter().sum();
        let trigger_misses: u64 = delta_misses.iter().sum();
        if !force {
            if trigger_hits.saturating_add(trigger_misses) < self.policy.min_traffic {
                return Ok(false);
            }
            if let Some(at) = self.last_migration {
                if at.elapsed() < Duration::from_millis(self.policy.cooldown_ms) {
                    return Ok(false);
                }
            }
        }
        let profile = TrafficProfile::from_lookup_counts(&delta_hits, &delta_misses);
        if profile.is_uniform() {
            // No skew: the traffic-aware allocation is bit-identical to
            // the uniform one, so there is nothing to move.
            return Ok(false);
        }
        // Fixed-merge candidate: re-distribute the same physical tables
        // across channels under the observed weights.
        let candidate = match allocate_with_traffic(
            &self.model,
            &self.plan.merge,
            &self.memory,
            self.precision,
            self.strategy,
            &profile,
        ) {
            Ok(plan) => plan,
            // The serving plan proves the merge fits; a transient
            // infeasibility (shouldn't happen) is a no-op, not an error.
            Err(PlacementError::Infeasible(_)) => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        let lookups = self.model.lookups_per_table;
        let old_cost = self.plan.cost_with_traffic(&self.memory, lookups, &profile);
        let new_cost = candidate.cost_with_traffic(&self.memory, lookups, &profile);
        let old_ps = old_cost.lookup_latency.as_ps();
        let new_ps = new_cost.lookup_latency.as_ps();
        if old_ps == 0 {
            return Ok(false);
        }
        let divergence = old_ps.saturating_sub(new_ps) as f64 / old_ps as f64;
        if !force && divergence < self.policy.divergence_threshold {
            return Ok(false);
        }
        let new_channels = channels_for_plan(&candidate, n);
        let tables_moved =
            new_channels.iter().zip(&self.channel_of).filter(|(a, b)| a != b).count() as u64;
        if tables_moved == 0 {
            return Ok(false);
        }
        let trigger = MigrationTrigger {
            trigger_hits,
            trigger_misses,
            divergence,
            old_weighted_us: old_cost.lookup_latency.as_us(),
            new_weighted_us: new_cost.lookup_latency.as_us(),
            tables_moved,
        };
        self.migrate(candidate, new_channels, trigger, hits, misses)
    }

    /// Rebuilds the arena off-thread under `new_channels`, publishes the
    /// generation, and records the migration. Only on success does the
    /// resharder's own state (plan, channels, window base) advance — a
    /// failed build leaves it primed to retry.
    fn migrate(
        &mut self,
        candidate: Plan,
        new_channels: Vec<usize>,
        trigger: MigrationTrigger,
        hits: &[u64],
        misses: &[u64],
    ) -> Result<bool, MicroRecError> {
        let snapshot = self.cell.snapshot();
        let generation = snapshot.generation + 1;
        let hook = self.build_hook;
        let channels = new_channels.clone();
        let build_started = Instant::now();
        let built = if let Some(backing) = snapshot.backing {
            // Tiered: only the resident arena relocates; the cold store
            // file is shared untouched (cold rows are addressed by file
            // offset and never move).
            build_generation_shielded(move || {
                if let Some(hook) = hook {
                    hook();
                }
                let rebuilt = backing.rebuild_with_channels(&channels, generation)?;
                Ok(ArenaGeneration::from_backing(rebuilt))
            })
        } else if let Some(arena) = snapshot.arena {
            build_generation_shielded(move || {
                if let Some(hook) = hook {
                    hook();
                }
                let rebuilt = arena.rebuild_with_channels(&channels, generation)?;
                Ok(ArenaGeneration::from_arena(Arc::new(rebuilt)))
            })
        } else {
            Err(MicroRecError::Runtime("no published embedding store generation to migrate".into()))
        }?;
        let build_us = build_started.elapsed().as_secs_f64() * 1e6;
        let publish_started = Instant::now();
        self.cell.publish(built);
        let swap_us = publish_started.elapsed().as_secs_f64() * 1e6;
        self.records.push(MigrationRecord {
            generation,
            trigger_hits: trigger.trigger_hits,
            trigger_misses: trigger.trigger_misses,
            divergence: trigger.divergence,
            old_weighted_us: trigger.old_weighted_us,
            new_weighted_us: trigger.new_weighted_us,
            tables_moved: trigger.tables_moved,
            build_us,
            swap_us,
        });
        self.plan = candidate;
        self.channel_of = new_channels;
        self.prev_hits.clear();
        self.prev_hits.extend_from_slice(hits);
        self.prev_misses.clear();
        self.prev_misses.extend_from_slice(misses);
        self.last_migration = Some(Instant::now());
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{channel_assignment, MicroRec};
    use microrec_embedding::{RowFormat, TableSpec};
    use microrec_memsim::MemoryConfig;
    use microrec_placement::HeuristicOptions;

    /// Two hot and two cold tables; with only two DRAM channels the
    /// traffic-aware allocation separates the hot pair (see the placement
    /// crate's `traffic_allocation_spreads_hot_tables_across_channels`).
    fn skewed_model() -> ModelSpec {
        ModelSpec::new(
            "skewed",
            vec![
                TableSpec::new("hot-big", 200_000, 16),
                TableSpec::new("hot-small", 100_000, 8),
                TableSpec::new("cold-big", 200_000, 16),
                TableSpec::new("cold-small", 100_000, 8),
            ],
            vec![32, 16],
            1,
        )
    }

    fn skewed_builder() -> MicroRecBuilder {
        MicroRec::builder(skewed_model())
            .memory(MemoryConfig::fpga_without_hbm(2))
            .precision(Precision::F32)
            .search_options(HeuristicOptions { allow_merge: false, ..Default::default() })
            .embedding_arena(RowFormat::F32)
            .seed(13)
    }

    fn eager_policy() -> ReshardingPolicy {
        ReshardingPolicy { divergence_threshold: 0.01, min_traffic: 1, cooldown_ms: 0 }
    }

    /// Shared-arena builder + its epoch cell, as the runtime wires them.
    fn prepared() -> (MicroRecBuilder, Arc<GenerationCell>) {
        let mut builder = skewed_builder();
        builder.prepare_shared_arena().unwrap();
        let arena = Arc::clone(builder.shared_arena_handle().unwrap());
        let cell = GenerationCell::new(ArenaGeneration::from_arena(arena));
        let builder = builder.epoch_cell(Arc::clone(&cell));
        (builder, cell)
    }

    fn queries(n: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| (0..4).map(|j| ((i * 7919 + j * 104_729) % 100_000) as u64).collect())
            .collect()
    }

    #[test]
    fn channels_for_plan_matches_engine_channel_assignment() {
        // Plan-only derivation must agree with the catalog-backed one, for
        // a merged production model and for the unmerged skewed model.
        for engine in [
            MicroRec::builder(ModelSpec::small_production()).seed(5).build().unwrap(),
            skewed_builder().build().unwrap(),
        ] {
            let n = engine.model().num_tables();
            assert_eq!(
                channels_for_plan(engine.plan(), n),
                channel_assignment(engine.catalog(), engine.plan()),
                "{}",
                engine.model().name
            );
        }
    }

    #[test]
    fn uniform_counters_never_migrate_and_gates_hold() {
        let (builder, cell) = prepared();
        let mut resharder =
            Resharder::from_builder(&builder, Arc::clone(&cell), eager_policy()).unwrap();
        // Uniform skew: nothing to move.
        assert!(!resharder.evaluate(&[0; 4], &[500, 500, 500, 500]).unwrap());
        // Below min_traffic: gated even under heavy skew.
        resharder.set_policy(ReshardingPolicy { min_traffic: 1_000_000, ..eager_policy() });
        assert!(!resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap());
        // Counter slices of the wrong arity are ignored, not an error.
        assert!(!resharder.evaluate(&[0; 3], &[1, 2, 3]).unwrap());
        assert_eq!(cell.version(), 0, "no migration may have published");
        assert!(resharder.records().is_empty());
    }

    #[test]
    fn skewed_counters_publish_a_bit_identical_generation() {
        let (builder, cell) = prepared();
        let mut engine = builder.clone().build().unwrap();
        let qs = queries(24);
        let want: Vec<f32> = qs.iter().map(|q| engine.predict(q).unwrap()).collect();

        let mut resharder =
            Resharder::from_builder(&builder, Arc::clone(&cell), eager_policy()).unwrap();
        let migrated = resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap();
        assert!(migrated, "hot-pair skew must trigger a migration");
        assert_eq!(cell.version(), 1);
        assert_eq!(cell.snapshot().generation, 1);

        let record = &resharder.records()[0];
        assert_eq!(record.generation, 1);
        assert_eq!(record.trigger_misses, 1802);
        assert!(record.divergence > 0.0, "divergence {}", record.divergence);
        assert!(record.new_weighted_us < record.old_weighted_us);
        assert!(record.tables_moved > 0);
        assert!(record.build_us >= 0.0 && record.swap_us >= 0.0);

        // The engine adopts at its next batch boundary; results are
        // bit-identical across the swap.
        for (q, w) in qs.iter().zip(&want) {
            assert_eq!(engine.predict(q).unwrap().to_bits(), w.to_bits());
        }
        assert_eq!(engine.store_generation(), 1, "engine must serve the new generation");

        // The same cumulative counters again: the window is empty now, so
        // nothing further fires.
        assert!(!resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap());
    }

    #[test]
    fn reversed_skew_migrates_back_and_cooldown_gates_it() {
        let (builder, cell) = prepared();
        let mut resharder =
            Resharder::from_builder(&builder, Arc::clone(&cell), eager_policy()).unwrap();
        assert!(resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap());
        // Phase shift: the new hot pair is the two tables the migrated
        // layout co-locates on one channel (reversing the original skew
        // outright would be a genuine no-op — the split layout already
        // separates that pair). Counters stay cumulative.
        let shifted_h = [0u64; 4];
        let shifted_m = [1_800, 901, 901, 2];
        // A long cooldown holds the reversal back ...
        resharder.set_policy(ReshardingPolicy { cooldown_ms: 3_600_000, ..eager_policy() });
        assert!(!resharder.evaluate(&shifted_h, &shifted_m).unwrap());
        // ... force skips the gate, and a second force with no new skew
        // does nothing.
        assert!(resharder.force_migrate(&shifted_h, &shifted_m).unwrap());
        assert_eq!(cell.version(), 2);
        assert_eq!(resharder.records().len(), 2);
        assert!(!resharder.force_migrate(&shifted_h, &shifted_m).unwrap());
    }

    #[test]
    fn rotated_skew_migrates_again_without_force() {
        let (builder, cell) = prepared();
        let mut resharder =
            Resharder::from_builder(&builder, Arc::clone(&cell), eager_policy()).unwrap();
        assert!(resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap());
        // Rotate the skew onto whichever pair the migrated layout
        // co-locates: the cold-table tie-break moves with counter noise,
        // so the pair must be observed, not predicted.
        let channels = resharder.channels().to_vec();
        let partner = (1..4).find(|&t| channels[t] == channels[0]).expect("co-located partner");
        let mut misses = [900u64, 900, 1, 1];
        misses[0] += 900;
        misses[partner] += 900;
        assert!(
            resharder.evaluate(&[0; 4], &misses).unwrap(),
            "rotated skew must clear the divergence gate unforced"
        );
        assert_eq!(resharder.records().len(), 2);
        assert_eq!(cell.version(), 2);
        assert!(resharder.records()[1].tables_moved > 0);
    }

    #[test]
    fn panic_mid_build_leaves_the_old_generation_serving() {
        let (builder, cell) = prepared();
        let mut engine = builder.clone().build().unwrap();
        let qs = queries(16);
        let want: Vec<f32> = qs.iter().map(|q| engine.predict(q).unwrap()).collect();

        let mut resharder =
            Resharder::from_builder(&builder, Arc::clone(&cell), eager_policy()).unwrap();
        resharder.set_build_hook(|| panic!("injected rebuild fault"));
        let err = resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap_err();
        assert!(err.to_string().contains("old generation keeps serving"), "{err}");
        assert_eq!(cell.version(), 0, "a failed build must publish nothing");
        assert!(resharder.records().is_empty());

        // The serving path is untouched: same generation, same bits.
        for (q, w) in qs.iter().zip(&want) {
            assert_eq!(engine.predict(q).unwrap().to_bits(), w.to_bits());
        }
        assert_eq!(engine.store_generation(), 0);

        // Clearing the fault lets the retry succeed with the same window.
        resharder.build_hook = None;
        assert!(resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap());
        assert_eq!(engine.predict(&qs[0]).unwrap().to_bits(), want[0].to_bits());
        assert_eq!(engine.store_generation(), 1);
    }

    #[test]
    fn tiered_generation_migrates_and_stays_bit_identical() {
        // Same trigger through the tiered twin: resident arena relocates,
        // cold rows stay put, predictions keep their bits.
        let budget = 200_000 * 16 * 4; // hot-big resident, rest cold
        let mut builder = skewed_builder().tiered_storage(budget, RowFormat::F32);
        builder.prepare_shared_arena().unwrap();
        let backing = Arc::clone(builder.shared_tiered_handle().unwrap());
        let cell = GenerationCell::new(ArenaGeneration::from_backing(backing));
        let builder = builder.epoch_cell(Arc::clone(&cell));
        let mut engine = builder.clone().build().unwrap();
        let qs = queries(16);
        let want: Vec<f32> = qs.iter().map(|q| engine.predict(q).unwrap()).collect();

        let mut resharder =
            Resharder::from_builder(&builder, Arc::clone(&cell), eager_policy()).unwrap();
        assert!(resharder.evaluate(&[0; 4], &[900, 900, 1, 1]).unwrap());
        assert_eq!(cell.snapshot().generation, 1);
        for (q, w) in qs.iter().zip(&want) {
            assert_eq!(engine.predict(q).unwrap().to_bits(), w.to_bits());
        }
        assert_eq!(engine.store_generation(), 1);
    }
}
