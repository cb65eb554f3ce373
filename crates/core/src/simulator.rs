//! The paper's hardware, simulated: the Algorithm-1 placement plan applied
//! to the hybrid HBM/DDR/on-chip memory, the Cartesian-merged catalog the
//! plan stores, and the accelerator's pipeline timing.
//!
//! A [`Simulator`] stands in for the U280 (PAPER.md §2). It serves no
//! predictions: the served CPU engine is [`MicroRec`](crate::MicroRec),
//! which runs no placement search. The simulated memory sees a read stream
//! only when [`Simulator::observe`] or [`Simulator::measure_lookup`] hands
//! it one.

use microrec_accel::{AccelConfig, Pipeline};
use microrec_embedding::{Catalog, EmbeddingError, ModelSpec, Precision};
use microrec_memsim::{AddressedRead, HybridMemory, MemoryConfig, RowPolicy, SimTime};
use microrec_placement::{heuristic_search, HeuristicOptions, Plan, PlanCost};

use crate::error::MicroRecError;

/// The simulated memory and accelerator for one model (the crate docs
/// show one in use).
#[derive(Debug, Clone)]
pub struct Simulator {
    model: ModelSpec,
    precision: Precision,
    catalog: Catalog,
    plan: Plan,
    cost: PlanCost,
    memory: HybridMemory,
    /// Byte offset of every (table, replica) region in `memory`.
    region_offsets: Vec<Vec<u64>>,
    pipeline: Pipeline,
}

impl Simulator {
    /// Runs Algorithm 1 for `model` on the U280's memory
    /// ([`MemoryConfig::u280`]) under `options`, applies the plan to a
    /// fresh memory, builds the merged catalog and the accelerator
    /// pipeline at `precision` (the paper's PE counts for a three-layer
    /// MLP, a generic allocation otherwise). The catalog's tables are the
    /// procedural ones of seed 0: nothing the simulator reports reads a
    /// row's values.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] if the model is inconsistent, does not fit
    /// the U280, or the accelerator cannot be built for it.
    pub fn build(
        model: &ModelSpec,
        precision: Precision,
        options: &HeuristicOptions,
    ) -> Result<Self, MicroRecError> {
        model.validate()?;
        let memory = MemoryConfig::u280();
        let outcome = heuristic_search(model, &memory, Precision::F32, options)?;
        let (plan, cost) = (outcome.plan, outcome.cost);
        let mut memory = HybridMemory::new(memory);
        plan.apply(&mut memory)?;
        let mut region_offsets = Vec::with_capacity(plan.placed.len());
        for table in &plan.placed {
            let mut offsets = Vec::with_capacity(table.banks.len());
            for (r, &bank) in table.banks.iter().enumerate() {
                let label = if table.banks.len() > 1 {
                    format!("{}#r{r}", table.spec.name)
                } else {
                    table.spec.name.clone()
                };
                offsets.push(memory.region_offset(bank, &label)?);
            }
            region_offsets.push(offsets);
        }
        let catalog = Catalog::build(model, &plan.merge, 0)?;
        let accel = if model.hidden.len() == 3 {
            AccelConfig::for_model(model, precision)
        } else {
            AccelConfig::generic(model, precision)
        };
        let pipeline = Pipeline::build(model, &accel, cost.lookup_latency)?;
        Ok(Simulator {
            model: model.clone(),
            precision,
            catalog,
            plan,
            cost,
            memory,
            region_offsets,
            pipeline,
        })
    }

    /// The simulated model.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// Datapath precision of the simulated accelerator.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The Cartesian-merged catalog the plan stores (logical→physical
    /// mapping).
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The chosen placement plan.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The plan's cost summary (lookup latency, rounds, storage).
    #[must_use]
    pub fn placement_cost(&self) -> &PlanCost {
        &self.cost
    }

    /// The pipeline timing model.
    #[must_use]
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The hybrid memory with the plan applied (capacity ledger + access
    /// statistics of the reads [`Simulator::observe`] and
    /// [`Simulator::measure_lookup`] issued).
    #[must_use]
    pub fn memory(&self) -> &HybridMemory {
        &self.memory
    }

    /// End-to-end single-item inference latency.
    #[must_use]
    pub fn latency(&self) -> SimTime {
        self.pipeline.latency()
    }

    /// Steady-state throughput in items per second.
    #[must_use]
    pub fn throughput_items_per_sec(&self) -> f64 {
        self.pipeline.throughput_items_per_sec()
    }

    /// Operations per second (the paper's GOP/s metric).
    #[must_use]
    pub fn throughput_ops_per_sec(&self) -> f64 {
        self.model.flops_per_item() as f64 * self.throughput_items_per_sec()
    }

    /// Time to process `n` items through the pipeline.
    #[must_use]
    pub fn batch_latency(&self, n: u64) -> SimTime {
        self.pipeline.batch_latency(n)
    }

    /// Sets the DRAM page policy of the simulated memory (closed page by
    /// default; open page lets Zipf-skewed traffic hit open rows).
    pub fn set_row_policy(&mut self, policy: RowPolicy) {
        self.memory.set_row_policy(policy);
    }

    /// Resets accumulated memory statistics.
    pub fn reset_stats(&mut self) {
        self.memory.reset_stats();
    }

    /// Issues the reads the FPGA would make for `queries`, served as one
    /// batch: per lookup round, one parallel read of every query's
    /// physical tables (one read per physical table per query and round,
    /// at its placed byte address, replicas round-robin across rounds).
    /// Statistics accumulate in [`Simulator::memory`]. Returns the
    /// simulated lookup time, the rounds' elapsed times summed.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries. Every query's
    /// arity is checked before any read; a bad row index fails its round,
    /// and the rounds before it stay recorded.
    pub fn observe(&mut self, queries: &[Vec<u64>]) -> Result<SimTime, MicroRecError> {
        for query in queries {
            self.check_query(query)?;
        }
        self.read(queries)
    }

    /// Measures the lookup-stage time of one query against the simulated
    /// memory (row-buffer state included): the reads
    /// [`Simulator::observe`] issues for the query alone.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError`] for malformed queries.
    pub fn measure_lookup(&mut self, query: &[u64]) -> Result<SimTime, MicroRecError> {
        self.check_query(query)?;
        self.read(&[query])
    }

    /// Checks a query's arity against the model.
    fn check_query(&self, query: &[u64]) -> Result<(), MicroRecError> {
        let expected = self.model.num_tables() * self.model.lookups_per_table as usize;
        if query.len() != expected {
            return Err(EmbeddingError::ArityMismatch { expected, actual: query.len() }.into());
        }
        Ok(())
    }

    /// Maps one resolved lookup to a physical read (replicas round-robin
    /// across lookup rounds).
    fn addressed_read(&self, table: usize, row: u64, round: usize) -> AddressedRead {
        let placed = &self.plan.placed[table];
        let replica = round % placed.banks.len();
        let row_bytes = placed.row_bytes(self.plan.precision);
        let offset = self.region_offsets[table][replica] + row * u64::from(row_bytes);
        AddressedRead::new(placed.banks[replica], offset, row_bytes)
    }

    /// Issues the reads of `queries`, each of the model's lookup rounds
    /// over the catalog's logical tables: per round, one parallel read
    /// holding one read per physical table per query. Returns the rounds'
    /// summed elapsed time. A query that fails to resolve fails the call;
    /// the rounds before it stay recorded.
    ///
    /// One request buffer, sized for a round, serves every round.
    fn read<Q: AsRef<[u64]>>(&mut self, queries: &[Q]) -> Result<SimTime, MicroRecError> {
        let tables = self.catalog.logical_tables().len();
        let mut total = SimTime::ZERO;
        let mut requests = Vec::with_capacity(queries.len() * self.catalog.physical_tables().len());
        for round in 0..self.model.lookups_per_table as usize {
            requests.clear();
            for query in queries {
                let indices = &query.as_ref()[round * tables..(round + 1) * tables];
                self.catalog.resolve_with(indices, |lookup| {
                    requests.push(self.addressed_read(lookup.table, lookup.row, round));
                })?;
            }
            total += self.memory.parallel_read_addressed(&requests)?.elapsed;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_drives_memory_statistics() {
        let options = HeuristicOptions::default();
        let mut sim =
            Simulator::build(&ModelSpec::dlrm_rmc2(6, 8), Precision::Fixed16, &options).unwrap();
        assert!(sim.latency().as_us() < 100.0 && sim.throughput_items_per_sec() > 1e4);
        assert_eq!(sim.observe(&[]).unwrap(), SimTime::ZERO);
        let q = vec![0u64; 24];
        let elapsed = sim.observe(std::slice::from_ref(&q)).unwrap();
        // 6 physical tables x 4 rounds = 24 reads.
        assert_eq!(sim.memory().stats().total().reads, 24);
        assert!(elapsed > SimTime::ZERO);
        sim.reset_stats();
        assert_eq!(sim.memory().stats().total().reads, 0);
        // One query observed alone is what `measure_lookup` times.
        assert_eq!(sim.measure_lookup(&q).unwrap(), elapsed);
        sim.reset_stats();
        sim.observe(&vec![q; 7]).unwrap();
        assert_eq!(sim.memory().stats().total().reads, 7 * 24);
    }

    #[test]
    fn malformed_query_rejected() {
        let options = HeuristicOptions::default();
        let mut sim =
            Simulator::build(&ModelSpec::dlrm_rmc2(6, 8), Precision::Fixed16, &options).unwrap();
        assert!(sim.observe(&[vec![0u64; 24], vec![0u64; 23]]).is_err());
        assert_eq!(sim.memory().stats().total().reads, 0, "arity is checked before any read");
        let mut q = vec![0u64; 24];
        q[3] = u64::MAX;
        assert!(sim.observe(&[q]).is_err());
        assert!(sim.measure_lookup(&[0u64; 25]).is_err());
    }

    #[test]
    fn production_simulator_matches_table3() {
        let options = HeuristicOptions::default();
        let sim =
            Simulator::build(&ModelSpec::small_production(), Precision::Fixed16, &options).unwrap();
        assert_eq!(sim.plan().num_tables(), 42);
        assert_eq!(sim.placement_cost().dram_rounds, 1);
        // Memory ledger reflects the plan.
        let allocated: u64 = sim.memory().banks().map(|b| b.used()).sum();
        assert_eq!(allocated, sim.placement_cost().storage_bytes);
    }
}
