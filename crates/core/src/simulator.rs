//! The paper's hardware, simulated: the Algorithm-1 placement plan applied
//! to the hybrid HBM/DDR/on-chip memory, and the accelerator's pipeline
//! timing. A [`MicroRec`](crate::MicroRec) owns one, but serving never
//! drives it: the simulated memory sees a read stream only when
//! [`MicroRec::observe`](crate::MicroRec::observe) or
//! [`MicroRec::measure_lookup`](crate::MicroRec::measure_lookup) hands it
//! one.

use microrec_accel::{AccelConfig, Pipeline};
use microrec_embedding::Catalog;
use microrec_memsim::{AddressedRead, HybridMemory, MemoryConfig, RowPolicy, SimTime};
use microrec_placement::{Plan, PlanCost};

use crate::error::MicroRecError;

/// A fresh `config` memory with `plan` applied, and the byte offset of
/// every (table, replica) region in it, for addressed reads. Kept apart
/// from [`Simulator::new`] because the builder places the memory before
/// it builds the catalog and the row stores, an order the set-up heap
/// goldens (`tests/setup_alloc.rs`) pin.
pub(crate) fn place(
    plan: &Plan,
    config: MemoryConfig,
) -> Result<(HybridMemory, Vec<Vec<u64>>), MicroRecError> {
    let mut memory = HybridMemory::new(config);
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
    Ok((memory, region_offsets))
}

/// The simulated memory and accelerator behind one engine.
#[derive(Debug, Clone)]
pub(crate) struct Simulator {
    plan: Plan,
    cost: PlanCost,
    memory: HybridMemory,
    region_offsets: Vec<Vec<u64>>,
    accel: AccelConfig,
    pipeline: Pipeline,
}

impl Simulator {
    /// Assembles the simulator from a plan, the memory [`place`] built for
    /// it, and the accelerator the plan's lookup latency feeds.
    pub(crate) fn new(
        plan: Plan,
        cost: PlanCost,
        (memory, region_offsets): (HybridMemory, Vec<Vec<u64>>),
        accel: AccelConfig,
        pipeline: Pipeline,
    ) -> Self {
        Simulator { plan, cost, memory, region_offsets, accel, pipeline }
    }

    pub(crate) fn plan(&self) -> &Plan {
        &self.plan
    }

    pub(crate) fn cost(&self) -> &PlanCost {
        &self.cost
    }

    pub(crate) fn memory(&self) -> &HybridMemory {
        &self.memory
    }

    pub(crate) fn accel(&self) -> &AccelConfig {
        &self.accel
    }

    pub(crate) fn pipeline(&self) -> &Pipeline {
        &self.pipeline
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

    pub(crate) fn set_row_policy(&mut self, policy: RowPolicy) {
        self.memory.set_row_policy(policy);
    }

    pub(crate) fn reset_stats(&mut self) {
        self.memory.reset_stats();
    }

    /// Issues the reads of `queries`, each of `rounds` lookup rounds over
    /// the catalog's logical tables: per round, one parallel read holding
    /// one read per physical table per query, at its real byte address
    /// (replicas round-robin across rounds). Returns the rounds' summed
    /// elapsed time. A query that fails to resolve fails the call; the
    /// rounds before it stay recorded.
    ///
    /// One request buffer, sized for a round, serves every round.
    pub(crate) fn read<Q: AsRef<[u64]>>(
        &mut self,
        catalog: &Catalog,
        queries: &[Q],
        rounds: usize,
    ) -> Result<SimTime, MicroRecError> {
        let tables = catalog.logical_tables().len();
        let mut total = SimTime::ZERO;
        let mut requests = Vec::with_capacity(queries.len() * catalog.physical_tables().len());
        for round in 0..rounds {
            requests.clear();
            for query in queries {
                let indices = &query.as_ref()[round * tables..(round + 1) * tables];
                catalog.resolve_with(indices, |lookup| {
                    requests.push(self.addressed_read(lookup.table, lookup.row, round));
                })?;
            }
            total += self.memory.parallel_read_addressed(&requests)?.elapsed;
        }
        Ok(total)
    }
}
