//! Pins the paper's memory simulator: a digest of every simulated time and
//! counter it reports for a fixed Zipf(1.05) trace on the small production
//! model, under closed and open page. The simulator stands in for the
//! accelerator's memory timing, so none of these numbers may move unless a
//! change says it moves them.

use microrec_core::Simulator;
use microrec_embedding::{ModelSpec, Precision};
use microrec_memsim::{AccessStats, RowPolicy, SimTime};
use microrec_placement::HeuristicOptions;
use microrec_workload::{QueryGenConfig, QueryGenerator};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, stats: &AccessStats) {
        for (bank, s) in stats.iter() {
            for b in format!("{bank:?}").bytes() {
                self.word(u64::from(b));
            }
            self.word(s.reads);
            self.word(s.bytes);
            self.word(s.busy.as_ps());
            self.word(s.row_hits);
        }
    }
}

/// `sim.observe(queries)`, checked against the statistics it leaves: the
/// model has one lookup round, so the batch is one parallel read and its
/// elapsed time is the busiest bank's share of it.
fn observe(sim: &mut Simulator, queries: &[Vec<u64>]) -> SimTime {
    let before = sim.memory().stats().clone();
    let elapsed = sim.observe(queries).expect("batch observes");
    let busy = |s: &AccessStats, bank| s.bank(bank).map_or(SimTime::ZERO, |b| b.busy);
    let busiest = sim
        .memory()
        .stats()
        .iter()
        .map(|(&bank, s)| s.busy.saturating_sub(busy(&before, bank)))
        .fold(SimTime::ZERO, SimTime::max);
    assert_eq!(elapsed, busiest, "one round's time is its busiest bank's");
    elapsed
}

/// The digest of one page policy's run: `measure_lookup` per query and
/// the statistics it leaves, then `observe` per batch of 32 and the
/// statistics those leave.
fn run(policy: RowPolicy) -> u64 {
    let model = ModelSpec::small_production();
    assert_eq!(model.lookups_per_table, 1, "observe's elapsed time assumes one round");
    let options = HeuristicOptions::default();
    let mut sim = Simulator::build(&model, Precision::Fixed16, &options).expect("simulator builds");
    sim.set_row_policy(policy);
    let config = QueryGenConfig { zipf_exponent: 1.05, seed: 0x51_u64 };
    let queries = QueryGenerator::new(&model, config).expect("generator").next_batch(256);

    let mut digest = Digest::new();
    for q in &queries[..64] {
        digest.word(sim.measure_lookup(q).expect("lookup").as_ps());
    }
    assert_eq!(sim.memory().stats().total().reads, 64 * 42);
    digest.stats(sim.memory().stats());
    sim.reset_stats();
    for batch in queries.chunks(32) {
        digest.word(observe(&mut sim, batch).as_ps());
    }
    let total = sim.memory().stats().total();
    assert_eq!(total.reads, 256 * 42);
    assert_eq!(total.row_hits > 0, policy == RowPolicy::OpenPage, "row hits only under open page");
    digest.stats(sim.memory().stats());
    digest.0
}

#[test]
fn simulated_times_and_statistics_are_pinned() {
    let got = [run(RowPolicy::ClosedPage), run(RowPolicy::OpenPage)];
    println!("digests: {:#018x} {:#018x}", got[0], got[1]);
    assert_eq!(got, [0xd019_77b8_2982_269f, 0x3717_114f_961d_89a7]);
}
