//! The last row and the first row past it, in every store the engine
//! serves from: the all-resident arena, the tiered store with a table
//! resident, the tiered store with a table cold, and the catalog's own
//! reads. For every table and lookup round, row `rows - 1` must come back
//! bit-identical from each store through `predict`, `predict_batch` and
//! `gather_features_into`, and row `rows` must be an `IndexOutOfRange`
//! naming that index and row count — an error for the one query, never a
//! panic, and the engine serves the next query as before.

use microrec_core::{MicroRec, MicroRecBuilder, MicroRecError};
use microrec_embedding::{
    EmbeddingError, ModelSpec, Precision, RowFormat, TableSpec, Tier, TieredStore,
};

/// Four tables of distinct row counts and dims, two lookup rounds.
fn model() -> ModelSpec {
    let shapes = [(50, 4), (37, 8), (64, 4), (23, 16)];
    let tables = shapes
        .iter()
        .enumerate()
        .map(|(i, &(rows, dim))| TableSpec::new(format!("t{i}"), rows, dim));
    ModelSpec::new("boundaries", tables.collect(), vec![16], 2)
}

/// Row bytes t0..t3: 800, 1184, 1024, 1472. Smallest first under 1900
/// bytes admits t0 and t2; t1 and t3 are cold.
const BUDGET: u64 = 1900;

/// A builder per store at `precision`: the catalog, which is the
/// reference, the arena and the tiered store (two tables resident, two
/// cold under [`BUDGET`]).
fn stores(precision: Precision) -> [(&'static str, MicroRecBuilder); 3] {
    let base = MicroRec::builder(model()).seed(13).precision(precision);
    [
        ("catalog", base.clone()),
        ("arena", base.clone().embedding_arena(RowFormat::F32)),
        ("tiered", base.tiered_storage(BUDGET, RowFormat::F32)),
    ]
}

/// A query whose lookup of table `table` in round `round` is `row`; every
/// other lookup is a mid-table row.
fn query(model: &ModelSpec, table: usize, round: usize, row: u64) -> Vec<u64> {
    let tables = model.num_tables();
    let mut q: Vec<u64> = (0..tables * model.lookups_per_table as usize)
        .map(|i| (i as u64 * 7 + 3) % model.tables[i % tables].rows)
        .collect();
    q[round * tables + table] = row;
    q
}

/// Asserts `err` is an `IndexOutOfRange` for `index` in a table of `rows`.
fn assert_out_of_range(err: MicroRecError, index: u64, rows: u64, what: &str) {
    match err {
        MicroRecError::Embedding(EmbeddingError::IndexOutOfRange { index: i, rows: r, .. }) => {
            assert_eq!((i, r), (index, rows), "{what}: wrong index or row count");
        }
        other => panic!("{what}: expected IndexOutOfRange, got {other:?}"),
    }
}

#[test]
fn last_row_is_identical_and_one_past_it_fails_in_every_store() {
    let model = model();
    let tables = model.num_tables();
    let rounds = model.lookups_per_table as usize;
    let cases: Vec<(usize, usize)> =
        (0..rounds).flat_map(|r| (0..tables).map(move |t| (t, r))).collect();
    let last: Vec<Vec<u64>> =
        cases.iter().map(|&(t, r)| query(&model, t, r, model.tables[t].rows - 1)).collect();

    for precision in [Precision::F32, Precision::Fixed16, Precision::Fixed32] {
        // The catalog's features and `predict` bits for every case.
        let mut reference = None;
        for (store, builder) in stores(precision) {
            let what = format!("{store}, {precision:?}");
            let mut engine = builder.build().expect("engine builds");
            if store == "tiered" {
                let backing = engine.tiered_store().expect("tiered").backing();
                let tiers: Vec<Tier> = (0..tables).map(|t| backing.tier(t)).collect();
                assert_eq!(tiers, [Tier::Resident, Tier::Cold, Tier::Resident, Tier::Cold]);
            }
            let mut features = Vec::new();
            let mut gathered = Vec::new();
            for q in &last {
                engine.gather_features_into(q, &mut features).expect("last row gathers");
                gathered.push(features.iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
            }
            let single: Vec<u32> = last
                .iter()
                .map(|q| engine.predict(q).expect("last row predicts").to_bits())
                .collect();
            let batch = engine.predict_batch(&last).expect("last rows predict as a batch");
            let batch: Vec<u32> = batch.iter().map(|c| c.to_bits()).collect();
            assert_eq!(batch, single, "{what}: predict_batch differs from predict");

            if precision == Precision::F32 {
                // The features are the tables' own last rows.
                let mut row = [0.0f32; 16];
                for (&(t, r), got) in cases.iter().zip(&gathered) {
                    let table = &engine.catalog().logical_tables()[t];
                    let dim = table.dim() as usize;
                    table.read_row(table.rows() - 1, &mut row[..dim]).expect("table read");
                    let at = r * engine.catalog().feature_len() as usize
                        + model.tables[..t].iter().map(|s| s.dim as usize).sum::<usize>();
                    let want: Vec<u32> = row[..dim].iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got[at..at + dim], want[..], "{what}: table {t} round {r}");
                }
            }

            for &(t, r) in &cases {
                let rows = model.tables[t].rows;
                let bad = query(&model, t, r, rows);
                let case = format!("{what}: table {t} round {r}");
                let err = engine.predict(&bad).expect_err("one past the last row");
                assert_out_of_range(err, rows, rows, &format!("{case}, predict"));
                let err = engine
                    .predict_batch(&[last[0].clone(), bad.clone()])
                    .expect_err("one past the last row");
                assert_out_of_range(err, rows, rows, &format!("{case}, predict_batch"));
                let err =
                    engine.gather_features_into(&bad, &mut features).expect_err("one past the end");
                assert_out_of_range(err, rows, rows, &format!("{case}, gather_features_into"));
            }
            // The failures left nothing behind.
            let again = engine.predict(&last[0]).expect("serves on").to_bits();
            assert_eq!(again, single[0], "{what}: a failed query changed the next answer");
            let served = (gathered, single);
            match &reference {
                None => reference = Some(served),
                Some(want) => assert_eq!(&served, want, "{what}: differs from the catalog"),
            }
        }
    }
    stores_bound_check_their_own_reads();
}

/// The engine resolves a query through the catalog before any store reads
/// it, so the test above never reaches a store's own bound check. Here the
/// arena's `read_row_into` and the tiered store's resident read and cold
/// `read_row`/`decode_row` are called directly at both rows.
fn stores_bound_check_their_own_reads() {
    let [(_, catalog), (_, arena), (_, tiered)] = stores(Precision::F32);
    let catalog = catalog.build().expect("catalog engine");
    let arena = arena.build().expect("arena engine");
    let arena = arena.arena().expect("arena");
    let tiered = tiered.build().expect("tiered engine");
    let mut store: TieredStore = tiered.tiered_store().expect("tiered").clone();
    let logical = catalog.catalog().logical_tables();
    let offsets: Vec<usize> = (0..logical.len())
        .map(|t| logical[..t].iter().map(|table| table.dim() as usize).sum())
        .collect();
    let mut round = vec![0.0f32; catalog.catalog().feature_len() as usize];

    for (t, table) in logical.iter().enumerate() {
        let (rows, dim) = (table.rows(), table.dim() as usize);
        let tier = store.backing().tier(t);
        let what = format!("table {t} ({tier:?})");
        let mut want = vec![0.0f32; dim];
        table.read_row(rows - 1, &mut want).expect("table read");
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

        let mut row = vec![0.0f32; dim];
        arena.read_row_into(t, rows - 1, &mut row).expect("arena reads its last row");
        assert_eq!(row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "{what}: arena");
        let mut indices = vec![0u64; logical.len()];
        indices[t] = rows - 1;
        store.gather_round(&indices, &offsets, &mut round).expect("tiered reads its last row");
        let got: Vec<u32> =
            round[offsets[t]..offsets[t] + dim].iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{what}: tiered");

        let expect_past_end = |err: EmbeddingError, store: &str| match err {
            EmbeddingError::IndexOutOfRange { table: name, index, rows: r } => {
                assert_eq!(
                    (name.as_str(), index, r),
                    (table.name(), rows, rows),
                    "{what}: {store}"
                );
            }
            other => panic!("{what}: {store}: expected IndexOutOfRange, got {other:?}"),
        };
        let err = arena.read_row_into(t, rows, &mut row).expect_err("past the end");
        expect_past_end(err, "arena");
        indices[t] = rows;
        let err = store.gather_round(&indices, &offsets, &mut round).expect_err("past the end");
        expect_past_end(err, "tiered");
    }
    let counters = store.counters();
    assert!(counters.resident_hits > 0 && counters.cold_reads > 0, "both tiers were read");
    assert_eq!(counters.cold_errors, 0, "a bad row index is not an I/O failure");
}
