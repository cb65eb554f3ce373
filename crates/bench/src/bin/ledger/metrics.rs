//! The ledger's metric catalogue: every name, its unit, which direction is
//! better, the regression bound of each end-to-end metric, and — for a
//! layer metric — which end-to-end metric on which workload it should
//! move. `BENCHMARK.json` repeats the first three columns; a unit test
//! keeps the two in step.

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A per-layer metric, measured in the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "qps", unit: "items/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "rss_mb", unit: "MB", better: "lower", bound: 0.15 },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

const SETUP: &str = "setup_s on every workload";
const FC: &str =
    "fc-batch.qps ~1:1; serve-open.p50_us/p95_us; <=30% on lookup-batch; none on serve-sat";
const LOOKUP: &str = "lookup-batch.qps; <1% on fc-batch";
const COLD: &str = "lookup-cold.qps/p95_us; none on lookup-batch";
const ASYNC: &str =
    "not gated: lookup-cold with the builder's default prefetch workers, too unsteady to bound";
const RUNTIME: &str = "serve-sat.qps; serve-open.p50_us";
const EXACT: &str = "none: simulated, must not move unless a PR says so";
const CONTEXT: &str = "none: context for reading the other numbers";

pub const PER_LAYER: [Layer; 57] = [
    layer("fail_frac", "fraction", "lower", "gate: any rise on any workload is a regression"),
    layer("placement.search_s", "s", "lower", SETUP),
    layer("embedding.catalog_build_s", "s", "lower", SETUP),
    layer("embedding.arena_build_s", "s", "lower", SETUP),
    layer("embedding.cold_build_s", "s", "lower", SETUP),
    layer("dnn.pack_s", "s", "lower", SETUP),
    layer("core.engine.build_self_s", "s", "lower", SETUP),
    layer("core.runtime.start_s", "s", "lower", SETUP),
    layer("dnn.fc_us_per_item", "us", "lower", FC),
    layer("dnn.layer0_us_per_batch", "us", "lower", FC),
    layer("dnn.layer1_us_per_batch", "us", "lower", FC),
    layer("dnn.layer2_us_per_batch", "us", "lower", FC),
    layer("dnn.layer3_us_per_batch", "us", "lower", FC),
    layer("dnn.macs_per_item", "count", "lower", CONTEXT),
    layer("dnn.gmacs_per_s", "GMAC/s", "higher", FC),
    layer("dnn.roofline_frac", "fraction", "higher", FC),
    layer("core.engine.predict_us_per_item", "us", "lower", "qps of the three batch workloads"),
    layer("core.engine.gather_us_per_item", "us", "lower", LOOKUP),
    layer("core.engine.other_us_per_item", "us", "lower", LOOKUP),
    layer("memsim.simlookup_us_per_item", "us", "lower", LOOKUP),
    layer("embedding.resolve_ns_per_lookup", "ns", "lower", LOOKUP),
    layer("embedding.rows_ns_per_lookup", "ns", "lower", LOOKUP),
    layer("embedding.bytes_per_item", "B", "lower", CONTEXT),
    layer("embedding.stream_frac", "fraction", "higher", LOOKUP),
    layer("embedding.cache_ns_per_lookup", "ns", "lower", COLD),
    layer("embedding.cache_hit_frac", "fraction", "higher", COLD),
    layer("embedding.cold_reads_per_item", "count", "lower", COLD),
    layer("embedding.prefetch_hit_frac", "fraction", "higher", COLD),
    layer("embedding.cold_bytes_per_item", "B", "lower", COLD),
    layer("embedding.cold_us_per_read", "us", "lower", COLD),
    layer("embedding.cold_errors", "count", "lower", COLD),
    layer("embedding.cold_async_items_per_s", "items/s", "higher", ASYNC),
    layer("embedding.cold_async_p50_us", "us", "lower", ASYNC),
    layer("core.runtime.submit_ns", "ns", "lower", RUNTIME),
    layer("core.runtime.mean_batch", "count", "higher", RUNTIME),
    layer("core.runtime.deadline_close_frac", "fraction", "lower", RUNTIME),
    layer("core.runtime.size_close_frac", "fraction", "higher", RUNTIME),
    layer("core.runtime.rejected", "count", "lower", "serve-open fail_frac"),
    layer("core.runtime.inner_p50_us", "us", "lower", RUNTIME),
    layer("core.runtime.overhead_us_per_item", "us", "lower", RUNTIME),
    layer("workload.gen_ns_per_query", "ns", "lower", CONTEXT),
    layer("workload.gen_lag_us_p99", "us", "lower", "validity of serve-open: must stay < 100 us"),
    layer("memsim.sim_lookup_ns", "ns", "lower", EXACT),
    layer("accel.sim_latency_us", "us", "lower", EXACT),
    layer("accel.sim_items_per_s", "items/s", "higher", EXACT),
    layer("placement.rounds", "count", "lower", EXACT),
    layer("placement.tables_merged", "count", "higher", EXACT),
    layer("host.cores", "count", "higher", CONTEXT),
    layer("host.simd", "bitmask", "higher", CONTEXT),
    layer("host.peak_gmacs_per_s", "GMAC/s", "higher", CONTEXT),
    layer("host.stream_gbps", "GB/s", "higher", CONTEXT),
    layer("trace.overhead_frac", "fraction", "lower", CONTEXT),
    layer(
        "tail.p95_us",
        "us",
        "lower",
        "not gated: inter-quartile spread over seeds is 20-40% on the serve workloads",
    ),
    layer("tail.p99_us", "us", "lower", "not gated: three same-seed probes differed by >10%"),
    layer("tail.samples", "count", "higher", CONTEXT),
    layer("load.sent", "count", "higher", CONTEXT),
    layer(
        "load.qps_segment_spread",
        "fraction",
        "lower",
        "not gated: (fastest - slowest) / fastest kept segment; a stall the best segment hides",
    ),
];

/// Measured values of one run by metric name; the catalogue gives the
/// reporting order.
pub type Values = std::collections::HashMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use microrec_json::Json;

    /// Whether `s` is a legal metric or workload name.
    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    /// Whether `s` is a legal unit.
    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(is_name(name), "bad name {name:?}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (unit, better) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
        {
            assert!(is_unit(unit), "bad unit {unit:?}");
            assert!(better == "lower" || better == "higher");
        }
        assert!(!is_name(".hidden") && !is_name("a b") && !is_name("µs") && !is_name(""));
        assert!(!is_unit("µs") && is_unit("items/s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    /// `BENCHMARK.json` at the root of the repository.
    const MANIFEST: &str = include_str!("../../../../../BENCHMARK.json");

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key).unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_catalogue() {
        let doc = Json::parse(MANIFEST).unwrap();
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
        let Json::Obj(top) = &doc else { panic!("BENCHMARK.json must be an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let str_of = |j: &Json, k: &str| field(j, k).as_str().unwrap().to_string();
        let workloads = field(&doc, "workloads").as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((str_of(j, "name"), str_of(j, "why")), (w.name.into(), w.why.into()));
        }
        let e2e = field(&doc, "end_to_end").as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better);
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
        }
        let layers = field(&doc, "per_layer").as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(j, "name"), m.name);
            assert_eq!(str_of(j, "unit"), m.unit);
            assert_eq!(str_of(j, "better"), m.better);
        }
        let seconds = field(&doc, "run_seconds").as_u64().unwrap();
        assert!((1..=60).contains(&seconds));
    }
}
