//! Hand-rolled argument parsing (no external CLI dependency).

use std::fmt;

use microrec_embedding::{ModelSpec, Precision};
use microrec_placement::AllocStrategy;

/// Which model to operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelArg {
    /// The smaller Alibaba production model.
    Small,
    /// The larger Alibaba production model.
    Large,
    /// A DLRM-RMC2 instance: `dlrm:<tables>x<dim>`.
    Dlrm {
        /// Number of tables.
        tables: usize,
        /// Embedding vector length.
        dim: u32,
    },
}

impl ModelArg {
    /// Parses `small`, `large`, or `dlrm:<tables>x<dim>`.
    pub fn parse(s: &str) -> Result<Self, ArgError> {
        match s {
            "small" => Ok(ModelArg::Small),
            "large" => Ok(ModelArg::Large),
            other => {
                let spec = other
                    .strip_prefix("dlrm:")
                    .ok_or_else(|| ArgError(format!("unknown model `{other}`")))?;
                let (t, d) = spec.split_once('x').ok_or_else(|| {
                    ArgError(format!("expected dlrm:<tables>x<dim>, got `{other}`"))
                })?;
                let tables =
                    t.parse::<usize>().map_err(|_| ArgError(format!("bad table count `{t}`")))?;
                let dim = d.parse::<u32>().map_err(|_| ArgError(format!("bad dim `{d}`")))?;
                if tables == 0 || dim == 0 {
                    return Err(ArgError("tables and dim must be positive".into()));
                }
                Ok(ModelArg::Dlrm { tables, dim })
            }
        }
    }

    /// Builds the corresponding spec.
    #[must_use]
    pub fn to_spec(&self) -> ModelSpec {
        match self {
            ModelArg::Small => ModelSpec::small_production(),
            ModelArg::Large => ModelSpec::large_production(),
            ModelArg::Dlrm { tables, dim } => ModelSpec::dlrm_rmc2(*tables, *dim),
        }
    }
}

/// Parses a precision flag value.
pub fn parse_precision(s: &str) -> Result<Precision, ArgError> {
    match s {
        "f32" => Ok(Precision::F32),
        "fixed16" | "fp16" => Ok(Precision::Fixed16),
        "fixed32" | "fp32" => Ok(Precision::Fixed32),
        other => Err(ArgError(format!("unknown precision `{other}` (f32|fixed16|fixed32)"))),
    }
}

/// Parses a strategy flag value.
pub fn parse_strategy(s: &str) -> Result<AllocStrategy, ArgError> {
    match s {
        "roundrobin" | "rr" => Ok(AllocStrategy::RoundRobin),
        "lpt" => Ok(AllocStrategy::Lpt),
        other => Err(ArgError(format!("unknown strategy `{other}` (roundrobin|lpt)"))),
    }
}

/// Parses a byte-count flag value: a plain integer with an optional
/// `k`/`m`/`g` (binary) suffix, case-insensitive.
pub fn parse_bytes(s: &str) -> Result<u64, ArgError> {
    let (digits, shift) = match s.as_bytes().last().map(u8::to_ascii_lowercase) {
        Some(b'k') => (&s[..s.len() - 1], 10),
        Some(b'm') => (&s[..s.len() - 1], 20),
        Some(b'g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n = digits.parse::<u64>().map_err(|_| ArgError(format!("bad byte count `{s}`")))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| ArgError(format!("byte count `{s}` overflows")))
}

/// A parsing error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand.
    pub command: Command,
}

/// Supported subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run Algorithm 1 and print the placement.
    Plan {
        /// Target model.
        model: ModelArg,
        /// Disable Cartesian merging.
        no_merge: bool,
        /// DRAM allocation strategy.
        strategy: AllocStrategy,
        /// Print the per-bank table map.
        verbose: bool,
        /// Emit the full plan as JSON instead of a summary.
        json: bool,
    },
    /// Run inferences and print CTRs plus engine statistics.
    Predict {
        /// Target model.
        model: ModelArg,
        /// Number of queries.
        queries: usize,
        /// Datapath precision.
        precision: Precision,
        /// Zipf skew of the query stream.
        zipf: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Compare CPU baseline vs MicroRec at one batch size.
    Compare {
        /// Target model.
        model: ModelArg,
        /// CPU batch size.
        batch: u64,
        /// Datapath precision.
        precision: Precision,
    },
    /// Simulate online serving under a Poisson load, or (with `--live`)
    /// drive the real micro-batching runtime with paced wall-clock
    /// arrivals.
    Serve {
        /// Target model.
        model: ModelArg,
        /// Offered load in queries per second.
        rate: f64,
        /// Queries to simulate.
        queries: usize,
        /// SLA in milliseconds.
        sla_ms: f64,
        /// Run the live serving runtime instead of the simulation.
        live: bool,
        /// Worker threads (engine replicas) for the live runtime.
        workers: usize,
        /// Most requests a free worker takes as one micro-batch.
        max_batch: usize,
        /// Admission-queue depth for the live runtime.
        queue_depth: usize,
        /// Reject (drop) requests on a full queue instead of blocking.
        reject: bool,
        /// Resident embedding budget in bytes for the tiered parameter
        /// store (0 = keep every table resident; `k`/`m`/`g` suffixes
        /// accepted). Tables that do not fit are served from a
        /// file-backed cold tier.
        resident_bytes: u64,
    },
    /// Print usage.
    Help,
}

/// `serve --live` flags of execution modes and of online re-sharding, which
/// no longer exist: refused with what the runtime does instead, so a script
/// that asks for one learns it is not getting it.
const REMOVED_SERVE_FLAGS: [&str; 6] =
    ["--pipelined", "--routed", "--slo-us", "--replicated", "--auto", "--adaptive"];

/// The flags `cmd` knows, those that take a value and the switches, or
/// `None` for a command that takes no flags.
fn known_flags(cmd: &str) -> Option<(&'static [&'static str], &'static [&'static str])> {
    Some(match cmd {
        "plan" => (&["--model", "--strategy"], &["--no-merge", "--verbose", "-v", "--json"]),
        "predict" => (&["--model", "--queries", "--precision", "--zipf", "--seed"], &[]),
        "compare" => (&["--model", "--batch", "--precision"], &[]),
        "serve" => (
            &[
                "--model",
                "--rate",
                "--queries",
                "--sla-ms",
                "--workers",
                "--max-batch",
                "--queue-depth",
                "--resident-bytes",
            ],
            &["--live", "--reject"],
        ),
        _ => return None,
    })
}

/// Refuses every argument of `cmd` it does not know, before any is read: a
/// misspelled flag must fail, not leave its default in place unseen.
fn check_flags(cmd: &str, rest: &[&str]) -> Result<(), ArgError> {
    let Some((valued, switches)) = known_flags(cmd) else {
        return Ok(());
    };
    let mut args = rest.iter();
    while let Some(&arg) = args.next() {
        if valued.contains(&arg) {
            if args.next().is_none() {
                return Err(ArgError(format!("{arg} needs a value")));
            }
        } else if cmd == "serve" && REMOVED_SERVE_FLAGS.contains(&arg) {
            return Err(ArgError(format!(
                "{arg} was removed: the live runtime always serves one monolithic engine \
                 replica per worker, on the placement it was started with"
            )));
        } else if !switches.contains(&arg) {
            return Err(ArgError(format!("unknown argument `{arg}` for `{cmd}` (try `help`)")));
        }
    }
    Ok(())
}

/// Parses the full argument vector (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Cli, ArgError> {
    let mut it = args.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Cli { command: Command::Help });
    };
    let rest: Vec<&str> = it.collect();
    check_flags(cmd, &rest)?;
    let flag = |name: &str| -> Option<&str> {
        rest.iter().position(|&a| a == name).and_then(|i| rest.get(i + 1).copied())
    };
    let has = |name: &str| rest.contains(&name);
    let model =
        || -> Result<ModelArg, ArgError> { ModelArg::parse(flag("--model").unwrap_or("small")) };
    let precision = || -> Result<Precision, ArgError> {
        parse_precision(flag("--precision").unwrap_or("fixed16"))
    };

    let command = match cmd {
        "plan" => Command::Plan {
            model: model()?,
            no_merge: has("--no-merge"),
            strategy: parse_strategy(flag("--strategy").unwrap_or("roundrobin"))?,
            verbose: has("--verbose") || has("-v"),
            json: has("--json"),
        },
        "predict" => Command::Predict {
            model: model()?,
            queries: flag("--queries")
                .unwrap_or("10")
                .parse()
                .map_err(|_| ArgError("bad --queries value".into()))?,
            precision: precision()?,
            zipf: flag("--zipf")
                .unwrap_or("1.05")
                .parse()
                .map_err(|_| ArgError("bad --zipf value".into()))?,
            seed: flag("--seed")
                .unwrap_or("42")
                .parse()
                .map_err(|_| ArgError("bad --seed value".into()))?,
        },
        "compare" => Command::Compare {
            model: model()?,
            batch: flag("--batch")
                .unwrap_or("2048")
                .parse()
                .map_err(|_| ArgError("bad --batch value".into()))?,
            precision: precision()?,
        },
        "serve" => Command::Serve {
            model: model()?,
            rate: flag("--rate")
                .unwrap_or("50000")
                .parse()
                .map_err(|_| ArgError("bad --rate value".into()))?,
            queries: flag("--queries")
                .unwrap_or("50000")
                .parse()
                .map_err(|_| ArgError("bad --queries value".into()))?,
            sla_ms: flag("--sla-ms")
                .unwrap_or("25")
                .parse()
                .map_err(|_| ArgError("bad --sla-ms value".into()))?,
            live: has("--live"),
            workers: flag("--workers")
                .unwrap_or("2")
                .parse()
                .map_err(|_| ArgError("bad --workers value".into()))?,
            max_batch: flag("--max-batch")
                .unwrap_or("32")
                .parse()
                .map_err(|_| ArgError("bad --max-batch value".into()))?,
            queue_depth: flag("--queue-depth")
                .unwrap_or("1024")
                .parse()
                .map_err(|_| ArgError("bad --queue-depth value".into()))?,
            reject: has("--reject"),
            resident_bytes: flag("--resident-bytes").map_or(Ok(0), parse_bytes)?,
        },
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(ArgError(format!("unknown command `{other}` (try `help`)"))),
    };
    Ok(Cli { command })
}

/// The usage text.
pub const USAGE: &str = "\
microrec — MicroRec (MLSys 2021) reproduction CLI

USAGE:
  microrec plan    [--model small|large|dlrm:<t>x<d>] [--no-merge] [--strategy roundrobin|lpt] [-v] [--json]
  microrec predict [--model ...] [--queries N] [--precision f32|fixed16|fixed32] [--zipf S] [--seed N]
  microrec compare [--model ...] [--batch N] [--precision ...]
  microrec serve   [--model ...] [--rate QPS] [--queries N] [--sla-ms MS]
  microrec serve --live [--model ...] [--rate QPS] [--queries N] [--workers N] [--max-batch N] [--queue-depth N] [--reject] [--resident-bytes N[k|m|g]]
  microrec help
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn model_arg_parsing() {
        assert_eq!(ModelArg::parse("small").unwrap(), ModelArg::Small);
        assert_eq!(ModelArg::parse("large").unwrap(), ModelArg::Large);
        assert_eq!(ModelArg::parse("dlrm:8x16").unwrap(), ModelArg::Dlrm { tables: 8, dim: 16 });
        assert!(ModelArg::parse("medium").is_err());
        assert!(ModelArg::parse("dlrm:8").is_err());
        assert!(ModelArg::parse("dlrm:0x4").is_err());
        assert!(ModelArg::parse("dlrm:axb").is_err());
    }

    #[test]
    fn model_arg_builds_specs() {
        assert_eq!(ModelArg::Small.to_spec().num_tables(), 47);
        assert_eq!(ModelArg::Dlrm { tables: 9, dim: 8 }.to_spec().num_tables(), 9);
    }

    #[test]
    fn precision_and_strategy_parsing() {
        assert_eq!(parse_precision("fp16").unwrap(), Precision::Fixed16);
        assert_eq!(parse_precision("fixed32").unwrap(), Precision::Fixed32);
        assert_eq!(parse_precision("f32").unwrap(), Precision::F32);
        assert!(parse_precision("f64").is_err());
        assert_eq!(parse_strategy("lpt").unwrap(), AllocStrategy::Lpt);
        assert_eq!(parse_strategy("rr").unwrap(), AllocStrategy::RoundRobin);
        assert!(parse_strategy("greedy").is_err());
    }

    #[test]
    fn full_command_lines() {
        let cli = parse(&argv("plan --model large --no-merge -v --json")).unwrap();
        assert_eq!(
            cli.command,
            Command::Plan {
                model: ModelArg::Large,
                no_merge: true,
                strategy: AllocStrategy::RoundRobin,
                verbose: true,
                json: true
            }
        );
        let cli = parse(&argv("predict --queries 5 --zipf 0.9 --seed 7")).unwrap();
        match cli.command {
            Command::Predict { queries, zipf, seed, .. } => {
                assert_eq!(queries, 5);
                assert_eq!(zipf, 0.9);
                assert_eq!(seed, 7);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = parse(&argv("compare --model dlrm:12x64 --batch 256")).unwrap();
        match cli.command {
            Command::Compare { batch, model, .. } => {
                assert_eq!(batch, 256);
                assert_eq!(model, ModelArg::Dlrm { tables: 12, dim: 64 });
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn defaults_and_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("help")).unwrap().command, Command::Help);
    }

    #[test]
    fn serve_command_parses() {
        let cli = parse(&argv("serve --rate 80000 --sla-ms 10")).unwrap();
        match cli.command {
            Command::Serve { rate, sla_ms, queries, live, workers, .. } => {
                assert_eq!(rate, 80_000.0);
                assert_eq!(sla_ms, 10.0);
                assert_eq!(queries, 50_000);
                assert!(!live);
                assert_eq!(workers, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn serve_live_command_parses() {
        let cli = parse(&argv(
            "serve --live --rate 500 --queries 200 --workers 3 --max-batch 16 \
             --queue-depth 64 --reject",
        ))
        .unwrap();
        match cli.command {
            Command::Serve {
                live, rate, queries, workers, max_batch, queue_depth, reject, ..
            } => {
                assert!(live);
                assert_eq!(rate, 500.0);
                assert_eq!(queries, 200);
                assert_eq!(workers, 3);
                assert_eq!(max_batch, 16);
                assert_eq!(queue_depth, 64);
                assert!(reject);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Not passing the flag leaves the all-resident (untiered) store.
        match parse(&argv("serve --live")).unwrap().command {
            Command::Serve { resident_bytes, .. } => assert_eq!(resident_bytes, 0),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("serve --live --workers many")).is_err());
        assert!(parse(&argv("serve --live --max-batch -1")).is_err());
    }

    #[test]
    fn removed_serve_flags_are_refused() {
        // Every deleted mode's flag, and online re-sharding's, is refused,
        // not ignored, and the message names the flag and says what the
        // runtime does instead.
        for gone in [
            "--pipelined",
            "--routed",
            "--slo-us 2500",
            "--replicated",
            "--auto",
            "--routed --auto",
            "--adaptive",
        ] {
            let err = parse(&argv(&format!("serve --live {gone}"))).unwrap_err();
            let flag = gone.split_whitespace().next().unwrap();
            assert!(err.0.contains(&format!("{flag} was removed")), "{gone}: {err}");
            assert!(err.0.contains("monolithic"), "{gone}: {err}");
        }
        // So is any flag a command does not know: a misspelling must not
        // run with the default it meant to override.
        for (line, typo) in [
            ("predict --quries 5", "--quries"),
            ("serve --live --worker 3", "--worker"),
            ("plan --verbsoe", "--verbsoe"),
            ("compare 64", "64"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.0.contains(&format!("unknown argument `{typo}`")), "{line}: {err}");
        }
        assert!(parse(&argv("predict --queries")).unwrap_err().0.contains("needs a value"));
    }

    #[test]
    fn deleted_extension_surfaces_are_refused() {
        // Neither exists: each fails as any unknown command or argument
        // does, rather than running with a default.
        let err = parse(&argv("explore --top 3")).unwrap_err();
        assert!(err.0.contains("unknown command `explore`"), "{err}");
        let err = parse(&argv("serve --hybrid")).unwrap_err();
        assert!(err.0.contains("unknown argument `--hybrid`"), "{err}");
    }

    #[test]
    fn resident_bytes_flag_parses_with_suffixes() {
        for (arg, want) in
            [("131072", 131_072u64), ("512k", 512 << 10), ("64m", 64 << 20), ("2G", 2 << 30)]
        {
            match parse(&argv(&format!("serve --live --resident-bytes {arg}"))).unwrap().command {
                Command::Serve { resident_bytes, .. } => assert_eq!(resident_bytes, want, "{arg}"),
                other => panic!("wrong command {other:?}"),
            }
        }
        assert_eq!(parse_bytes("0").unwrap(), 0);
        assert!(parse_bytes("lots").is_err());
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err());
        assert!(parse(&argv("serve --live --resident-bytes big")).is_err());
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("predict --queries lots")).is_err());
        assert!(parse(&argv("compare --batch -3")).is_err());
        assert!(parse(&argv("plan --strategy quantum")).is_err());
    }
}
