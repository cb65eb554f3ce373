//! Pipeline topology plans.
//!
//! A [`PipelinePlan`] describes one concrete dataflow topology: how the
//! MLP's layers are grouped into fused FC stages, how many parallel
//! lanes each stage runs, how deep the inter-stage FIFOs are, and how
//! long a blocked endpoint spins before parking. The default plan is one
//! single-lane stage per layer; any other topology is written down by the
//! caller and handed to [`crate::PipelineExecutor::with_plan`]. Which
//! path a batch takes is decided at run time by the router
//! ([`crate::PathCostModel`]) from measured batch latencies, not by a
//! start-up solver.

use microrec_par::DEFAULT_SPIN_ROUNDS;

use crate::error::MicroRecError;

/// One FC stage of a plan: a run of consecutive MLP layers fused onto
/// one thread (per lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcStage {
    /// Number of consecutive layers this stage applies back to back.
    pub layers: usize,
    /// Parallel lanes (threads) this stage runs as.
    pub lanes: usize,
}

/// A concrete pipeline topology: layer grouping, lane counts, FIFO
/// depth, and spin budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinePlan {
    /// Capacity of each inter-stage FIFO, in jobs.
    pub fifo_depth: usize,
    /// Spin rounds before a blocked ring endpoint parks (see
    /// [`microrec_par::SpscRing::with_spin`]).
    pub spin_rounds: usize,
    /// Parallel lanes of the lookup stage (each owns its own engine).
    pub lookup_lanes: usize,
    /// FC stages in layer order; `layers` must sum to the MLP's layer
    /// count.
    pub fc: Vec<FcStage>,
}

impl PipelinePlan {
    /// The fixed topology of the original pipeline: one single-lane
    /// stage per MLP layer.
    #[must_use]
    pub fn per_layer(num_layers: usize, fifo_depth: usize) -> Self {
        PipelinePlan {
            fifo_depth: fifo_depth.max(1),
            spin_rounds: DEFAULT_SPIN_ROUNDS,
            lookup_lanes: 1,
            fc: (0..num_layers.max(1)).map(|_| FcStage { layers: 1, lanes: 1 }).collect(),
        }
    }

    /// Total MLP layers the plan covers.
    #[must_use]
    pub fn num_fc_layers(&self) -> usize {
        self.fc.iter().map(|s| s.layers).sum()
    }

    /// Stage count: lookup + FC stages + sink.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.fc.len() + 2
    }

    /// Checks internal consistency against the engine's layer count.
    ///
    /// # Errors
    ///
    /// Returns [`MicroRecError::Runtime`] when the plan is empty, has a
    /// zero-lane or zero-layer stage, or covers the wrong layer count.
    pub fn validate(&self, num_layers: usize) -> Result<(), MicroRecError> {
        if self.fc.is_empty() {
            return Err(MicroRecError::Runtime("pipeline plan has no FC stages".into()));
        }
        if self.lookup_lanes == 0 || self.fc.iter().any(|s| s.lanes == 0 || s.layers == 0) {
            return Err(MicroRecError::Runtime(
                "pipeline plan has a zero-lane or zero-layer stage".into(),
            ));
        }
        if self.num_fc_layers() != num_layers {
            return Err(MicroRecError::Runtime(format!(
                "pipeline plan covers {} layers but the model has {num_layers}",
                self.num_fc_layers()
            )));
        }
        Ok(())
    }

    /// Compact human-readable topology, e.g.
    /// `"lookup x2 | fc[0] x1 | fc[1-2] x1 | sink"`.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("lookup x{}", self.lookup_lanes);
        let mut layer = 0usize;
        for stage in &self.fc {
            if stage.layers == 1 {
                let _ = write!(s, " | fc[{layer}] x{}", stage.lanes);
            } else {
                let _ = write!(s, " | fc[{layer}-{}] x{}", layer + stage.layers - 1, stage.lanes);
            }
            layer += stage.layers;
        }
        s.push_str(" | sink");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_plan_matches_legacy_topology() {
        let plan = PipelinePlan::per_layer(3, 4);
        assert_eq!(plan.num_stages(), 5);
        assert_eq!(plan.num_fc_layers(), 3);
        assert!(plan.validate(3).is_ok());
        assert!(plan.validate(2).is_err());
        assert_eq!(plan.summary(), "lookup x1 | fc[0] x1 | fc[1] x1 | fc[2] x1 | sink");
    }
}
