//! Compiled model artifacts.
//!
//! The paper scales *one* image stream across devices (model parallelism
//! over MaxRing); a serving deployment additionally replicates the whole
//! compiled pipeline N times and shards *images* across the replicas —
//! FINN-R's "multiple accelerator instances" pattern, generalized here to
//! a **portfolio of models** (FINN-R's own evolution: one hand-built
//! accelerator → a framework serving many quantized networks).
//!
//! A [`ModelArtifact`] is the unit the serving layer schedules against:
//! one immutable snapshot of (parameters, compile options, weight
//! version), behind an `Arc` so a whole replica pool shares one copy of
//! the source parameters. A *replica* is a serving worker holding one
//! elaborated pipeline of the artifact ([`ModelArtifact::pipeline`]) that
//! it loads and runs batch after batch — the device is configured once
//! and then streamed, as in the paper — and replaces when a batch arrives
//! stamped with another weight version.
//!
//! Weight swapping is modeled exactly like the paper's PCIe parameter
//! streaming: publishing new weights produces a *new* artifact with a
//! bumped [`ModelArtifact::version`]; batches already dispatched keep
//! their `Arc` to the old snapshot and finish on it, later batches pick
//! up the new one — parameter versions can never mix inside one batch.

use crate::lower::{elaborate, CompileOptions, CompiledNetwork, OptionsError};
use qnn_nn::Network;
use std::fmt;
use std::sync::Arc;

/// The published weights for a model do not fit the registered
/// architecture: hot swapping replaces parameters, never the spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecMismatch;

impl fmt::Display for SpecMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "published weights belong to a different architecture")
    }
}

impl std::error::Error for SpecMismatch {}

/// One immutable compiled snapshot of a model: parameters + compile
/// options + weight version. Cheap to clone by handle (`Arc`), safe to
/// share across replica workers, and the unit of atomicity for weight
/// swaps (a batch runs entirely on the artifact it was dispatched with).
pub struct ModelArtifact {
    net: Arc<Network>,
    opts: CompileOptions,
    version: u64,
}

impl ModelArtifact {
    /// Build the version-0 artifact for `net` under `opts`.
    ///
    /// The options are checked here, once, by elaborating the network: a
    /// bad placement, layer label or stream name fails at registration
    /// time, not on the first dispatched batch.
    pub fn try_new(net: &Network, opts: &CompileOptions) -> Result<Self, OptionsError> {
        elaborate(net, opts)?;
        Ok(Self { net: Arc::new(net.clone()), opts: opts.clone(), version: 0 })
    }

    /// A new artifact with `net`'s parameters and this artifact's options,
    /// at `version + 1` — the hot-swap step. Fails if `net` is a different
    /// architecture than the registered one.
    pub fn with_weights(&self, net: Network) -> Result<Self, SpecMismatch> {
        if net.spec != self.net.spec {
            return Err(SpecMismatch);
        }
        Ok(Self {
            net: Arc::new(net),
            opts: self.opts.clone(),
            version: self.version + 1,
        })
    }

    /// Weight version: 0 at registration, +1 per publish.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The parameter snapshot this artifact serves.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Compile options (placement, FIFO sizing) this artifact was built with.
    pub fn options(&self) -> &CompileOptions {
        &self.opts
    }

    /// Elaborate one pipeline instance of this artifact, ready to
    /// [`load`](CompiledNetwork::load) and [`run`](CompiledNetwork::run)
    /// batch after batch. Each batch runs exactly as [`crate::run_images`]
    /// on the artifact's network and options would run it — logits *and*
    /// cycle reports — which is what keeps serving bit-identical to direct
    /// execution.
    pub fn pipeline(&self) -> CompiledNetwork {
        elaborate(&self.net, &self.opts)
            .expect("options were checked in try_new, and with_weights keeps the spec")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn_nn::models;
    use qnn_tensor::Tensor3;
    use qnn_testkit::Rng;

    fn image(side: usize, seed: u64) -> Tensor3<i8> {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor3::from_fn(qnn_tensor::Shape3::square(side, 3), |_, _, _| {
            rng.gen_range(-127i8..=127)
        })
    }

    #[test]
    fn with_weights_bumps_version_and_swaps_parameters() {
        let spec = models::test_net(8, 4, 2);
        let old = Network::random(spec.clone(), 1);
        let new = Network::random(spec, 2);
        let a0 = ModelArtifact::try_new(&old, &CompileOptions::default()).expect("valid options");
        assert_eq!(a0.version(), 0);
        let a1 = a0.with_weights(new.clone()).expect("same spec");
        assert_eq!(a1.version(), 1);
        let img = image(8, 5);
        for (artifact, net) in [(&a0, &old), (&a1, &new)] {
            let mut pipeline = artifact.pipeline();
            pipeline.load(std::slice::from_ref(&img));
            let got = pipeline.run().expect("sim run");
            assert_eq!(got.logits[0], net.forward(&img).logits);
        }
    }

    #[test]
    fn with_weights_rejects_a_different_architecture() {
        let a = ModelArtifact::try_new(
            &Network::random(models::test_net(8, 4, 2), 1),
            &CompileOptions::default(),
        )
        .expect("valid options");
        let other = Network::random(models::test_net(8, 3, 2), 1);
        assert_eq!(a.with_weights(other).err(), Some(SpecMismatch));
    }
}
