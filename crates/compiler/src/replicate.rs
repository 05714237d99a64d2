//! Compiled model artifacts and the artifact cache.
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
//!
//! [`ArtifactCache`] is the registration-time cache: per model name,
//! artifacts are keyed by their [`CompileOptions`], so registering the
//! same model again with the same options (or sizing a pool up) reuses
//! the existing snapshot instead of re-cloning parameters.

use crate::lower::{elaborate, CompileOptions, CompiledNetwork};
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
    /// Build version-0 artifact for `net` under `opts`.
    ///
    /// Placement is validated eagerly — a bad `stage_device` vector fails
    /// here, at registration time, not on the first dispatched batch.
    ///
    /// # Panics
    /// Panics when `opts.stage_device` does not name every stage.
    pub fn compile(net: &Network, opts: &CompileOptions) -> Self {
        if let Some(sd) = &opts.stage_device {
            assert_eq!(
                sd.len(),
                net.spec.stages.len(),
                "stage_device must name every stage"
            );
        }
        Self { net: Arc::new(net.clone()), opts: opts.clone(), version: 0 }
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
    ///
    /// # Panics
    /// Panics when the artifact's options name a layer or stream the
    /// network does not have (see [`crate::try_compile`]).
    pub fn pipeline(&self) -> CompiledNetwork {
        elaborate(&self.net, &self.opts)
            .unwrap_or_else(|e| panic!("invalid CompileOptions: {e}"))
    }
}

/// Registration-time artifact cache: per model name, keyed by
/// [`CompileOptions`]. Lets a server (or a bench loop re-registering the
/// same portfolio) share one parameter snapshot per (model, options)
/// instead of cloning the network once per replica.
#[derive(Default)]
pub struct ArtifactCache {
    entries: Vec<(String, CompileOptions, Arc<ModelArtifact>)>,
    hits: u64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached artifact for `(name, opts)`, compiling `net` on miss.
    ///
    /// The cache trusts the caller that one model *name* maps to one
    /// parameter set: publishing new weights for a name goes through
    /// [`Self::publish`], which replaces the name's entries.
    pub fn get_or_compile(
        &mut self,
        name: &str,
        net: &Network,
        opts: &CompileOptions,
    ) -> Arc<ModelArtifact> {
        if let Some((_, _, a)) =
            self.entries.iter().find(|(n, o, _)| n == name && o == opts)
        {
            self.hits += 1;
            return Arc::clone(a);
        }
        let artifact = Arc::new(ModelArtifact::compile(net, opts));
        self.entries.push((name.to_string(), opts.clone(), Arc::clone(&artifact)));
        artifact
    }

    /// Swap weights for every cached artifact of `name`, bumping each
    /// entry's version. Returns the new artifacts (empty if `name` has no
    /// entries).
    pub fn publish(
        &mut self,
        name: &str,
        net: &Network,
    ) -> Result<Vec<Arc<ModelArtifact>>, SpecMismatch> {
        let mut swapped = Vec::new();
        for (n, _, a) in &mut self.entries {
            if n == name {
                *a = Arc::new(a.with_weights(net.clone())?);
                swapped.push(Arc::clone(a));
            }
        }
        Ok(swapped)
    }

    /// Number of distinct (name, options) artifacts held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many lookups were answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits
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
        let a0 = ModelArtifact::compile(&old, &CompileOptions::default());
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
        let a = ModelArtifact::compile(
            &Network::random(models::test_net(8, 4, 2), 1),
            &CompileOptions::default(),
        );
        let other = Network::random(models::test_net(8, 3, 2), 1);
        assert_eq!(a.with_weights(other).err(), Some(SpecMismatch));
    }

    #[test]
    fn artifact_cache_reuses_by_name_and_options() {
        let net = Network::random(models::test_net(8, 3, 2), 3);
        let mut cache = ArtifactCache::new();
        let opts = CompileOptions::default();
        let a = cache.get_or_compile("m", &net, &opts);
        let b = cache.get_or_compile("m", &net, &opts);
        assert!(Arc::ptr_eq(&a, &b), "same (name, options) must hit");
        assert_eq!(cache.hits(), 1);
        let streamed =
            CompileOptions { stream_parameters: true, ..CompileOptions::default() };
        let c = cache.get_or_compile("m", &net, &streamed);
        assert!(!Arc::ptr_eq(&a, &c), "different options are distinct artifacts");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn artifact_cache_publish_replaces_a_name() {
        let spec = models::test_net(8, 3, 2);
        let old = Network::random(spec.clone(), 4);
        let new = Network::random(spec, 5);
        let mut cache = ArtifactCache::new();
        let a0 = cache.get_or_compile("m", &old, &CompileOptions::default());
        let swapped = cache.publish("m", &new).expect("same spec");
        assert_eq!(swapped.len(), 1);
        assert_eq!(swapped[0].version(), 1);
        let a1 = cache.get_or_compile("m", &new, &CompileOptions::default());
        assert!(Arc::ptr_eq(&swapped[0], &a1), "cache must serve the new weights");
        assert_eq!(a0.version(), 0, "dispatched handles keep the old snapshot");
    }
}
