//! # qnn — streaming quantized neural networks on a simulated FPGA dataflow platform
//!
//! A Rust reproduction of *Baskin et al., "Streaming Architecture for
//! Large-Scale Quantized Neural Networks on an FPGA-Based Dataflow
//! Platform"* (2018). This facade re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`tensor`] | HWC tensors, bit-packed binary weights |
//! | [`quant`] | XNOR-popcount dot products, threshold-form BatchNorm+activation |
//! | [`nn`] | network IR, reference interpreter, ResNet-18 / AlexNet / CNV builders |
//! | [`dfe`] | the Maxeler-substitute dataflow platform (streams, kernels, the stepper, devices) |
//! | [`kernels`] | streaming conv / pool / threshold / skip kernels |
//! | [`compiler`] | lowering, multi-DFE partitioning, run helpers |
//! | [`hw`] | resource / cycle / power models and the GPU baseline |
//! | [`data`] | synthetic datasets and teacher-agreement evaluation |
//! | [`serve`] | multi-model serving runtime: registry, priority scheduling, hot weight swaps |
//! | [`cluster`] | cluster serving: wire protocol, TCP edges, sharding router, replica autoscaler |
//!
//! ## Quickstart
//!
//! ```
//! use qnn::nn::{models, Network};
//! use qnn::compiler::run_image;
//! use qnn::data::CIFAR10;
//!
//! // A small network with every architectural feature (conv, pool,
//! // residual blocks with skip connections, FC stack).
//! let net = Network::random(models::test_net(8, 4, 2), 42);
//! let img = qnn::tensor::Tensor3::from_fn(
//!     qnn::tensor::Shape3::square(8, 3),
//!     |y, x, c| ((y * 31 + x * 7 + c) % 255) as i8,
//! );
//! // Cycle-accurate streaming inference on the simulated DFE...
//! let sim = run_image(&net, &img).expect("simulation");
//! // ...matches the reference interpreter bit for bit.
//! assert_eq!(sim.logits[0], net.forward(&img).logits);
//! let _ = CIFAR10.image(0);
//! ```

#![forbid(unsafe_code)]

pub use dfe_platform as dfe;
pub use qnn_cluster as cluster;
pub use hw_model as hw;
pub use qnn_compiler as compiler;
pub use qnn_data as data;
pub use qnn_kernels as kernels;
pub use qnn_nn as nn;
pub use qnn_quant as quant;
pub use qnn_serve as serve;
pub use qnn_tensor as tensor;
