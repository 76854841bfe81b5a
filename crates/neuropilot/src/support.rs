//! Operator-coverage matrices.
//!
//! NeuroPilot supports *fewer* operators than TVM (paper §5, Fig. 4/6:
//! "NeuroPilot does not support as many AI operations as TVM, so there may
//! not be any statistics"). Two levels of coverage matter:
//!
//! * [`neuron_supported`] — can the Neuron compiler ingest the op at all?
//!   The converter's opcode `match` answers it, so coverage is stated
//!   once. This drives the BYOC annotate step and decides whether a
//!   NeuroPilot-only build succeeds (missing bars when it does not).
//! * [`device_supports`] — can a given back-end target execute the Neuron
//!   opcode? The APU's narrower coverage forces CPU fallbacks, which is
//!   what makes the CPU+APU permutations interesting (paper §5.1).

use crate::nir::NeuronOpKind;
use tvmnp_hwsim::DeviceKind;
use tvmnp_relay::passes::CompilerSupport;
use tvmnp_relay::OpKind;

/// Whether NeuroPilot can take this Relay op: the converter's opcode
/// `match` (`convert::neuron_kind`) has an opcode for it. Reshape,
/// transpose and pad, whose opcodes copy an attribute vector, are taken
/// unconditionally and answered without building one, so a support query
/// allocates nothing.
///
/// Notable gaps (all of which appear in the paper's model set and produce
/// its missing bars): unfused `nn.batch_norm` (vendor compilers expect BN
/// folded at export), `exp`/`mean`/`image.resize2d` (detection post-
/// processing), `strided_slice`, `nn.log_softmax`, and an average pool
/// that counts padding taps.
pub fn neuron_supported(op: &OpKind) -> bool {
    matches!(
        op,
        OpKind::Reshape(_) | OpKind::Transpose(_) | OpKind::Pad(_)
    ) || crate::convert::neuron_kind(op).is_some()
}

/// Which Neuron opcodes each device can execute.
pub(crate) fn device_supports(device: DeviceKind, op: &NeuronOpKind) -> bool {
    match device {
        // The vendor CPU (and GPU) kernels cover the full Neuron opcode set.
        DeviceKind::Cpu | DeviceKind::Gpu => true,
        // The APU 3.0 datapath covers the CNN core but not the
        // transcendental activations (driver falls back to CPU for those).
        DeviceKind::Apu => !matches!(
            op,
            NeuronOpKind::Sigmoid
                | NeuronOpKind::Tanh
                | NeuronOpKind::LeakyRelu(_)
                | NeuronOpKind::Mul
                | NeuronOpKind::Max
        ),
    }
}

/// The [`CompilerSupport`] oracle handed to the BYOC partitioner: "offload
/// to NeuroPilot whatever its compiler can ingest".
pub struct NeuronSupport;

impl CompilerSupport for NeuronSupport {
    fn name(&self) -> &str {
        "neuropilot"
    }

    fn supported(&self, op: &OpKind) -> bool {
        neuron_supported(op)
    }
}

/// Check an entire Relay function body for full Neuron coverage, returning
/// the first unsupported op name if any. NeuroPilot-only builds require
/// this to pass.
pub fn first_unsupported(func: &tvmnp_relay::Function) -> Option<String> {
    let mut bad: Option<String> = None;
    tvmnp_relay::visit::post_order(&func.body, |e| {
        if bad.is_some() {
            return;
        }
        if let Some(op) = e.op() {
            if !neuron_supported(op) {
                bad = Some(op.name().to_string());
            }
        }
    });
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::{
        BatchNormAttrs, Conv2dAttrs, MeanAttrs, Pool2dAttrs, Resize2dAttrs, SliceAttrs,
    };

    #[test]
    fn core_cnn_ops_supported() {
        for op in [
            OpKind::Conv2d(Conv2dAttrs::default()),
            OpKind::Dense,
            OpKind::Relu,
            OpKind::Softmax,
            OpKind::AvgPool2d(Pool2dAttrs::square(2)),
        ] {
            assert!(neuron_supported(&op), "{} must be supported", op.name());
        }
    }

    #[test]
    fn known_gaps_unsupported() {
        let padded = Pool2dAttrs {
            padding: (1, 1, 1, 1),
            count_include_pad: true,
            ..Pool2dAttrs::square(3)
        };
        for op in [
            OpKind::BatchNorm(BatchNormAttrs { epsilon: 1e-5 }),
            OpKind::Exp,
            OpKind::Mean(MeanAttrs { axes: vec![1] }),
            OpKind::Resize2d(Resize2dAttrs {
                out_h: 2,
                out_w: 2,
                bilinear: true,
            }),
            OpKind::StridedSlice(SliceAttrs {
                begin: vec![0],
                end: vec![1],
            }),
            OpKind::AvgPool2d(padded),
        ] {
            assert!(!neuron_supported(&op), "{op:?} must be unsupported");
        }
        // Without padding, counting the padding taps changes nothing.
        let unpadded = Pool2dAttrs {
            count_include_pad: true,
            ..Pool2dAttrs::square(2)
        };
        assert!(neuron_supported(&OpKind::AvgPool2d(unpadded)));
    }

    #[test]
    fn vector_attribute_ops_have_opcodes() {
        use crate::convert::neuron_kind;
        use tvmnp_relay::{PadAttrs, ReshapeAttrs, TransposeAttrs};
        for op in [
            OpKind::Reshape(ReshapeAttrs { new_shape: vec![4] }),
            OpKind::Transpose(TransposeAttrs { axes: vec![0] }),
            OpKind::Pad(PadAttrs {
                pads: vec![(1, 1)],
                value: 0.0,
            }),
        ] {
            assert!(neuron_supported(&op) && neuron_kind(&op).is_some());
        }
    }

    #[test]
    fn apu_narrower_than_cpu() {
        assert!(device_supports(DeviceKind::Cpu, &NeuronOpKind::Sigmoid));
        assert!(!device_supports(DeviceKind::Apu, &NeuronOpKind::Sigmoid));
        assert!(device_supports(DeviceKind::Apu, &NeuronOpKind::Softmax));
        assert!(device_supports(
            DeviceKind::Apu,
            &NeuronOpKind::Conv2d(Conv2dAttrs::default())
        ));
    }

    #[test]
    fn oracle_matches_set() {
        use tvmnp_relay::passes::CompilerSupport as _;
        let s = NeuronSupport;
        assert!(s.supported(&OpKind::Relu));
        assert!(
            !s.supported(&OpKind::BatchNorm(tvmnp_relay::BatchNormAttrs {
                epsilon: 1e-5
            }))
        );
    }
}
