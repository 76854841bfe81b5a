//! Work estimation for host-side (TVM codegen) ops.

use tvmnp_hwsim::{WorkItem, WorkKind};
use tvmnp_relay::{OpKind, TensorType};

/// Estimate the device-neutral work of one Relay op given its argument and
/// output types. Mirrors `tvmnp_neuropilot::nir::work_item` so both
/// runtimes charge comparable costs for comparable kernels.
pub fn relay_work_item(op: &OpKind, args: &[&TensorType], out: &TensorType) -> WorkItem {
    let out_elems = out.shape.num_elements() as u64;
    let bytes_in: u64 = args.iter().map(|t| t.size_bytes() as u64).sum();
    let bytes_out = out.size_bytes() as u64;
    let int8 = out.dtype.is_quantized()
        || args
            .first()
            .map(|t| t.dtype.is_quantized())
            .unwrap_or(false);
    let (macs, kind) = match op {
        OpKind::Conv2d(_) | OpKind::QnnConv2d(_) => {
            let w = args.get(1).expect("conv has a weight argument");
            let wd = w.shape.dims();
            (
                out_elems * (wd[1] * wd[2] * wd[3]) as u64,
                WorkKind::MacHeavy,
            )
        }
        OpKind::Dense | OpKind::QnnDense(_) => {
            let w = args.get(1).expect("dense has a weight argument");
            (out_elems * w.shape.dims()[1] as u64, WorkKind::MacHeavy)
        }
        OpKind::MaxPool2d(a) | OpKind::AvgPool2d(a) => (
            out_elems * (a.kernel.0 * a.kernel.1) as u64,
            WorkKind::Reduction,
        ),
        OpKind::GlobalAvgPool2d | OpKind::Mean(_) => {
            let x = args.first().expect("reduction has an input");
            (x.shape.num_elements() as u64, WorkKind::Reduction)
        }
        OpKind::Softmax | OpKind::LogSoftmax => (4 * out_elems, WorkKind::Reduction),
        OpKind::BatchNorm(_) => (2 * out_elems, WorkKind::Elementwise),
        OpKind::Reshape(_)
        | OpKind::Transpose(_)
        | OpKind::Concatenate(_)
        | OpKind::QnnConcatenate(_)
        | OpKind::Pad(_)
        | OpKind::StridedSlice(_)
        | OpKind::BatchFlatten
        | OpKind::Dropout => (0, WorkKind::DataMovement),
        OpKind::Resize2d(a) => {
            let per = if a.bilinear { 8 } else { 1 };
            (per * out_elems, WorkKind::Elementwise)
        }
        _ => (out_elems, WorkKind::Elementwise),
    };
    WorkItem {
        macs,
        bytes_in,
        bytes_out,
        int8,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::Conv2dAttrs;
    use tvmnp_tensor::DType;

    #[test]
    fn conv_macs() {
        let x = TensorType::f32([1, 3, 8, 8]);
        let w = TensorType::f32([16, 3, 3, 3]);
        let out = TensorType::f32([1, 16, 8, 8]);
        let wi = relay_work_item(&OpKind::Conv2d(Conv2dAttrs::same(1)), &[&x, &w], &out);
        assert_eq!(wi.macs, (16 * 64) as u64 * 27);
        assert_eq!(wi.kind, WorkKind::MacHeavy);
    }

    #[test]
    fn int8_detected_from_args() {
        let x = TensorType::new([1, 4], DType::U8);
        let out = TensorType::new([1, 4], DType::U8);
        let wi = relay_work_item(&OpKind::Relu, &[&x], &out);
        assert!(wi.int8);
        assert_eq!(wi.kind, WorkKind::Elementwise);
    }

    #[test]
    fn data_movement_zero_macs() {
        let x = TensorType::f32([2, 8]);
        let out = TensorType::f32([4, 4]);
        let wi = relay_work_item(
            &OpKind::Reshape(tvmnp_relay::ReshapeAttrs {
                new_shape: vec![4, 4],
            }),
            &[&x],
            &out,
        );
        assert_eq!(wi.macs, 0);
        assert_eq!(wi.kind, WorkKind::DataMovement);
        assert!(wi.bytes() > 0);
    }
}
