//! The face anti-spoofing model (paper §4.1): DeePixBiS — "Deep Pixel-wise
//! Binary Supervision" — imported from PyTorch via `torch.jit.trace`, as
//! in Listing 2.
//!
//! Architecture-faithful skeleton: a DenseNet-style feature extractor
//! (the original takes DenseNet-161's first blocks) with *unfused*
//! `aten::batch_norm` before every convolution, followed by a 1×1
//! convolution + sigmoid producing the pixel-wise binary map. The
//! interleaved batch norms are the reason this model (a) cannot compile
//! NeuroPilot-only and (b) shatters into the paper's "large number of
//! subgraphs" under BYOC — both observations of Fig. 4.

use crate::{Framework, Model};
use tvmnp_frontends::pytorch::{batch_norm_entry, from_pytorch, TorchNode, TracedModule};
use tvmnp_tensor::rng::TensorRng;
use tvmnp_tensor::{DType, Tensor};

/// Number of dense blocks in the scaled-down extractor.
pub(crate) const NUM_BLOCKS: usize = 2;
/// Dense layers per block.
pub(crate) const LAYERS_PER_BLOCK: usize = 3;
/// Growth rate (channels added per dense layer).
pub(crate) const GROWTH: usize = 16;

/// Assemble the traced PyTorch module (the artifact of
/// `torch.jit.trace(DeePixBiS(), input)`).
pub fn traced_deepixbis(seed: u64) -> TracedModule {
    let mut rng = TensorRng::new(seed);
    let mut nodes: Vec<TorchNode> = Vec::new();
    let mut state = std::collections::HashMap::new();
    let mut vid = 0usize;
    let mut fresh = || {
        vid += 1;
        format!("%{vid}")
    };

    let mut bn_count = 0usize;
    let mut conv_count = 0usize;

    // Stem: conv 3->32 stride 1 pad 1, bn, relu, maxpool /2.
    let input = "%x".to_string();
    let stem_w = rng.kaiming_f32([32, 3, 3, 3], 27);
    state.insert("stem.weight".into(), stem_w);
    let c0 = fresh();
    nodes.push(
        TorchNode::new("aten::conv2d", &[&input, "stem.weight"], &c0)
            .with_ints("stride", vec![1, 1])
            .with_ints("padding", vec![1, 1]),
    );
    conv_count += 1;
    let mut cur = c0;
    let mut cur_c = 32usize;

    let add_bn = |nodes: &mut Vec<TorchNode>,
                  state: &mut std::collections::HashMap<String, Tensor>,
                  rng: &mut TensorRng,
                  bn_count: &mut usize,
                  cur: &str,
                  channels: usize,
                  out: &str| {
        let prefix = format!("bn{}", *bn_count);
        *bn_count += 1;
        batch_norm_entry(
            state,
            &prefix,
            rng.uniform_f32([channels], 0.9, 1.1),
            rng.uniform_f32([channels], -0.1, 0.1),
            rng.uniform_f32([channels], -0.1, 0.1),
            rng.uniform_f32([channels], 0.9, 1.1),
        );
        nodes.push(
            TorchNode::new(
                "aten::batch_norm",
                &[
                    cur,
                    &format!("{prefix}.weight"),
                    &format!("{prefix}.bias"),
                    &format!("{prefix}.running_mean"),
                    &format!("{prefix}.running_var"),
                ],
                out,
            )
            .with_float("eps", 1e-5),
        );
    };

    {
        let b = fresh();
        add_bn(
            &mut nodes,
            &mut state,
            &mut rng,
            &mut bn_count,
            &cur,
            cur_c,
            &b,
        );
        let r = fresh();
        nodes.push(TorchNode::new("aten::relu", &[&b], &r));
        let p = fresh();
        nodes.push(
            TorchNode::new("aten::max_pool2d", &[&r], &p).with_ints("kernel_size", vec![2, 2]),
        );
        cur = p;
    }

    // Dense blocks: layer = bn -> relu -> conv(growth) ; concat(features).
    for block in 0..NUM_BLOCKS {
        for layer in 0..LAYERS_PER_BLOCK {
            let b = fresh();
            add_bn(
                &mut nodes,
                &mut state,
                &mut rng,
                &mut bn_count,
                &cur,
                cur_c,
                &b,
            );
            let r = fresh();
            nodes.push(TorchNode::new("aten::relu", &[&b], &r));
            let wname = format!("block{block}.layer{layer}.weight");
            state.insert(
                wname.clone(),
                rng.kaiming_f32([GROWTH, cur_c, 3, 3], cur_c * 9),
            );
            let c = fresh();
            nodes.push(
                TorchNode::new("aten::conv2d", &[&r, &wname], &c)
                    .with_ints("stride", vec![1, 1])
                    .with_ints("padding", vec![1, 1]),
            );
            conv_count += 1;
            let cat = fresh();
            nodes.push(TorchNode::new("aten::cat", &[&cur, &c], &cat).with_ints("dim", vec![1]));
            cur = cat;
            cur_c += GROWTH;
        }
        // Transition: bn -> relu -> 1x1 conv (halve channels) -> avgpool /2.
        if block + 1 < NUM_BLOCKS {
            let b = fresh();
            add_bn(
                &mut nodes,
                &mut state,
                &mut rng,
                &mut bn_count,
                &cur,
                cur_c,
                &b,
            );
            let r = fresh();
            nodes.push(TorchNode::new("aten::relu", &[&b], &r));
            let wname = format!("trans{block}.weight");
            let out_c = cur_c / 2;
            state.insert(wname.clone(), rng.kaiming_f32([out_c, cur_c, 1, 1], cur_c));
            let c = fresh();
            nodes.push(TorchNode::new("aten::conv2d", &[&r, &wname], &c));
            conv_count += 1;
            let p = fresh();
            nodes.push(
                TorchNode::new("aten::avg_pool2d", &[&c], &p).with_ints("kernel_size", vec![2, 2]),
            );
            cur = p;
            cur_c = out_c;
        }
    }

    // Pixel-wise binary head: 1x1 conv to a single map + sigmoid.
    state.insert(
        "head.weight".into(),
        rng.kaiming_f32([1, cur_c, 1, 1], cur_c),
    );
    let h = fresh();
    nodes.push(TorchNode::new("aten::conv2d", &[&cur, "head.weight"], &h));
    conv_count += 1;
    let out = fresh();
    nodes.push(TorchNode::new("aten::sigmoid", &[&h], &out));

    debug_assert!(bn_count >= NUM_BLOCKS * LAYERS_PER_BLOCK);
    debug_assert!(conv_count >= NUM_BLOCKS * LAYERS_PER_BLOCK);

    TracedModule {
        nodes,
        inputs: vec![input],
        output: out,
        state_dict: state,
    }
}

/// Import DeePixBiS through the PyTorch frontend. Input: `1×3×32×32` face
/// crop; output: a pixel-wise liveness map in `(0, 1)`.
pub fn anti_spoofing_model(seed: u64) -> Model {
    let traced = traced_deepixbis(seed);
    let module = from_pytorch(&traced, &[("%x".to_string(), vec![1, 3, 32, 32])])
        .expect("DeePixBiS imports");
    Model {
        name: "anti-spoofing".into(),
        dtype: DType::F32,
        framework: Framework::PyTorch,
        module,
        input_name: "%x".into(),
        input_shape: vec![1, 3, 32, 32],
        input_quant: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvmnp_relay::interp::run_module;

    #[test]
    fn produces_pixel_map_in_unit_range() {
        let m = anti_spoofing_model(11);
        let out = run_module(&m.module, &m.sample_inputs(12)).unwrap();
        let d = out.shape().dims();
        assert_eq!(d[0], 1);
        assert_eq!(d[1], 1);
        assert!(d[2] > 1 && d[3] > 1, "pixel-wise map, not a scalar");
        assert!(out
            .as_f32()
            .unwrap()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn contains_unfused_batch_norms() {
        let m = anti_spoofing_model(11);
        let bn = tvmnp_relay::visit::topo_order(&m.module.main().body)
            .iter()
            .filter(|e| e.op().map(|o| o.name() == "nn.batch_norm").unwrap_or(false))
            .count();
        assert!(bn >= 7, "DeePixBiS must keep its BN layers (got {bn})");
    }

    #[test]
    fn np_only_compilation_impossible() {
        let m = anti_spoofing_model(11);
        let simplified = tvmnp_relay::passes::simplify(&m.module);
        assert_eq!(
            tvmnp_neuropilot::support::first_unsupported(simplified.main()),
            Some("nn.batch_norm".to_string())
        );
    }

    #[test]
    fn shatters_into_many_subgraphs_under_byoc() {
        let m = anti_spoofing_model(11);
        let (_, report) = tvmnp_relay::passes::partition_graph(
            &m.module,
            &tvmnp_neuropilot::support::NeuronSupport,
        )
        .unwrap();
        assert!(
            report.num_subgraphs >= 6,
            "the Fig. 4 story needs many subgraphs, got {}",
            report.num_subgraphs
        );
    }
}
