//! Hand-written expectations the output checks compare against. Nothing
//! here is derived from the compiler at run time: a compiler change that
//! moves one of these facts must edit this file, in the open.
//!
//! The facts are the paper's: NeuroPilot supports fewer ops than TVM, so
//! NP-only builds of models with unfused `nn.batch_norm` (densenet,
//! inception-resnet-v2, the DeePixBiS anti-spoofing net), `mean` (nasnet)
//! or detection heads NeuroPilot cannot ingest (MobileNet-SSD, YOLO) are
//! refused — the missing bars of Figs. 4 and 6 — and every unsupported op
//! cuts the BYOC partition into more subgraphs (anti-spoofing's nine, the
//! "large number of subgraphs" of the Fig. 4 discussion).

/// One model of `compile_zoo`'s list.
pub struct ModelFacts {
    pub name: &'static str,
    /// Whether the three NP-only permutations compile.
    pub np_only_compiles: bool,
    /// `num_subgraphs` under each of the three BYOC permutations (the
    /// partition does not depend on the target policy).
    pub byoc_subgraphs: usize,
}

const fn m(name: &'static str, np_only_compiles: bool, byoc_subgraphs: usize) -> ModelFacts {
    ModelFacts {
        name,
        np_only_compiles,
        byoc_subgraphs,
    }
}

/// The Table 1 zoo in `zoo::zoo` order, then the four showcase models in
/// `fixtures::showcase_models` order.
pub const MODELS: [ModelFacts; 14] = [
    m("densenet", false, 5),
    m("inception resnet v2", false, 2),
    m("inception v3", true, 1),
    m("inception v4", true, 1),
    m("mobilenet v1", true, 1),
    m("mobilenet v2", true, 1),
    m("nasnet", false, 2),
    m("inception v3 quant", true, 1),
    m("mobilenet v1 quant", true, 1),
    m("mobilenet v2 quant", true, 1),
    m("anti-spoofing", false, 9),
    m("emotion-detection", true, 1),
    m("mobilenet-ssd-quant", false, 1),
    m("yolov3-tiny", false, 5),
];

pub fn facts(name: &str) -> &'static ModelFacts {
    MODELS
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("expected.rs has no entry for model '{name}'"))
}

/// Primitive calls in `main` of each frontend's imported module, in
/// `fixtures::FRONTENDS` order.
pub const IMPORT_CALLS: [usize; 6] = [34, 19, 19, 16, 10, 11];
