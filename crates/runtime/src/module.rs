//! External runtime modules — the BYOC linkage.
//!
//! A partitioned Relay module calls global functions compiled by an
//! external compiler. At runtime those become [`ExternalModule`]s linked
//! into the graph executor, exactly like TVM imports external
//! `runtime::Module`s produced by a BYOC codegen.

use std::collections::HashMap;
use std::fmt;
use tvmnp_hwsim::{CostEntry, DeviceKind};
use tvmnp_tensor::Tensor;

/// Error from an external module invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleError(pub String);

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "external module error: {}", self.0)
    }
}

impl std::error::Error for ModuleError {}

/// A compiled external subgraph, callable from the graph executor.
pub trait ExternalModule: Send + Sync {
    /// Global symbol this module implements (e.g. `neuropilot_0`).
    fn symbol(&self) -> &str;

    /// Name of the compiler that produced it (e.g. `neuropilot`).
    fn compiler(&self) -> &str;

    /// The physical device a dispatch of this module enters through —
    /// what a fault plan targets and what boundary transfers and error
    /// labels are charged to. A CPU-policy Neuron module survives an APU
    /// device-lost plan because it never enters the APU driver.
    fn dispatch_device(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    /// Execute on positional, borrowed inputs; returns outputs and the
    /// simulated on-device time in microseconds (the sum of
    /// [`ExternalModule::ledger`] — the executor charges the ledger entries,
    /// not this figure).
    fn run(&self, inputs: &[&Tensor]) -> Result<(Vec<Tensor>, f64), ModuleError>;

    /// Every charged item of one invocation, input-independent (static
    /// shapes), in accumulation order. The executor splices these between
    /// the node's boundary transfers when it is built; time, energy,
    /// per-device attribution and profile spans are all read from them.
    fn ledger(&self) -> &[CostEntry];

    /// Serialize for embedding into a deployable artifact: the payload,
    /// without the symbol and compiler its external entry states.
    fn serialize(&self) -> serde_json::Value;
}

/// Symbol → module map linked into an executor.
#[derive(Default)]
pub struct ModuleRegistry {
    modules: HashMap<String, Box<dyn ExternalModule>>,
}

impl ModuleRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        ModuleRegistry::default()
    }

    /// Link a module under its symbol.
    pub fn register(&mut self, module: Box<dyn ExternalModule>) {
        self.modules.insert(module.symbol().to_string(), module);
    }

    /// Look up by symbol.
    pub fn get(&self, symbol: &str) -> Option<&dyn ExternalModule> {
        self.modules.get(symbol).map(|b| b.as_ref())
    }

    /// Number of linked modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether no modules are linked.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use tvmnp_hwsim::CostRole;

    /// A fake external module that negates its single input.
    pub struct NegateModule {
        symbol: String,
        ledger: [CostEntry; 1],
    }

    impl NegateModule {
        pub fn new(symbol: impl Into<String>, time_us: f64) -> Self {
            NegateModule {
                symbol: symbol.into(),
                ledger: [CostEntry::fixed(
                    0,
                    "negate",
                    CostRole::Kernel,
                    DeviceKind::Cpu,
                    time_us,
                )],
            }
        }
    }

    impl ExternalModule for NegateModule {
        fn symbol(&self) -> &str {
            &self.symbol
        }

        fn compiler(&self) -> &str {
            "fake"
        }

        fn run(&self, inputs: &[&Tensor]) -> Result<(Vec<Tensor>, f64), ModuleError> {
            let x = inputs[0].as_f32().map_err(|e| ModuleError(e.to_string()))?;
            let out: Vec<f32> = x.iter().map(|v| -v).collect();
            let t = Tensor::from_f32(inputs[0].shape().clone(), out)
                .map_err(|e| ModuleError(e.to_string()))?;
            Ok((vec![t], self.ledger[0].us))
        }

        fn ledger(&self) -> &[CostEntry] {
            &self.ledger
        }

        fn serialize(&self) -> serde_json::Value {
            serde_json::json!({ "time_us": self.ledger[0].us })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::NegateModule;
    use super::*;

    #[test]
    fn registry_roundtrip() {
        let mut r = ModuleRegistry::new();
        assert!(r.is_empty());
        r.register(Box::new(NegateModule::new("nir_0", 5.0)));
        assert_eq!(r.len(), 1);
        let m = r.get("nir_0").unwrap();
        assert_eq!(m.compiler(), "fake");
        let (outs, t) = m
            .run(&[&Tensor::from_f32([2], vec![1.0, -2.0]).unwrap()])
            .unwrap();
        assert_eq!(outs[0].as_f32().unwrap(), &[-1.0, 2.0]);
        assert_eq!(t, 5.0);
        assert!(r.get("missing").is_none());
    }
}
